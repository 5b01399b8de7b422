#include "bits/label_arena.hpp"

#include <bit>
#include <new>
#include <utility>

#include "util/failpoint.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define TREELAB_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define TREELAB_HAVE_MMAP 0
#endif

namespace treelab::bits {

std::size_t LabelArena::total_label_bits() const noexcept {
  std::size_t total = 0;
  for (const std::size_t l : len_) total += l;
  return total;
}

std::optional<std::size_t> LabelArena::set_directory(
    std::vector<std::size_t> lens) {
  start_word_.resize(lens.size() + 1);
  // Each label's word count is taken without the `+ 63` (which itself can
  // wrap for a length near SIZE_MAX), and the running count is checked.
  std::size_t word = 0;
  for (std::size_t i = 0; i < lens.size(); ++i) {
    start_word_[i] = word;
    const std::size_t nw = lens[i] / 64 + (lens[i] % 64 != 0 ? 1 : 0);
    if (word > SIZE_MAX - nw) return std::nullopt;
    word += nw;
  }
  start_word_[lens.size()] = word;
  len_ = std::move(lens);
  return word;
}

std::uint64_t* LabelArena::lay_out(std::vector<std::size_t> lens) {
  // Real labels, already in memory, cannot wrap the word count.
  const std::size_t n = *set_directory(std::move(lens));
  std::shared_ptr<std::uint64_t[]> buf = std::make_shared<std::uint64_t[]>(n);
  std::uint64_t* const words = buf.get();
  words_ = std::shared_ptr<const std::uint64_t>(std::move(buf), words);
  return words;
}

std::optional<LabelArena> LabelArena::map(const char* path,
                                          std::size_t words_offset,
                                          std::vector<std::size_t> lens) {
  // Any hit means "mmap unavailable here": callers must take the same
  // streamed-fallback path they would on a platform without mmap, which
  // is exactly what the fallback-parity tests force and verify.
  if (util::failpoint::check("mapped_arena.map")) return std::nullopt;
#if TREELAB_HAVE_MMAP
  // The file stores words as little-endian bytes; reinterpreting them as
  // uint64_t is only the identity on a little-endian host.
  if constexpr (std::endian::native != std::endian::little) return std::nullopt;
  if (words_offset % sizeof(std::uint64_t) != 0) return std::nullopt;

  // The word count must not wrap: an adversarial length directory (lens[i]
  // near SIZE_MAX, or many huge entries) could otherwise overflow it to a
  // small value, pass the file_len check below, and hand out BitSpan views
  // far past the mapping. set_directory refuses such a directory.
  LabelArena out;
  std::optional<std::size_t> words;
  try {
    words = out.set_directory(std::move(lens));
  } catch (const std::bad_alloc&) {
    return std::nullopt;  // let the caller fall back to streamed loading
  }
  if (!words) return std::nullopt;

  const int fd = ::open(path, O_RDONLY);
  if (fd < 0) return std::nullopt;
  struct stat st {};
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    return std::nullopt;
  }
  const auto file_len = static_cast<std::size_t>(st.st_size);
  if (file_len < words_offset ||
      (file_len - words_offset) / sizeof(std::uint64_t) < *words) {
    ::close(fd);
    return std::nullopt;
  }
  if (file_len == 0) {
    ::close(fd);
    // Nothing to map: only an empty labeling fits an empty file.
    if (!out.empty()) return std::nullopt;
    return out;
  }
  void* const base = ::mmap(nullptr, file_len, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping keeps the file alive
  if (base == MAP_FAILED) return std::nullopt;
  // From here the mapping is owned: if the control block cannot be
  // allocated, shared_ptr runs the deleter before rethrowing.
  std::shared_ptr<const void> mapping(base, [file_len](const void* p) {
    ::munmap(const_cast<void*>(p), file_len);
  });

  out.words_ = std::shared_ptr<const std::uint64_t>(
      std::move(mapping), reinterpret_cast<const std::uint64_t*>(
                              static_cast<const char*>(base) + words_offset));
  out.mapped_ = true;
  return out;
#else
  (void)path;
  (void)words_offset;
  (void)lens;
  return std::nullopt;
#endif
}

}  // namespace treelab::bits
