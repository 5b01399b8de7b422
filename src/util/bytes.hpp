// util/bytes — the one byte codec behind every treelab format: the
// LabelStore containers (TLAB v1/v2/v3), the delta journal (TLJN header,
// TLRC records) and the wire (TLNF frames).
//
//  * Integers are fixed-width little-endian, moved with memcpy: a plain
//    load/store on a little-endian host, a byteswap only on a big-endian one.
//  * ByteReader is the one bounded reader over a buffer.
//  * append_frame / read_frame_header are the one 24-byte frame header that
//    journal records and wire frames share byte for byte:
//
//      magic[4] | u32 tag | u64 payload_len | u64 payload_crc32c | payload
//
//    The sum field holds the payload's CRC32C zero-extended, so a sum with
//    any of its high 32 bits set never verifies.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>

#include "util/hash.hpp"

namespace treelab::util {

/// x with its bytes in little-endian order: the identity on a little-endian
/// host, a byteswap on a big-endian one (and its own inverse either way).
template <typename T>
[[nodiscard]] constexpr T le(T x) noexcept {
  static_assert(std::is_unsigned_v<T> && sizeof(T) <= 8);
  if constexpr (std::endian::native == std::endian::big && sizeof(T) == 2)
    return __builtin_bswap16(x);
  if constexpr (std::endian::native == std::endian::big && sizeof(T) == 4)
    return __builtin_bswap32(x);
  if constexpr (std::endian::native == std::endian::big && sizeof(T) == 8)
    return __builtin_bswap64(x);
  return x;
}

/// The sizeof(T) little-endian bytes at `p`.
template <typename T>
[[nodiscard]] T load_le(const char* p) noexcept {
  T x = 0;
  std::memcpy(&x, p, sizeof(T));
  return le(x);
}

/// Writes x at `p` as sizeof(T) little-endian bytes.
template <typename T>
void store_le(char* p, T x) noexcept {
  x = le(x);
  std::memcpy(p, &x, sizeof(T));
}

/// Appends x to `out` as sizeof(T) little-endian bytes.
template <typename T>
void put_le(std::string& out, T x) {
  char b[sizeof(T)];
  store_le(b, x);
  out.append(b, sizeof(T));
}

/// `words` as little-endian bytes, the layout every container stores words
/// in: a view of the words' own memory on a little-endian host, a
/// byteswapped copy in `scratch` on a big-endian one.
[[nodiscard]] inline std::string_view le_bytes(
    std::span<const std::uint64_t> words, std::string& scratch) {
  if constexpr (std::endian::native == std::endian::little)
    return {reinterpret_cast<const char*>(words.data()), words.size_bytes()};
  scratch.clear();
  for (const std::uint64_t w : words) put_le(scratch, w);
  return scratch;
}

/// Bounded sequential reader over a byte buffer. A read past the end
/// returns zeros, consumes nothing and clears ok() for good, so a decoder
/// checks once where it must (before trusting a count, at the end) instead
/// of per field — and never reads out of bounds.
class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes) noexcept : s_(bytes) {}

  template <typename T>
  [[nodiscard]] T get() noexcept {
    return take(sizeof(T)) ? load_le<T>(s_.data() + off_ - sizeof(T)) : T{0};
  }

  /// The next `n` bytes; empty when fewer remain.
  [[nodiscard]] std::string_view bytes(std::size_t n) noexcept {
    return take(n) ? std::string_view(s_.data() + off_ - n, n)
                   : std::string_view{};
  }

  [[nodiscard]] bool ok() const noexcept { return ok_; }
  /// ok() with every byte consumed.
  [[nodiscard]] bool done() const noexcept {
    return ok_ && off_ == s_.size();
  }
  [[nodiscard]] std::size_t offset() const noexcept { return off_; }
  [[nodiscard]] std::size_t remaining() const noexcept {
    return s_.size() - off_;
  }

  /// Throws std::runtime_error(what) unless every read so far was in bounds.
  void require(const char* what) const {
    if (!ok_) throw std::runtime_error(what);
  }

 private:
  bool take(std::size_t n) noexcept {
    if (!ok_ || n > remaining()) {
      ok_ = false;
      return false;
    }
    off_ += n;
    return true;
  }

  std::string_view s_;
  std::size_t off_ = 0;
  bool ok_ = true;
};

// --- the shared frame header -------------------------------------------------

inline constexpr std::size_t kFrameHeaderBytes = 4 + 4 + 8 + 8;

/// Appends one frame: `magic` (4 bytes) | u32 `tag` | u64 payload length |
/// u64 CRC32C of the payload, zero-extended | payload.
inline void append_frame(std::string& out, const char* magic,
                         std::uint32_t tag, std::string_view payload) {
  out.reserve(out.size() + kFrameHeaderBytes + payload.size());
  out.append(magic, 4);
  put_le(out, tag);
  put_le<std::uint64_t>(out, payload.size());
  put_le<std::uint64_t>(out, crc32c(payload.data(), payload.size()));
  out.append(payload);
}

struct FrameHeader {
  std::uint32_t tag = 0;
  std::uint64_t len = 0;  ///< payload bytes after the header
  std::uint64_t sum = 0;  ///< CRC32C of those bytes, zero-extended

  /// False for a sum with a high bit set: no CRC32C reaches them.
  [[nodiscard]] bool verifies(std::string_view payload) const noexcept {
    return sum == crc32c(payload.data(), payload.size());
  }
};

/// Parses the kFrameHeaderBytes bytes at `p`; false unless they start with
/// `magic`. Bounds on the tag and length are the caller's.
[[nodiscard]] inline bool read_frame_header(const char* p, const char* magic,
                                            FrameHeader& out) noexcept {
  if (std::memcmp(p, magic, 4) != 0) return false;
  out.tag = load_le<std::uint32_t>(p + 4);
  out.len = load_le<std::uint64_t>(p + 8);
  out.sum = load_le<std::uint64_t>(p + 16);
  return true;
}

}  // namespace treelab::util
