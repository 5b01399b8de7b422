#include "util/fs.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>

#include "obs/metrics.hpp"
#include "util/failpoint.hpp"
#include "util/io_error.hpp"

namespace treelab::util {
namespace {

struct FdGuard {
  int fd = -1;
  ~FdGuard() {
    if (fd >= 0) ::close(fd);
  }
  FdGuard(const FdGuard&) = delete;
  FdGuard& operator=(const FdGuard&) = delete;
  explicit FdGuard(int f) : fd(f) {}
};

// Writes `bytes` to fd, honoring the "fs.write" failpoint: short-write
// persists a prefix then reports ENOSPC, torn-write persists a prefix
// then simulates a crash. The prefix really reaches the fd first, so the
// file holds exactly what a dying process would have left.
void write_all(int fd, const std::string& path, std::string_view bytes) {
  std::uint64_t limit = bytes.size();
  std::optional<FailMode> after;
  if (auto fp = failpoint::check("fs.write")) {
    switch (fp->mode) {
      case FailMode::kShortWrite:
      case FailMode::kTornWrite:
        limit = std::min<std::uint64_t>(fp->arg, bytes.size());
        after = fp->mode;
        break;
      default:
        failpoint::raise(*fp, "fs.write", path);
    }
  }
  std::size_t off = 0;
  while (off < limit) {
    const ::ssize_t w = ::write(fd, bytes.data() + off, limit - off);
    if (w < 0) {
      if (errno == EINTR) continue;
      throw IoError(path, "write", errno);
    }
    off += static_cast<std::size_t>(w);
  }
  if (after == FailMode::kShortWrite) throw IoError(path, "write", ENOSPC);
  if (after == FailMode::kTornWrite) throw FailpointAbort("fs.write");
}

void fsync_fd(int fd, const std::string& path) {
  if (auto fp = failpoint::check("fs.fsync"))
    failpoint::raise(*fp, "fs.fsync", path);
  if (::fsync(fd) != 0) throw IoError(path, "fsync", errno);
}

// Durability of the rename itself: fsync the containing directory.
// Best-effort — some filesystems refuse O_RDONLY fsync on directories.
void fsync_parent_dir(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? std::string(".")
                                                     : path.substr(0, slash);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return;
  (void)::fsync(fd);
  ::close(fd);
}

}  // namespace

bool file_exists(const std::string& path) {
  struct ::stat st{};
  return ::stat(path.c_str(), &st) == 0;
}

std::uint64_t file_size(const std::string& path) {
  struct ::stat st{};
  if (::stat(path.c_str(), &st) != 0) throw IoError(path, "stat", errno);
  return static_cast<std::uint64_t>(st.st_size);
}

std::string read_file(const std::string& path) {
  if (auto fp = failpoint::check("fs.open_read"))
    failpoint::raise(*fp, "fs.open_read", path);
  FdGuard fd(::open(path.c_str(), O_RDONLY | O_CLOEXEC));
  if (fd.fd < 0) throw IoError(path, "open for reading", errno);
  std::uint64_t limit = ~std::uint64_t{0};
  if (auto fp = failpoint::check("fs.read")) {
    if (fp->mode == FailMode::kShortRead)
      limit = fp->arg;
    else
      failpoint::raise(*fp, "fs.read", path);
  }
  struct ::stat st{};
  if (::fstat(fd.fd, &st) != 0) throw IoError(path, "stat", errno);
  std::string out;
  out.reserve(static_cast<std::size_t>(st.st_size));
  char buf[1 << 16];
  while (out.size() < limit) {
    const std::size_t want =
        std::min<std::uint64_t>(sizeof buf, limit - out.size());
    const ::ssize_t r = ::read(fd.fd, buf, want);
    if (r < 0) {
      if (errno == EINTR) continue;
      throw IoError(path, "read", errno);
    }
    if (r == 0) break;
    out.append(buf, static_cast<std::size_t>(r));
  }
  return out;
}

void atomic_write_file(const std::string& path, std::string_view bytes) {
  const std::string tmp = path + ".tmp";
  {
    if (auto fp = failpoint::check("fs.open_write"))
      failpoint::raise(*fp, "fs.open_write", tmp);
    FdGuard fd(::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                      0644));
    if (fd.fd < 0) throw IoError(tmp, "open for writing", errno);
    write_all(fd.fd, tmp, bytes);
    fsync_fd(fd.fd, tmp);
  }
  if (auto fp = failpoint::check("fs.rename"))
    failpoint::raise(*fp, "fs.rename", path);
  if (::rename(tmp.c_str(), path.c_str()) != 0)
    throw IoError(path, "rename into place", errno);
  fsync_parent_dir(path);
}

void append_file(const std::string& path, std::string_view bytes, bool sync,
                 std::uint64_t* fsync_ns) {
  if (fsync_ns != nullptr) *fsync_ns = 0;
  if (auto fp = failpoint::check("fs.open_append"))
    failpoint::raise(*fp, "fs.open_append", path);
  FdGuard fd(::open(path.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC));
  if (fd.fd < 0) throw IoError(path, "open for append", errno);
  write_all(fd.fd, path, bytes);
  if (sync) {
    const std::uint64_t t0 = obs::now_ns();
    fsync_fd(fd.fd, path);
    if (fsync_ns != nullptr) *fsync_ns = obs::now_ns() - t0;
  }
}

void truncate_file(const std::string& path, std::uint64_t size) {
  if (auto fp = failpoint::check("fs.truncate"))
    failpoint::raise(*fp, "fs.truncate", path);
  if (::truncate(path.c_str(), static_cast<::off_t>(size)) != 0)
    throw IoError(path, "truncate", errno);
}

void remove_file(const std::string& path) {
  if (::unlink(path.c_str()) != 0 && errno != ENOENT)
    throw IoError(path, "remove", errno);
}

}  // namespace treelab::util
