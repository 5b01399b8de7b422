#include "util/parallel.hpp"

#include <sched.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>

namespace treelab::util {

namespace {

std::atomic<std::uint64_t> rejections{0};

/// A rejected TREELAB_THREADS is operator input gone wrong; falling back
/// silently would let a typo masquerade as a deliberate setting. Warn once
/// per process (the value is re-read on every build, so per-call warnings
/// would spam). The counter is the machine-checkable side: it increments
/// on EVERY rejection, before and independently of the warn-once gate —
/// the registry exposes it as `util.thread_env_rejections`.
int reject(const char* s, int hardware) noexcept {
  rejections.fetch_add(1, std::memory_order_relaxed);
  static std::atomic_flag warned = ATOMIC_FLAG_INIT;
  if (!warned.test_and_set(std::memory_order_relaxed))
    std::fprintf(stderr,
                 "treelab: ignoring invalid TREELAB_THREADS='%s' "
                 "(want a whole number >= 1); using %d\n",
                 s, hardware);
  return hardware;
}

}  // namespace

std::uint64_t thread_env_rejections() noexcept {
  return rejections.load(std::memory_order_relaxed);
}

int parse_thread_count(const char* s, int hardware) noexcept {
  if (s == nullptr) return hardware;  // unset: the default, not a rejection
  if (*s == '\0') return reject(s, hardware);
  errno = 0;
  char* end = nullptr;
  const long v = std::strtol(s, &end, 10);
  if (end == s || *end != '\0')
    return reject(s, hardware);  // garbage / trailing junk
  if (errno == ERANGE || v < 1)
    return reject(s, hardware);  // overflow / zero / negative
  if (v > hardware) return hardware;  // clamp: valid ambition, no warning
  return static_cast<int>(v);
}

int usable_cpus() noexcept {
  // hardware_concurrency() counts the machine, not the CPUs a pinned or
  // cgroup-confined process may use; threads beyond the mask only
  // time-slice its cores.
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0 && CPU_COUNT(&set) >= 1)
    return CPU_COUNT(&set);
  const unsigned hw = std::thread::hardware_concurrency();
  return hw >= 1 ? static_cast<int>(hw) : 1;
}

int thread_count() noexcept {
  // Re-read on every call (it is consulted once per build, not per node) so
  // a process can re-point TREELAB_THREADS between builds.
  const int cpus = usable_cpus();
  if (const char* env = std::getenv("TREELAB_THREADS"))
    return parse_thread_count(env, cpus);
  return cpus;
}

std::vector<std::size_t> split_ranges(std::size_t n, std::size_t chunks) {
  if (chunks < 1) chunks = 1;
  if (chunks > n) chunks = n == 0 ? 1 : n;
  std::vector<std::size_t> off(chunks + 1);
  for (std::size_t i = 0; i <= chunks; ++i) off[i] = n * i / chunks;
  return off;
}

}  // namespace treelab::util
