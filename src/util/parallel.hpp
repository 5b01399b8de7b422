// Deterministic fork/join parallelism for label construction.
//
// Construction in treelab is "computed once centrally, then shipped": the
// build side may use every core, but the labels it emits must be
// bit-identical whatever the thread count, so results can be diffed,
// content-addressed, and reproduced. parallel_for_chunks therefore only
// splits index ranges; all ordering-sensitive assembly (arena layout,
// stats merging) is done per-chunk and reduced in chunk order by the
// caller.
//
// The global default thread count comes from TREELAB_THREADS (clamped to
// >= 1), falling back to usable_cpus().
#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <thread>
#include <vector>

namespace treelab::util {

/// CPUs this thread may run on: the count of its sched_getaffinity mask,
/// so taskset and cpusets count, falling back to
/// std::thread::hardware_concurrency(); always >= 1.
[[nodiscard]] int usable_cpus() noexcept;

/// Threads to use for construction: a valid TREELAB_THREADS if set (clamped
/// to usable_cpus()), else usable_cpus(). Re-read on every call.
[[nodiscard]] int thread_count() noexcept;

/// Strict TREELAB_THREADS parsing: `s` must be a whole base-10 integer in
/// [1, hardware]. Zero, negative, empty, trailing-garbage ("4x") and
/// overflowing values are rejected (returning `hardware`, the default);
/// values above `hardware` are clamped to it — oversubscribing the fork/join
/// pools only adds scheduling noise, never throughput. A rejection is not
/// silent: it bumps thread_env_rejections() and, once per process, prints a
/// stderr warning — a typo'd env var must not masquerade as a deliberate
/// setting.
[[nodiscard]] int parse_thread_count(const char* s, int hardware) noexcept;

/// How many times parse_thread_count rejected a value this process (the
/// observable side of the one-time warning; clamping does not count).
[[nodiscard]] std::uint64_t thread_env_rejections() noexcept;

/// `threads` if positive, else thread_count().
[[nodiscard]] inline int resolve_threads(int threads) noexcept {
  return threads > 0 ? threads : thread_count();
}

/// Splits [0, n) into `chunks` near-equal contiguous ranges; returns the
/// chunk boundaries (size chunks + 1). Deterministic in (n, chunks).
[[nodiscard]] std::vector<std::size_t> split_ranges(std::size_t n,
                                                    std::size_t chunks);

/// Runs f(chunk, begin, end) over the `chunks` ranges of split_ranges(n),
/// on at most `threads` std::threads (the calling thread works too). Each
/// chunk index is handled exactly once; exceptions from any chunk are
/// captured and the first one (lowest chunk index) is rethrown after join.
template <typename F>
void parallel_for_chunks(std::size_t n, std::size_t chunks, int threads,
                         F&& f) {
  const std::vector<std::size_t> off = split_ranges(n, chunks);
  const std::size_t c = off.size() - 1;
  if (threads <= 1 || c <= 1) {
    for (std::size_t i = 0; i < c; ++i) f(i, off[i], off[i + 1]);
    return;
  }
  const std::size_t workers =
      std::min<std::size_t>(static_cast<std::size_t>(threads), c);
  std::vector<std::exception_ptr> errors(c);
  // Chunk i is owned by worker i % workers: a static schedule, so no shared
  // counter and no dependence of anything on execution interleaving.
  const auto run = [&](std::size_t w) {
    for (std::size_t i = w; i < c; i += workers) {
      try {
        f(i, off[i], off[i + 1]);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(workers - 1);
  for (std::size_t w = 1; w < workers; ++w) pool.emplace_back(run, w);
  run(0);
  for (auto& th : pool) th.join();
  for (const auto& e : errors)
    if (e) std::rethrow_exception(e);
}

}  // namespace treelab::util
