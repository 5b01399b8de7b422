// Shared helpers for the benchmark harness: aligned table printing and the
// theoretical curves the measured points are compared against.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <concepts>
#include <cstddef>
#include <cstdio>
#include <ctime>
#include <string>
#include <vector>

#include "bits/kernels.hpp"
#include "util/parallel.hpp"

namespace treelab::bench {

/// Shared throughput harness: runs `f(batch)` repeatedly (after one warmup
/// call) until `min_seconds` elapsed; returns operations/sec assuming each
/// call performs `batch` operations.
template <typename F>
inline double measure_qps(F&& f, std::size_t batch = 4096,
                          double min_seconds = 0.2) {
  using clock = std::chrono::steady_clock;
  f(batch / 4 + 1);  // warmup
  const auto t0 = clock::now();
  std::size_t done = 0;
  double dt = 0;
  do {
    f(batch);
    done += batch;
    dt = std::chrono::duration<double>(clock::now() - t0).count();
  } while (dt < min_seconds);
  return static_cast<double>(done) / dt;
}

/// UTC wall-clock provenance stamp, e.g. "2026-08-08T12:34:56Z".
inline std::string timestamp_utc() {
  const std::time_t t = std::time(nullptr);
  std::tm tm{};
  gmtime_r(&t, &tm);
  char buf[32];
  std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

/// The shared BENCH_*.json provenance header: when the run happened, the
/// CPUs the process could use (util::usable_cpus), the fan-out of the
/// timed work (0 = the timed calls are single-threaded; untimed set-up,
/// such as a parallel build before the timer starts, does not count), and
/// the decode kernel level (always "scalar": the kernels have one
/// implementation). Call inside an open JSON object; emits trailing-comma'd
/// fields.
inline void json_provenance(std::FILE* f, int planned_fanout) {
  std::fprintf(f, "  \"timestamp_utc\": \"%s\",\n", timestamp_utc().c_str());
  std::fprintf(f, "  \"threads_available\": %d,\n", util::usable_cpus());
  std::fprintf(f, "  \"planned_fanout\": %d,\n", planned_fanout);
  std::fprintf(f, "  \"kernels\": \"%s\",\n", bits::kernels::level_name());
}

/// Prints a row of right-aligned cells (12 chars each, first cell 26).
inline void row(const std::vector<std::string>& cells) {
  for (std::size_t i = 0; i < cells.size(); ++i)
    std::printf(i == 0 ? "%-26s" : "%12s", cells[i].c_str());
  std::printf("\n");
}

inline std::string num(double x, int prec = 1) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", prec, x);
  return buf;
}

template <typename T>
  requires std::integral<T>
inline std::string num(T x) {
  return std::to_string(x);
}

inline double log2d(double x) { return std::log2(x); }

/// 1/4 log^2 n and 1/2 log^2 n — the paper's headline curves.
inline double quarter_log2(double n) {
  const double l = log2d(n);
  return 0.25 * l * l;
}
inline double half_log2(double n) {
  const double l = log2d(n);
  return 0.5 * l * l;
}

}  // namespace treelab::bench
