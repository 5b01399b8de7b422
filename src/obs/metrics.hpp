// Process-wide observability: named lock-free counters, gauges, and
// fixed-bucket log-scale latency histograms, collected in a registry that
// can be snapshotted at any time into sorted `name value` lines
// (Prometheus-style text exposition) or shipped over the wire as a
// kStatsReply frame.
//
// Design constraints, in order:
//   * near-zero cost when unread — every mutation is a relaxed atomic op
//     on a pre-resolved reference (name lookup happens once, at
//     registration time, never on the hot path),
//   * safe from any thread — mutators never take a lock; only
//     registration and snapshot serialize on the registry mutex,
//   * compile-out — `-DTREELAB_OBS=OFF` defines TREELAB_NO_OBS and turns
//     every mutation into a no-op (and now_ns() stops reading the clock);
//     CI asserts the *enabled* build costs <= 2% batch QPS against this
//     baseline.
//
// Instances of ForestIndex / net::Server / net::Replicator come and go
// (tests build dozens); their per-instance counters are exposed through
// *callback* metrics — a named closure evaluated only at snapshot time,
// removed via RAII CallbackGuard when the owner dies. When several live
// instances register the same name, the latest registrant wins.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/thread_annotations.hpp"

namespace treelab::obs {

#if defined(TREELAB_NO_OBS)
inline constexpr bool kEnabled = false;
#else
inline constexpr bool kEnabled = true;
#endif

/// Steady-clock nanoseconds; 0 (and no clock read) when compiled out.
inline std::uint64_t now_ns() {
  if constexpr (!kEnabled) return 0;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Monotonic u64 counter. `add` is one relaxed fetch_add.
class Counter {
 public:
  void add(std::uint64_t d = 1) {
    if constexpr (kEnabled) v_.fetch_add(d, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-writer-wins u64 gauge (sizes, depths, lag).
class Gauge {
 public:
  void set(std::uint64_t v) {
    if constexpr (kEnabled) v_.store(v, std::memory_order_relaxed);
  }
  void add(std::uint64_t d = 1) {
    if constexpr (kEnabled) v_.fetch_add(d, std::memory_order_relaxed);
  }
  void sub(std::uint64_t d = 1) {
    if constexpr (kEnabled) v_.fetch_sub(d, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Fixed-bucket log-linear histogram for latencies (or any u64).
///
/// Layout: values 0..15 get exact buckets; every octave [2^k, 2^(k+1))
/// for k in [4, 43] is split into 4 equal sub-buckets (<= 25% relative
/// width); everything >= 2^44 (~4.9 hours in ns) lands in one overflow
/// bucket. 16 + 40*4 + 1 = 177 buckets, ~1.4 KiB of atomics per
/// histogram. record() is a handful of relaxed atomic ops and never
/// allocates or locks, so it is safe on the serving hot path.
class Histogram {
 public:
  static constexpr int kSubBits = 2;                 // 4 sub-buckets/octave
  static constexpr int kExactLimit = 16;             // 0..15 exact
  static constexpr int kMaxOctave = 44;              // >= 2^44 -> overflow
  static constexpr int kBucketCount =
      kExactLimit + (kMaxOctave - 4) * (1 << kSubBits) + 1;  // 177

  /// Bucket index for a value (total order, 0-based, dense).
  static int bucket_of(std::uint64_t v) {
    if (v < kExactLimit) return static_cast<int>(v);
    const int msb = 63 - std::countl_zero(v);
    if (msb >= kMaxOctave) return kBucketCount - 1;
    const int sub = static_cast<int>((v >> (msb - kSubBits)) & 3);
    return kExactLimit + (msb - 4) * (1 << kSubBits) + sub;
  }

  /// Smallest value that lands in bucket `b` (inverse of bucket_of).
  static std::uint64_t bucket_floor(int b) {
    if (b < kExactLimit) return static_cast<std::uint64_t>(b);
    if (b >= kBucketCount - 1) return std::uint64_t{1} << kMaxOctave;
    const int oct = 4 + (b - kExactLimit) / (1 << kSubBits);
    const int sub = (b - kExactLimit) % (1 << kSubBits);
    return (std::uint64_t{1} << oct) +
           static_cast<std::uint64_t>(sub) * (std::uint64_t{1} << (oct - 2));
  }

  void record(std::uint64_t v) {
    if constexpr (!kEnabled) {
      (void)v;
      return;
    }
    // Sum first, then the bucket with release: a snapshot that acquires
    // the bucket increment then also sees this value in sum_.
    sum_.fetch_add(v, std::memory_order_relaxed);
    buckets_[static_cast<std::size_t>(bucket_of(v))].fetch_add(
        1, std::memory_order_release);
    std::uint64_t prev = max_.load(std::memory_order_relaxed);
    while (v > prev &&
           !max_.compare_exchange_weak(prev, v, std::memory_order_relaxed)) {
    }
  }

  /// A point-in-time copy. Under concurrent writers the fields are not
  /// mutually consistent, but the sum covers every record the buckets
  /// count (and maybe a few more still in flight), so with values >= 1 the
  /// count never exceeds the sum.
  struct Snapshot {
    std::uint64_t sum = 0;
    std::uint64_t max = 0;
    std::array<std::uint64_t, kBucketCount> buckets{};

    std::uint64_t count() const {
      std::uint64_t c = 0;
      for (const std::uint64_t b : buckets) c += b;
      return c;
    }
    void merge(const Snapshot& o) {
      sum += o.sum;
      if (o.max > max) max = o.max;
      for (int i = 0; i < kBucketCount; ++i) buckets[i] += o.buckets[i];
    }
    /// Lower bound of the bucket holding the q-quantile (q in [0,1]);
    /// clamped to `max` so p99 of a single sample is that sample's bucket,
    /// never the overflow sentinel. 0 when empty.
    std::uint64_t percentile(double q) const;
  };
  Snapshot snapshot() const {
    // Buckets (acquire) before the sum: see record().
    Snapshot s;
    for (int i = 0; i < kBucketCount; ++i)
      s.buckets[i] = buckets_[i].load(std::memory_order_acquire);
    s.sum = sum_.load(std::memory_order_relaxed);
    s.max = max_.load(std::memory_order_relaxed);
    return s;
  }

 private:
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> max_{0};
  std::array<std::atomic<std::uint64_t>, kBucketCount> buckets_{};
};

/// One flattened metric line: histograms expand into `<name>_count`,
/// `_sum`, `_max`, `_p50`, `_p90`, `_p99`.
struct Sample {
  std::string name;
  std::uint64_t value = 0;
};

class Registry;

/// RAII handle for a callback metric; removes it on destruction (only if
/// this registration is still the live one — a later registrant under the
/// same name is left alone).
class CallbackGuard {
 public:
  CallbackGuard() = default;
  CallbackGuard(CallbackGuard&& o) noexcept { *this = std::move(o); }
  CallbackGuard& operator=(CallbackGuard&& o) noexcept;
  CallbackGuard(const CallbackGuard&) = delete;
  CallbackGuard& operator=(const CallbackGuard&) = delete;
  ~CallbackGuard() { release(); }
  void release();

 private:
  friend class Registry;
  Registry* reg_ = nullptr;
  std::string name_;
  std::uint64_t id_ = 0;
};

/// Named metric owner. `global()` is the process-wide leaky singleton the
/// serving stack registers into; tests may build private instances.
/// counter()/gauge()/histogram() return stable references (the registry
/// never deletes an owned metric), so callers resolve names once and keep
/// the reference for the life of the process.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// The process-wide registry. Pre-registers the util-layer callbacks
  /// (`util.thread_env_rejections`, `util.failpoint.trips`). Leaked on
  /// purpose: metric references must outlive every static destructor.
  static Registry& global();

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// Registers a callback metric evaluated at snapshot time. The guard
  /// removes it again; keep the guard alive as long as `fn`'s captures
  /// are. `fn` runs under the registry mutex: it must not call back into
  /// this registry (taking unrelated locks, e.g. ForestIndex shard
  /// mutexes, is fine).
  [[nodiscard]] CallbackGuard set_callback(std::string_view name,
                                           std::function<std::uint64_t()> fn);

  /// Every metric as flattened, name-sorted samples.
  std::vector<Sample> snapshot() const;

  /// Sorted `name value\n` lines (Prometheus-style text exposition).
  std::string render_text() const;

 private:
  friend class CallbackGuard;
  void remove_callback(std::string_view name, std::uint64_t id);

  struct CallbackEntry {
    std::uint64_t id = 0;
    std::function<std::uint64_t()> fn;
  };

  // mu_ serializes name resolution and callback (un)registration only; the
  // returned Counter/Gauge/Histogram objects are lock-free and accessed
  // outside it (which is why they live behind stable unique_ptrs).
  mutable util::Mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_
      TREELAB_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_
      TREELAB_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_
      TREELAB_GUARDED_BY(mu_);
  std::map<std::string, std::vector<CallbackEntry>, std::less<>> callbacks_
      TREELAB_GUARDED_BY(mu_);
  std::uint64_t next_callback_id_ TREELAB_GUARDED_BY(mu_) = 1;
};

/// Renders samples as sorted `name value\n` lines (helper shared by
/// render_text and the CLI's remote-stats printer).
std::string render_samples(const std::vector<Sample>& samples);

}  // namespace treelab::obs
