// perfbench_serve — the repository benchmark: distance queries through the
// real batch-RPC path (net::QueryClient -> 127.0.0.1 TCP -> net::Server ->
// ForestIndex::query_batch_checked -> reply decoded and checked) on one of
// three workloads (see forest.cpp for their shapes and why):
//
//   hot    10 trees x 2^14, five schemes, cache holds everything
//   cold    8 trees x 2^18, five schemes, cache ~1/10 of the working set
//   churn  the hot shape, all Alstrup, plus 20 edits/s applied as deltas
//
// Usage: perfbench_serve --workload hot|cold|churn --seed N --seconds S
//                        --trace 0|1 [--size full|smoke] [--dir DIR]
//
// --trace 0 measures the end-to-end metrics with nothing timed but whole
// batches. --trace 1 alternates windows of the TracedClient (per-stage
// client spans plus the server's obs histograms) with untraced windows, so
// the tracing overhead is measured in the same run, then times the core
// decode calls on labels sampled from the requests. Every reply of every
// run is checked against tree::NcaIndex distances computed up front. The
// last line of stdout is one JSON object: correct, attempted, failed and
// the metrics by name with their units.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bits/kernels.hpp"
#include "churn.hpp"
#include "core/label_store.hpp"
#include "forest.hpp"
#include "obs/metrics.hpp"
#include "serve/any_scheme.hpp"
#include "traced_client.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

volatile std::uint64_t benchmark_sink = 0;  // defeats dead-code elimination

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  bool smoke = false;
  std::string dir = "perfbench-data";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_serve: %s\nusage: perfbench_serve --workload "
               "hot|cold|churn --seed N --seconds S --trace 0|1 "
               "[--size full|smoke] [--dir DIR]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::atof(v.c_str());
      if (!(a.seconds > 0)) usage("--seconds must be positive");
    } else if (k == "--trace") {
      if (v != "0" && v != "1") usage("--trace must be 0 or 1");
      a.trace = v == "1";
    } else if (k == "--size") {
      if (v != "full" && v != "smoke") usage("--size must be full or smoke");
      a.smoke = v == "smoke";
    } else if (k == "--dir") {
      a.dir = v;
    } else {
      usage(("unknown flag " + k).c_str());
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  return a;
}

int nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0)
    return static_cast<int>(std::thread::hardware_concurrency());
  return CPU_COUNT(&set);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : (v[m - 1] + v[m]) / 2;
}

/// The highest percentile up to `q` with at least ten samples beyond it
/// (the last sample when there are fewer than eleven).
struct Tail {
  double value = 0;
  double pct = 0;
  std::size_t samples = 0;
};
Tail tail(std::vector<double> v, double q) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  std::size_t idx = static_cast<std::size_t>(std::ceil(q * n)) - 1;
  if (n >= 11) idx = std::min(idx, n - 11);
  t.value = v[idx];
  t.pct = 100.0 * static_cast<double>(idx + 1) / static_cast<double>(n);
  return t;
}

/// One metric as printed: name, value with all its digits, unit.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

std::string number(double x) {
  if (!std::isfinite(x)) x = 0;
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof(buf), x);
  return std::string(buf, r.ptr);
}

// --- the closed loop ---------------------------------------------------------

/// Answer bookkeeping shared by every measured window.
struct Checked {
  std::uint64_t attempted = 0;
  std::uint64_t verified = 0;
  std::uint64_t failed = 0;
  bool connection_lost = false;
};

class Loop {
 public:
  Loop(const Inputs& in, Stack& st) : in_(in), st_(st) {}

  /// Next batch of the stream (cycling).
  std::span<const tl::serve::Request> next() {
    const std::span<const tl::serve::Request> all(in_.stream);
    const std::size_t lo = at_;
    at_ = (at_ + kBatch) % all.size();
    last_lo_ = lo;
    return all.subspan(lo, kBatch);
  }

  /// Checks the reply to the batch next() last returned.
  void check(bool transport_ok, Checked& c) const {
    c.attempted += kBatch;
    if (!transport_ok) {
      c.failed += kBatch;
      return;
    }
    for (std::size_t i = 0; i < kBatch; ++i) {
      const tl::serve::Request& r = in_.stream[last_lo_ + i];
      if (answer_ok(in_.scheme[r.tree], in_.expect[last_lo_ + i], out_[i]))
        ++c.verified;
      else
        ++c.failed;
    }
  }

  /// Untraced batch through net::QueryClient; returns its round trip (ms).
  double untraced(Checked& c) {
    const auto reqs = next();
    const Clock::time_point t0 = Clock::now();
    const auto status = st_.client->query_batch(reqs, out_);
    const double ms = seconds_between(t0, Clock::now()) * 1e3;
    if (status == tl::net::QueryClient::BatchStatus::kError)
      c.connection_lost = true;
    check(status == tl::net::QueryClient::BatchStatus::kOk, c);
    return ms;
  }

  void traced(TracedClient& tc, ClientSpans& spans, Checked& c) {
    const auto reqs = next();
    const bool ok = tc.query_batch(reqs, out_, spans);
    if (!ok) c.connection_lost = true;
    check(ok, c);
  }

 private:
  const Inputs& in_;
  Stack& st_;
  std::size_t at_ = 0;
  std::size_t last_lo_ = 0;
  std::vector<tl::serve::QueryResult> out_;
};

struct Plain {
  Checked checked;
  std::vector<double> batch_ms;
  std::vector<double> window_qps;  ///< verified queries/s per 1 s window
};

/// The end-to-end run: back-to-back batches for `seconds`, split into
/// one-second windows whose verified rates give the qps median.
Plain run_plain(Loop& loop, double seconds) {
  Plain p;
  const int windows = std::max(1, static_cast<int>(std::lround(seconds)));
  const double window_s = seconds / windows;
  for (int w = 0; w < windows && !p.checked.connection_lost; ++w) {
    const std::uint64_t v0 = p.checked.verified;
    const Clock::time_point t0 = Clock::now();
    double dt = 0;
    do {
      p.batch_ms.push_back(loop.untraced(p.checked));
      dt = seconds_between(t0, Clock::now());
    } while (dt < window_s && !p.checked.connection_lost);
    p.window_qps.push_back(static_cast<double>(p.checked.verified - v0) / dt);
  }
  return p;
}

struct HistDelta {
  double sum_ns = 0;
  double count = 0;
  void add(const tl::obs::Histogram::Snapshot& a,
           const tl::obs::Histogram::Snapshot& b) {
    sum_ns += static_cast<double>(b.sum - a.sum);
    count += static_cast<double>(b.count() - a.count());
  }
  [[nodiscard]] double mean_us() const {
    return count > 0 ? sum_ns / count / 1e3 : 0;
  }
};

struct Traced {
  Checked checked;
  ClientSpans spans;
  HistDelta server_request;  ///< net.server.request_ns
  HistDelta serve_batch;     ///< serve.batch.latency_ns
  tl::serve::ForestIndex::CacheStats cache;  ///< deltas over traced windows
  double traced_s = 0, untraced_s = 0;
  std::uint64_t traced_q = 0, untraced_q = 0;
  std::vector<double> untraced_ms;  ///< round trips of untraced batches
};

/// The traced run: half-second windows alternate between the TracedClient
/// and the untraced net::QueryClient; server histograms and cache counters
/// are read at traced-window edges only.
Traced run_traced(Loop& loop, Stack& st, double seconds) {
  Traced r;
  TracedClient tc("127.0.0.1", st.server->port());
  if (!tc.connected()) {
    r.checked.connection_lost = true;
    return r;
  }
  tl::obs::Histogram& req_h =
      tl::obs::Registry::global().histogram("net.server.request_ns");
  tl::obs::Histogram& batch_h =
      tl::obs::Registry::global().histogram("serve.batch.latency_ns");
  constexpr double kWindow = 0.5;
  const int windows = std::max(2, static_cast<int>(std::lround(seconds / kWindow)));
  for (int w = 0; w < windows && !r.checked.connection_lost; ++w) {
    const bool traced = w % 2 == 0;
    const auto req0 = req_h.snapshot();
    const auto batch0 = batch_h.snapshot();
    const auto cache0 = st.index->cache_stats();
    const std::uint64_t v0 = r.checked.verified;
    const Clock::time_point t0 = Clock::now();
    double dt = 0;
    do {
      if (traced)
        loop.traced(tc, r.spans, r.checked);
      else
        r.untraced_ms.push_back(loop.untraced(r.checked));
      dt = seconds_between(t0, Clock::now());
    } while (dt < kWindow && !r.checked.connection_lost);
    const std::uint64_t q = r.checked.verified - v0;
    if (!traced) {
      r.untraced_s += dt;
      r.untraced_q += q;
      continue;
    }
    r.traced_s += dt;
    r.traced_q += q;
    r.server_request.add(req0, req_h.snapshot());
    r.serve_batch.add(batch0, batch_h.snapshot());
    const auto cache1 = st.index->cache_stats();
    r.cache.hits += cache1.hits - cache0.hits;
    r.cache.misses += cache1.misses - cache0.misses;
    r.cache.evictions += cache1.evictions - cache0.evictions;
  }
  return r;
}

// --- core decode timings -----------------------------------------------------

struct CoreTimes {
  double attach_ns = 0;
  double query_attached_ns = 0;
  double query_raw_ns = 0;
};

/// Times AnyScheme raw queries, attaches and attached queries on the label
/// pairs of (up to) the first 2048 stream requests that hit scheme `s`,
/// read from the saved label files; medians of five repetitions.
std::optional<CoreTimes> time_core(const Inputs& in, const Stack& st,
                                   Scheme s) {
  namespace core = tl::core;
  std::vector<std::optional<core::LabelStore::MappedLoaded>> files(
      in.trees.size());
  std::vector<tl::serve::AnyScheme> schemes(in.trees.size());
  std::vector<tl::serve::Request> sample;
  for (const tl::serve::Request& r : in.stream) {
    if (in.scheme[r.tree] != s) continue;
    if (!files[r.tree]) {
      files[r.tree] = core::LabelStore::open_mapped(st.files[r.tree]);
      schemes[r.tree] = tl::serve::AnyScheme::make(files[r.tree]->scheme,
                                                   files[r.tree]->params);
    }
    sample.push_back(r);
    if (sample.size() == 2048) break;
  }
  if (sample.empty()) return std::nullopt;
  const auto view = [&](tl::serve::TreeId t, tl::tree::NodeId v) {
    return files[t]->labels.view(static_cast<std::size_t>(v));
  };
  constexpr int kReps = 5;
  std::vector<double> raw, attach, attached;
  std::vector<tl::serve::AnyScheme::AttachedPtr> au(sample.size()),
      av(sample.size());
  for (int rep = 0; rep < kReps; ++rep) {
    Clock::time_point t0 = Clock::now();
    for (const tl::serve::Request& r : sample)
      benchmark_sink = benchmark_sink +
                       schemes[r.tree]
                           .query(view(r.tree, r.u), view(r.tree, r.v))
                           .value;
    raw.push_back(seconds_between(t0, Clock::now()) * 1e9 /
                  static_cast<double>(sample.size()));
    t0 = Clock::now();
    for (std::size_t i = 0; i < sample.size(); ++i) {
      au[i] = schemes[sample[i].tree].attach(view(sample[i].tree, sample[i].u));
      av[i] = schemes[sample[i].tree].attach(view(sample[i].tree, sample[i].v));
    }
    attach.push_back(seconds_between(t0, Clock::now()) * 1e9 /
                     static_cast<double>(2 * sample.size()));
    t0 = Clock::now();
    for (std::size_t i = 0; i < sample.size(); ++i)
      benchmark_sink = benchmark_sink +
                       schemes[sample[i].tree].query(*au[i], *av[i]).value;
    attached.push_back(seconds_between(t0, Clock::now()) * 1e9 /
                       static_cast<double>(sample.size()));
  }
  return CoreTimes{median(attach), median(attached), median(raw)};
}

// --- reporting ---------------------------------------------------------------

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics)
    std::printf("metric %-40s %s %s\n", m.name.c_str(),
                number(m.value).c_str(), m.unit.c_str());
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

double quarter_log2_sq(double n) {
  const double l = std::log2(n);
  return 0.25 * l * l;
}

int run(const Args& a) {
  const Workload w = workload(a.workload, a.smoke);
  const Inputs in = make_inputs(w, a.seed);

  std::unique_ptr<Stack> st;
  std::vector<double> setup_s, save_s, open_s;
  std::array<std::vector<double>, kSchemeCount> build_s;
  LabelSizes sizes;
  std::size_t prime_failures = 0;
  for (int i = 0; i < w.setups; ++i) {
    st.reset();  // tear the previous stack down before building the next
    SetupTimes t;
    st = set_up(w, in, a.dir, t, sizes);
    prime_failures += st->prime_failures;
    setup_s.push_back(t.total_s);
    save_s.push_back(t.save_s);
    open_s.push_back(t.open_s);
    for (std::size_t k = 0; k < kSchemeCount; ++k)
      if (t.built[k] > 0) build_s[k].push_back(t.build_s[k] / t.built[k]);
    std::printf("setup %d: %.3f s (build %.3f, save %.3f, open %.3f, "
                "prime %.3f)\n",
                i, t.total_s,
                t.build_s[0] + t.build_s[1] + t.build_s[2] + t.build_s[3] +
                    t.build_s[4],
                t.save_s, t.open_s, t.prime_s);
  }

  const tl::serve::ForestOptions opt = index_options(w);
  std::printf(
      "provenance {\"workload\": \"%s\", \"size\": \"%s\", \"seed\": %llu, "
      "\"trace\": %d, \"nproc\": %d, \"kernels\": \"%s\", "
      "\"build_type\": \"%s\", \"obs\": %s, \"shards\": %zu, "
      "\"threads\": %d, \"cache_bytes\": %zu, \"batch\": %zu, "
      "\"planned_fanout\": %d, \"trees\": %zu, \"n\": %d, "
      "\"edits_per_s\": %g, \"setups\": %d}\n",
      w.name.c_str(), a.smoke ? "smoke" : "full",
      static_cast<unsigned long long>(a.seed), a.trace ? 1 : 0, nproc(),
      tl::bits::kernels::level_name(), PERFBENCH_BUILD_TYPE,
      tl::obs::kEnabled ? "true" : "false", opt.shards, opt.threads,
      w.cache_bytes, kBatch, st->index->planned_fanout(kBatch), w.trees,
      static_cast<int>(w.n), w.edits_per_s, w.setups);

  // The paper's quantity: bits per node, per scheme, over this forest.
  const double q = quarter_log2_sq(static_cast<double>(w.n));
  std::printf("label sizes (n = %d, 1/4 log2^2 n = %.2f bits):\n",
              static_cast<int>(w.n), q);
  for (std::size_t k = 0; k < kSchemeCount; ++k) {
    if (sizes.labels[k] == 0) continue;
    std::printf("  %-8s mean %9.3f  max %5llu bits  (max / quarter log^2 n "
                "= %.3f)\n",
                kSchemeNames[k],
                static_cast<double>(sizes.bits[k]) /
                    static_cast<double>(sizes.labels[k]),
                static_cast<unsigned long long>(sizes.max_bits[k]),
                static_cast<double>(sizes.max_bits[k]) / q);
  }

  Loop loop(in, *st);
  std::optional<EditStream> edits;
  if (w.churn) edits.emplace(*st, w, a.seed, a.trace);
  const auto cache_before = st->index->cache_stats();
  Plain plain;
  Traced traced;
  if (a.trace)
    traced = run_traced(loop, *st, a.seconds);
  else
    plain = run_plain(loop, a.seconds);
  EditLog edit_log;
  std::size_t bad_trees = 0;
  std::uint64_t invalidated = 0;
  if (edits) {
    edit_log = edits->finish();
    edits.reset();
    invalidated = st->index->cache_stats().invalidated - cache_before.invalidated;
    bad_trees = mismatched_trees(*st);
    if (edit_log.failed > 0)
      std::printf("edit failed: %s\n", edit_log.first_error.c_str());
    std::printf("churn: %llu edits, %zu trees whose served labels differ "
                "from the relabeler's\n",
                static_cast<unsigned long long>(edit_log.attempted),
                bad_trees);
  }
  const Checked& checked = a.trace ? traced.checked : plain.checked;
  if (checked.connection_lost) std::printf("connection lost\n");

  const auto frac = [](double x, double of) { return of > 0 ? x / of : 0; };
  const Tail edit_tail = tail(edit_log.latency_ms, 0.99);
  std::printf("queries: %llu attempted, %llu verified, %llu failed "
              "(failed_frac %s); prime failures %zu\n",
              static_cast<unsigned long long>(checked.attempted),
              static_cast<unsigned long long>(checked.verified),
              static_cast<unsigned long long>(checked.failed),
              number(frac(static_cast<double>(checked.failed),
                          static_cast<double>(checked.attempted)))
                  .c_str(),
              prime_failures);
  if (w.churn)
    std::printf("edits: p50 %.3f ms, p%.1f %.3f ms over %zu samples\n",
                median(edit_log.latency_ms), edit_tail.pct, edit_tail.value,
                edit_tail.samples);

  std::vector<Metric> m;
  const double edits_done = static_cast<double>(edit_log.latency_ms.size());
  if (!a.trace) {
    // The tails are printed, not reported: on a shared host, stalls lasting
    // seconds put their run-to-run spread past any usable regression bound.
    const Tail p90 = tail(plain.batch_ms, 0.90);
    const Tail p99 = tail(plain.batch_ms, 0.99);
    std::printf("batch round trip: p50 %.4f ms, p%.2f %.4f ms, p%.2f %.4f ms "
                "over %zu batches\n",
                median(plain.batch_ms), p90.pct, p90.value, p99.pct, p99.value,
                p99.samples);
    m = {
        {"qps", median(plain.window_qps), "queries/s"},
        {"batch_p50_ms", median(plain.batch_ms), "ms"},
        {"verified_frac",
         frac(static_cast<double>(checked.verified),
              static_cast<double>(checked.attempted)),
         "ratio"},
        {"setup_s", median(setup_s), "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
        {"label_bits_mean",
         frac(static_cast<double>(sizes.total_bits()),
              static_cast<double>(sizes.total_labels())),
         "bits"},
        {"label_bits_max", static_cast<double>(sizes.longest()), "bits"},
    };
  } else {
    const ClientSpans& s = traced.spans;
    const double b = static_cast<double>(std::max<std::uint64_t>(s.batches, 1));
    const auto us = [b](std::uint64_t ns) {
      return static_cast<double>(ns) / b / 1e3;
    };
    const double rt = us(s.round_trip_ns);
    const double server = traced.server_request.mean_us();
    const double batch = traced.serve_batch.mean_us();
    const double wait = us(s.wait_ns);
    const double unaccounted = rt - (us(s.encode_ns) + us(s.send_ns) + wait +
                                     us(s.frame_read_ns) + us(s.decode_ns));
    const double gap = frac(std::fabs(unaccounted), rt);
    const double traced_qps = frac(static_cast<double>(traced.traced_q),
                                   traced.traced_s);
    const double untraced_qps = frac(static_cast<double>(traced.untraced_q),
                                     traced.untraced_s);
    const auto& c = traced.cache;
    m = {
        {"net.round_trip_us", rt, "us"},
        {"net.client.encode_us", us(s.encode_ns), "us"},
        {"net.client.send_us", us(s.send_ns), "us"},
        {"net.client.wait_us", wait, "us"},
        {"net.client.frame_read_us", us(s.frame_read_ns), "us"},
        {"net.client.decode_us", us(s.decode_ns), "us"},
        {"net.server.request_us", server, "us"},
        {"net.server.codec_us", server - batch, "us"},
        {"net.tcp_us", wait - server, "us"},
        {"net.unaccounted_us", unaccounted, "us"},
        {"net.ledger_gap_frac", gap, "ratio"},
        {"net.share_of_round_trip", frac(rt - batch, rt), "ratio"},
        {"net.bytes_per_query",
         frac(static_cast<double>(s.bytes), static_cast<double>(s.queries)),
         "bytes"},
        {"serve.batch_us", batch, "us"},
        {"serve.cache.hit_ratio",
         frac(static_cast<double>(c.hits),
              static_cast<double>(c.hits + c.misses)),
         "ratio"},
        {"serve.cache.hits", static_cast<double>(c.hits), "count"},
        {"serve.cache.misses", static_cast<double>(c.misses), "count"},
        {"serve.cache.evictions", static_cast<double>(c.evictions), "count"},
        {"serve.apply_delta_us",
         frac(static_cast<double>(edit_log.apply_delta_ns) / 1e3, edits_done),
         "us"},
        {"serve.cache.invalidated_per_edit",
         frac(static_cast<double>(invalidated), edits_done), "count"},
    };
    for (std::size_t k = 0; k < kSchemeCount; ++k) {
      const std::optional<CoreTimes> ct =
          time_core(in, *st, static_cast<Scheme>(k));
      const std::string sfx = std::string(".") + kSchemeNames[k];
      m.push_back({"core.attach_ns" + sfx, ct ? ct->attach_ns : 0, "ns"});
      m.push_back({"core.query_attached_ns" + sfx,
                   ct ? ct->query_attached_ns : 0, "ns"});
      m.push_back({"core.query_raw_ns" + sfx, ct ? ct->query_raw_ns : 0, "ns"});
    }
    for (std::size_t k = 0; k < kSchemeCount; ++k)
      m.push_back({std::string("core.build_s.") + kSchemeNames[k],
                   median(build_s[k]), "s"});
    m.push_back({"core.store_save_s", median(save_s), "s"});
    m.push_back({"core.store_open_s", median(open_s), "s"});
    m.push_back({"core.relabel_us",
                 frac(static_cast<double>(edit_log.relabel_ns) / 1e3,
                      edits_done),
                 "us"});
    m.push_back({"core.relabel.reemitted_per_edit",
                 frac(static_cast<double>(edit_log.reemitted), edits_done),
                 "count"});
    m.push_back({"core.relabel.fallbacks",
                 static_cast<double>(edit_log.fallbacks), "count"});
    m.push_back({"core.make_delta_us",
                 frac(static_cast<double>(edit_log.make_delta_ns) / 1e3,
                      edits_done),
                 "us"});
    m.push_back({"core.delta_bytes_per_edit",
                 frac(static_cast<double>(edit_log.delta_bytes), edits_done),
                 "bytes"});
    for (std::size_t k = 0; k < kSchemeCount; ++k) {
      m.push_back({std::string("core.label_bits_mean.") + kSchemeNames[k],
                   frac(static_cast<double>(sizes.bits[k]),
                        static_cast<double>(sizes.labels[k])),
                   "bits"});
      m.push_back({std::string("core.label_bits_max.") + kSchemeNames[k],
                   static_cast<double>(sizes.max_bits[k]), "bits"});
    }
    m.push_back({"core.fgnw_bits_per_quarter_log2n",
                 static_cast<double>(sizes.max_bits[0]) / q, "ratio"});
    m.push_back({"bits.kernels.level",
                 static_cast<double>(tl::bits::kernels::level()), "level"});
    m.push_back({"churn.edit_late_ms", median(edit_log.late_ms), "ms"});
    m.push_back({"churn.edit_p50_ms", median(edit_log.latency_ms), "ms"});
    m.push_back({"churn.edit_p99_ms", edit_tail.value, "ms"});
    const Tail p90 = tail(traced.untraced_ms, 0.90);
    const Tail p99 = tail(traced.untraced_ms, 0.99);
    m.push_back({"client.batch_p90_ms", p90.value, "ms"});
    m.push_back({"client.batch_p99_ms", p99.value, "ms"});
    m.push_back({"trace.qps_traced", traced_qps, "queries/s"});
    m.push_back({"trace.qps_untraced", untraced_qps, "queries/s"});
    m.push_back({"trace.qps_ratio", frac(traced_qps, untraced_qps), "ratio"});

    std::printf("stage ledger (mean per batch over %llu traced batches):\n",
                static_cast<unsigned long long>(s.batches));
    std::printf("  round trip %.1f us = encode %.1f + send %.1f + frame_read "
                "%.1f + decode %.1f + server %.1f (index %.1f, codec %.1f) + "
                "tcp %.1f + unaccounted %.1f\n",
                rt, us(s.encode_ns), us(s.send_ns), us(s.frame_read_ns),
                us(s.decode_ns), server, batch, server - batch, wait - server,
                unaccounted);
    std::printf("  %s: stages %s the round trip by %.1f%%\n",
                gap > 0.10 ? "LEDGER MISS" : "ledger ok",
                unaccounted >= 0 ? "fall short of" : "exceed", 100 * gap);
    std::printf("  tracing overhead: traced %.0f q/s vs untraced %.0f q/s "
                "(ratio %.4f)\n",
                traced_qps, untraced_qps, frac(traced_qps, untraced_qps));
    std::printf("untraced batch round trip: p%.2f %.4f ms, p%.2f %.4f ms over "
                "%zu batches\n",
                p90.pct, p90.value, p99.pct, p99.value, p99.samples);
  }

  const bool correct = checked.failed == 0 && !checked.connection_lost &&
                       checked.attempted > 0 && prime_failures == 0 &&
                       edit_log.failed == 0 && bad_trees == 0;
  st.reset();
  std::error_code ec;
  std::filesystem::remove_all(a.dir, ec);
  print_result(correct, checked.attempted + edit_log.attempted,
               checked.failed + edit_log.failed + bad_trees, m);
  return 0;
}

}  // namespace
}  // namespace perfbench

#if defined(__OPTIMIZE__) && defined(NDEBUG)
constexpr bool kOptimizedBuild = true;
#else
constexpr bool kOptimizedBuild = false;
#endif

int main(int argc, char** argv) {
  if (!kOptimizedBuild) {
    std::fprintf(stderr,
                 "perfbench_serve: refusing to report from a non-optimized "
                 "build (build type %s)\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }
  const perfbench::Args a = perfbench::parse(argc, argv);
  try {
    return perfbench::run(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_serve: %s\n", e.what());
    return 1;
  }
}
