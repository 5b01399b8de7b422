// SERVE — throughput of the serving layer itself: a ForestIndex holding a
// heterogeneous forest (all five schemes), labels shipped through mappable
// LabelStore files and mmap'ed back, batch queries fanned out over shards.
//
// Sections:
//   * baseline — raw per-request queries (parse both labels every call),
//     the cost a node pays without any serving machinery,
//   * scaling — query_batch QPS as shards and threads grow together
//     (1, 2, 4, ...), the tentpole curve: per-shard caches mean no shared
//     state on the hot path, so batch throughput should track the fan-out
//     until the hardware runs out. Every batch row also records the thread
//     fan-out the index actually PLANNED for this batch size
//     (ForestIndex::planned_fanout) — on a small machine the plan clamps
//     to the hardware, which is the fix for the old 1-core regression
//     where 8 configured threads lost to 1,
//   * threads-under-fixed-shards — the fan-out knob alone,
//   * failpoints — the cost of the fault-injection hooks on the serving
//     path: a disarmed failpoint::check() is one relaxed atomic load, and
//     arming an *unrelated* site must not dent batch QPS beyond noise
//     (CI asserts the armed/off ratio from the JSON),
//   * loopback — the same batches through net::Server over 127.0.0.1
//     (frame encode + TCP + decode on both sides), and the overload path:
//     flooders that never read their replies fill the server's output
//     budget, and a probe measures how batches are shed with kOverloaded
//     while the server keeps answering once the pressure lifts.
//
// Emits BENCH_serve.json (same shape as BENCH_build/BENCH_query) with the
// configuration, per-row fan-out plans, the cache counters of the last
// run, and the overload-shedding observations.
//
// Usage: bench_serve [--n N] [--trees T] [--batch B] [--seed S]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>

#include "bench_util.hpp"
#include "obs/metrics.hpp"
#include "core/alstrup_scheme.hpp"
#include "core/approx_scheme.hpp"
#include "core/fgnw_scheme.hpp"
#include "core/kdistance_scheme.hpp"
#include "core/label_store.hpp"
#include "core/peleg_scheme.hpp"
#include "core/tree_scaffold.hpp"
#include "net/client.hpp"
#include "net/frame.hpp"
#include "net/net_io.hpp"
#include "net/server.hpp"
#include "serve/forest_index.hpp"
#include "tree/generators.hpp"
#include "util/failpoint.hpp"
#include "util/parallel.hpp"

using namespace treelab;
using bench::num;
using bench::row;

namespace {

volatile std::uint64_t benchmark_sink = 0;  // defeats dead-code elimination

std::int64_t flag(int argc, char** argv, const char* name,
                  std::int64_t fallback) {
  for (int i = 1; i + 1 < argc; ++i)
    if (std::strcmp(argv[i], name) == 0) return std::atoll(argv[i + 1]);
  return fallback;
}

struct Row {
  std::string name;
  double qps = 0;
  int fanout = 0;  ///< planned_fanout for batch rows; 0 = not applicable
};

}  // namespace

int main(int argc, char** argv) {
  const auto n = static_cast<tree::NodeId>(flag(argc, argv, "--n", 1 << 14));
  const auto n_trees =
      static_cast<std::size_t>(flag(argc, argv, "--trees", 10));
  const auto batch =
      static_cast<std::size_t>(flag(argc, argv, "--batch", 8192));
  const auto seed = static_cast<std::uint64_t>(flag(argc, argv, "--seed", 7));
  const int hw = static_cast<int>(std::thread::hardware_concurrency());

  std::printf("serve bench: n=%d trees=%zu batch=%zu seed=%llu (hw=%d)\n",
              static_cast<int>(n), n_trees, batch,
              static_cast<unsigned long long>(seed), hw);

  // Ship the forest: one mappable label file per tree, schemes cycling
  // through all five.
  const std::filesystem::path dir = "bench_serve_labels";
  std::filesystem::create_directories(dir);
  std::vector<std::string> files;
  for (std::size_t i = 0; i < n_trees; ++i) {
    const tree::Tree t = tree::random_tree(n, seed + i);
    const core::TreeScaffold sc(t, 0);
    const std::string path = (dir / ("tree" + std::to_string(i) + ".lbl"))
                                 .string();
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    switch (i % 5) {
      case 0:
        core::LabelStore::save_mappable(out, "fgnw",
                                        core::FgnwScheme(sc).labels());
        break;
      case 1:
        core::LabelStore::save_mappable(out, "alstrup",
                                        core::AlstrupScheme(sc).labels());
        break;
      case 2:
        core::LabelStore::save_mappable(out, "peleg",
                                        core::PelegScheme(sc).labels());
        break;
      case 3:
        core::LabelStore::save_mappable(
            out, "approx", core::ApproxScheme(sc, 0.125).labels(),
            "inv_eps=8");
        break;
      default:
        core::LabelStore::save_mappable(
            out, "kdist", core::KDistanceScheme(sc, 64).labels(), "k=64");
    }
    files.push_back(path);
  }
  std::printf("  shipped %zu label files to %s/\n", files.size(),
              dir.string().c_str());

  // One request pool shared by every configuration (identical work).
  std::mt19937_64 rng(seed);
  std::vector<serve::Request> pool(4 * batch);
  for (auto& r : pool) {
    r.tree = static_cast<serve::TreeId>(rng() % n_trees);
    r.u = static_cast<tree::NodeId>(rng() % static_cast<std::uint64_t>(n));
    r.v = static_cast<tree::NodeId>(rng() % static_cast<std::uint64_t>(n));
  }

  std::vector<Row> rows;
  serve::ForestIndex::CacheStats last_stats;
  int last_fanout = 0;
  const auto add = [&](std::string name, double qps, int fanout = 0) {
    rows.push_back({std::move(name), qps, fanout});
    if (fanout > 0)
      std::printf("  %-30s %14.0f q/s  (fanout %d)\n",
                  rows.back().name.c_str(), qps, fanout);
    else
      std::printf("  %-30s %14.0f q/s\n", rows.back().name.c_str(), qps);
  };

  // Baseline: raw per-request queries (parse both labels every call) over
  // the same mmap'ed arenas — what a node without the serving layer pays.
  {
    std::vector<core::LabelStore::MappedLoaded> loaded;
    std::vector<serve::AnyScheme> schemes;
    for (const auto& f : files) {
      loaded.push_back(core::LabelStore::open_mapped(f));
      schemes.push_back(
          serve::AnyScheme::make(loaded.back().scheme, loaded.back().params));
    }
    std::size_t at = 0;
    const double qps = bench::measure_qps([&](std::size_t m) {
      std::uint64_t acc = 0;
      while (m--) {
        const serve::Request& r = pool[at++ % pool.size()];
        acc += schemes[r.tree]
                   .query(loaded[r.tree].labels.view(
                              static_cast<std::size_t>(r.u)),
                          loaded[r.tree].labels.view(
                              static_cast<std::size_t>(r.v)))
                   .value;
      }
      benchmark_sink = benchmark_sink + acc;
    }, /*batch=*/4096, /*min_seconds=*/0.2, /*reps=*/3);
    add("raw_per_request", qps);
  }

  // Scaling: shards and threads grow together. The *total* cache budget is
  // held constant across configurations (split evenly over shards), so the
  // curve measures fan-out, not aggregate cache capacity. Every row builds
  // a FRESH index and runs the same fixed warm-up (two full passes over the
  // request pool) before measurement, so adjacent rows are comparable: no
  // row inherits another row's warmed caches, mapped pages, or branch
  // history, and none starts colder than its neighbor. (The published
  // armed-failpoint row once *beat* the disarmed one purely because it ran
  // second against a pre-warmed process.)
  constexpr std::size_t kTotalCacheBytes = std::size_t{64} << 20;
  const auto make_opt = [&](std::size_t shards, int threads) {
    serve::ForestOptions opt;
    opt.shards = shards;
    opt.threads = threads;
    opt.cache_bytes_per_shard = kTotalCacheBytes / shards;
    return opt;
  };
  // Loads the forest and runs the fixed warm-up (two full passes over the
  // request pool), so every measured index starts from the same warmed
  // caches / mapped pages / branch history regardless of row order.
  const auto prime = [&](serve::ForestIndex& index) {
    for (const auto& f : files) (void)index.add_file(f);
    for (int pass = 0; pass < 2; ++pass)
      for (std::size_t lo = 0; lo + batch <= pool.size(); lo += batch)
        benchmark_sink =
            benchmark_sink +
            index.query_batch(std::span(pool).subspan(lo, batch))[0].value;
  };
  // One measurement window over a primed index.
  const auto window_qps = [&](serve::ForestIndex& index) {
    std::size_t at = 0;
    return bench::measure_qps(
        [&](std::size_t m) {
          const std::size_t lo = (at++ * batch) % (pool.size() - m + 1);
          const auto res =
              index.query_batch(std::span(pool).subspan(lo, m));
          benchmark_sink = benchmark_sink + res[0].value;
        },
        batch);
  };
  // Window count per row / per pair side. This box's measured noise floor
  // is large (identical configs spread ~25-30% across back-to-back runs),
  // and the noise is one-sided slowdown: more best-of windows push both
  // sides of a comparison toward the true ceiling.
  constexpr int kReps = 5;
  const auto run_config = [&](std::size_t shards, int threads) {
    serve::ForestIndex index(make_opt(shards, threads));
    prime(index);
    double best = 0;
    for (int r = 0; r < kReps; ++r) best = std::max(best, window_qps(index));
    last_stats = index.cache_stats();
    last_fanout = index.planned_fanout(batch);
    return best;
  };
  for (std::size_t s = 1; s <= 8; s *= 2) {
    const double qps = run_config(s, static_cast<int>(s));
    add("batch_shards" + std::to_string(s) + "_t" + std::to_string(s), qps,
        last_fanout);
  }
  for (const int t : {1, 2}) {
    const double qps = run_config(4, t);
    add("batch_shards4_t" + std::to_string(t), qps, last_fanout);
  }

  // Failpoint overhead. First the microcost of one disarmed check (the
  // fast path every instrumented I/O call pays), then the macro pair: the
  // same serving config with no failpoint armed vs an unrelated site armed
  // (arming anything forces every check onto the registry-lookup slow
  // path — the worst case a production deployment with one armed knob
  // sees). The two QPS numbers must agree to within noise.
  {
    const double cps = bench::measure_qps(
        [&](std::size_t m) {
          std::uint64_t acc = 0;
          while (m--)
            acc += util::failpoint::check("bench.never").has_value() ? 1 : 0;
          benchmark_sink = benchmark_sink + acc;
        },
        1 << 16);
    add("failpoint_check_disarmed", cps);
    std::printf("  (%.2f ns per disarmed check)\n", 1e9 / cps);
  }
  // The off/armed pair shares ONE primed index (arming a failpoint is the
  // only difference between the sides, so identical cache state is exactly
  // right) and ALTERNATES disarmed/armed measurement windows: on a shared
  // host the background load drifts on minute timescales, so back-to-back
  // measurements hand whichever side runs second a different machine. The
  // published numbers once showed the armed row *beating* the disarmed one
  // — pure measurement-order bias: the armed row ran second against a
  // warmer, luckier process.
  {
    serve::ForestIndex index(make_opt(2, 2));
    prime(index);
    double off = 0, armed = 0;
    for (int r = 0; r < kReps; ++r) {
      // Alternate which side goes first: the second window of a pair runs
      // against a slightly warmer process, and a fixed order hands that
      // edge to the same side every rep.
      for (const bool measure_armed : {r % 2 != 0, r % 2 == 0}) {
        if (measure_armed) {
          util::failpoint::arm("bench.unrelated.site", util::FailMode::kError);
          armed = std::max(armed, window_qps(index));
        } else {
          util::failpoint::disarm_all();
          off = std::max(off, window_qps(index));
        }
      }
    }
    util::failpoint::disarm_all();
    add("failpoint_off_shards2_t2", off, index.planned_fanout(batch));
    add("failpoint_armed_shards2_t2", armed, index.planned_fanout(batch));
    last_stats = index.cache_stats();
  }

  // Loopback: the identical batches through the batch-RPC front end —
  // what a remote client pays on top of the in-process numbers above.
  std::size_t overload_probes = 0, overload_shed = 0, overload_ok = 0;
  std::uint64_t server_overloaded = 0, server_read_paused = 0;
  {
    serve::ForestOptions opt;
    opt.shards = 4;
    opt.threads = 4;
    opt.cache_bytes_per_shard = kTotalCacheBytes / 4;
    serve::ForestIndex index(opt);
    for (const auto& fpath : files) (void)index.add_file(fpath);

    net::ServerOptions sopt;
    net::Server server(index, sopt);
    server.start();
    {
      net::QueryClient client("127.0.0.1", server.port());
      if (!client.connected()) {
        std::fprintf(stderr, "loopback connect failed\n");
        return 1;
      }
      std::vector<serve::QueryResult> out;
      std::size_t at = 0;
      const double qps = bench::measure_qps(
          [&](std::size_t m) {
            const std::size_t lo = (at++ * batch) % (pool.size() - m + 1);
            if (client.query_batch(std::span(pool).subspan(lo, m), out) !=
                net::QueryClient::BatchStatus::kOk)
              std::abort();  // no faults armed: a non-kOk reply is a bug
            benchmark_sink = benchmark_sink + out[0].dist.value;
          },
          batch);
      add("loopback_batch_shards4_t4", qps, index.planned_fanout(batch));
    }
    server.stop();

    // Overload shedding: a deliberately small output budget, two flooder
    // connections that write batches but never read replies. Backpressure
    // stops the server reading from them; their queued replies hold the
    // global budget over the line, so a well-behaved probe sees explicit
    // kOverloaded sheds instead of unbounded queue growth.
    net::ServerOptions tight;
    tight.write_buffer_limit = 64 << 10;
    tight.max_buffered_bytes = 128 << 10;
    net::Server shedder(index, tight);
    shedder.start();
    std::atomic<bool> flood_stop{false};
    std::string flood_frame = net::encode_frame(
        net::MsgType::kQueryBatch,
        net::encode_query_batch(std::span(pool).subspan(0, batch)));
    const auto flooder = [&] {
      const int fd =
          net::connect_with_timeout("127.0.0.1", shedder.port(), 2'000);
      if (fd < 0) return;
      fcntl(fd, F_SETFL, fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
      std::size_t off = 0;  // partial sends must resume, not restart
      while (!flood_stop.load(std::memory_order_acquire)) {
        const ssize_t r = ::send(fd, flood_frame.data() + off,
                                 flood_frame.size() - off, MSG_NOSIGNAL);
        if (r > 0) {
          off += static_cast<std::size_t>(r);
          if (off == flood_frame.size()) off = 0;
        } else if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
          // Kernel buffer full: the server stopped reading (backpressure).
          pollfd p{fd, POLLOUT, 0};
          (void)::poll(&p, 1, 20);
        } else {
          break;
        }
      }
      ::close(fd);
    };
    std::thread f1(flooder), f2(flooder);
    // Let the flooders actually pressurize the server before probing: wait
    // until backpressure has engaged (or give up after a few seconds).
    for (int waited = 0;
         shedder.stats().read_paused == 0 && waited < 3'000; waited += 10)
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    {
      net::QueryClient probe("127.0.0.1", shedder.port());
      std::vector<serve::QueryResult> out;
      for (int i = 0; i < 200 && probe.connected(); ++i) {
        switch (probe.query_batch(std::span(pool).subspan(0, 64), out)) {
          case net::QueryClient::BatchStatus::kOk:
            ++overload_ok;
            break;
          case net::QueryClient::BatchStatus::kOverloaded:
            ++overload_shed;
            break;
          case net::QueryClient::BatchStatus::kError:
            break;
        }
        ++overload_probes;
      }
    }
    flood_stop.store(true, std::memory_order_release);
    f1.join();
    f2.join();
    const net::Server::Stats st = shedder.stats();
    server_overloaded = st.overloaded;
    server_read_paused = st.read_paused;
    shedder.stop();
    std::printf(
        "  overload probe: %zu batches -> %zu ok, %zu shed "
        "(server overloaded=%llu read_paused=%llu)\n",
        overload_probes, overload_ok, overload_shed,
        static_cast<unsigned long long>(server_overloaded),
        static_cast<unsigned long long>(server_read_paused));
  }

  const char* path = "BENCH_serve.json";
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"serve\",\n");
  std::fprintf(f, "  \"n\": %d,\n  \"trees\": %zu,\n  \"batch\": %zu,\n",
               static_cast<int>(n), n_trees, batch);
  std::fprintf(f, "  \"seed\": %llu,\n",
               static_cast<unsigned long long>(seed));
  int planned_fanout = 0;
  for (const auto& r : rows) planned_fanout = std::max(planned_fanout, r.fanout);
  bench::json_provenance(f, planned_fanout);
  std::fprintf(f, "  \"results\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i)
    std::fprintf(f, "    {\"case\": \"%s\", \"qps\": %.0f, \"fanout\": %d}%s\n",
                 rows[i].name.c_str(), rows[i].qps, rows[i].fanout,
                 i + 1 < rows.size() ? "," : "");
  std::fprintf(f, "  ],\n");
  std::fprintf(f,
               "  \"overload\": {\"probe_batches\": %zu, \"ok\": %zu, "
               "\"shed\": %zu, \"server_overloaded\": %llu, "
               "\"server_read_paused\": %llu},\n",
               overload_probes, overload_ok, overload_shed,
               static_cast<unsigned long long>(server_overloaded),
               static_cast<unsigned long long>(server_read_paused));
  std::fprintf(f,
               "  \"cache_last_run\": {\"hits\": %zu, \"misses\": %zu, "
               "\"evictions\": %zu, \"entries\": %zu, \"bytes\": %zu},\n",
               last_stats.hits, last_stats.misses, last_stats.evictions,
               last_stats.entries, last_stats.bytes);
  // Latency-histogram summaries from the obs registry, accumulated across
  // everything this process ran. All zeros under -DTREELAB_OBS=OFF.
  {
    const char* hist_names[] = {"serve.query.latency_ns",
                                "serve.batch.latency_ns",
                                "net.server.request_ns"};
    std::fprintf(f, "  \"metrics\": {\n");
    for (std::size_t i = 0; i < std::size(hist_names); ++i) {
      const obs::Histogram::Snapshot s =
          obs::Registry::global().histogram(hist_names[i]).snapshot();
      std::fprintf(f,
                   "    \"%s\": {\"count\": %llu, \"p50\": %llu, "
                   "\"p90\": %llu, \"p99\": %llu, \"max\": %llu}%s\n",
                   hist_names[i],
                   static_cast<unsigned long long>(s.count()),
                   static_cast<unsigned long long>(s.percentile(0.50)),
                   static_cast<unsigned long long>(s.percentile(0.90)),
                   static_cast<unsigned long long>(s.percentile(0.99)),
                   static_cast<unsigned long long>(s.max),
                   i + 1 < std::size(hist_names) ? "," : "");
    }
    std::fprintf(f, "  }\n");
  }
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", path);
  return 0;
}
