// APP — the introduction's application at scale: SpanningOracle (FGNW
// labels over landmark BFS trees) on random graphs of growing size and
// density. Reports per-node state, exactness rate and stretch, showing the
// practical trade-off a downstream user of the library faces; plus the
// serving regime: batch throughput of a node answering a query stream from
// its attached cache (query_many) vs re-decoding raw states per call.
// Emits BENCH_oracle.json (same shape as BENCH_build/BENCH_query).
//
// Usage: bench_oracle [--quick]   (--quick: CI-sized configs)
#include <algorithm>
#include <chrono>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/spanning_oracle.hpp"
#include "tree/graph.hpp"

using namespace treelab;
using bench::num;
using bench::row;
using core::SpanningOracle;
using tree::Graph;
using tree::NodeId;

namespace {
volatile std::uint64_t benchmark_sink = 0;  // defeats dead-code elimination

struct AccuracyRow {
  std::string name;
  int landmarks = 0;
  std::size_t bits_per_node = 0;
  double exact_pct = 0;
  double avg_stretch = 0;
};

struct ThroughputRow {
  std::string name;
  int landmarks = 0;
  double raw_qps = 0;
  double batch_qps = 0;
};
}  // namespace

int main(int argc, char** argv) {
  const bool quick =
      argc > 1 && std::any_of(argv + 1, argv + argc, [](const char* a) {
        return std::strcmp(a, "--quick") == 0;
      });

  std::vector<AccuracyRow> accuracy;
  std::vector<ThroughputRow> throughput;

  std::printf("== APP: spanning-tree distance oracle on general graphs ==\n");
  row({"graph", "landmarks", "bits/node", "exact%", "avg_stretch"});
  const std::vector<std::pair<NodeId, NodeId>> configs =
      quick ? std::vector<std::pair<NodeId, NodeId>>{{500, 500}}
            : std::vector<std::pair<NodeId, NodeId>>{
                  {1000, 1000}, {4000, 4000}, {4000, 16000}};
  const int samples = quick ? 30 : 120;
  for (const auto& [n, extra] : configs) {
    const Graph g = Graph::random_connected(n, extra, 23);
    std::mt19937_64 rng(5);
    std::uniform_int_distribution<NodeId> pick(0, n - 1);
    for (int landmarks : {1, 4, 16}) {
      const SpanningOracle o(g, landmarks);
      double sum_stretch = 0;
      int exact = 0, total = 0;
      for (int i = 0; i < samples; ++i) {
        const NodeId u = pick(rng);
        const auto du = g.bfs_distances(u);
        for (int j = 0; j < 4; ++j) {
          const NodeId v = pick(rng);
          if (u == v) continue;
          const auto est = SpanningOracle::query(o.state(u), o.state(v));
          sum_stretch +=
              static_cast<double>(est) / static_cast<double>(du[v]);
          exact += est == static_cast<std::uint64_t>(du[v]);
          ++total;
        }
      }
      const std::string name =
          "n=" + std::to_string(n) + ",m~" + std::to_string(n + extra);
      accuracy.push_back({name + ",l=" + std::to_string(landmarks), landmarks,
                          o.stats().max_bits, 100.0 * exact / total,
                          sum_stretch / total});
      row({name, num(landmarks), num(o.stats().max_bits),
           num(100.0 * exact / total, 1), num(sum_stretch / total, 3)});
    }
  }
  std::printf(
      "\nshape check: stretch decreases monotonically in the landmark "
      "budget; state grows linearly in it (one tree label per landmark).\n");

  std::printf("\n== APP: batch serving throughput (attach-once cache) ==\n");
  row({"graph", "landmarks", "raw_q/s", "batch_q/s", "speedup"});
  {
    // n must stay above the 2048-query batch the query_many side slices out
    // of the attached-state array.
    const NodeId n = quick ? 4096 : 8000;
    const Graph g = Graph::random_connected(n, n, 23);
    std::mt19937_64 rng(5);
    std::uniform_int_distribution<NodeId> pick(0, n - 1);
    for (int landmarks : {1, 4}) {
      const SpanningOracle o(g, landmarks);
      const auto att = o.attach_all();
      // Pre-generate the query stream so both sides pay identical
      // index-generation overhead (cf. make_pairs in bench_query_time).
      std::vector<std::pair<NodeId, NodeId>> pairs(4096);
      for (auto& p : pairs) p = {pick(rng), pick(rng)};
      const auto measure = [&](auto&& f) {
        return bench::measure_qps(f, /*batch=*/2048,
                                  /*min_seconds=*/quick ? 0.05 : 0.2);
      };
      std::size_t i = 0;
      const double raw = measure([&](std::size_t m) {
        std::uint64_t acc = 0;
        while (m--) {
          const auto& [u, v] = pairs[i++ & 4095];
          acc += SpanningOracle::query(o.state(u), o.state(v));
        }
        benchmark_sink = benchmark_sink + acc;
      });
      i = 0;
      const double batch = measure([&](std::size_t m) {
        const auto& [u, v] = pairs[i++ & 4095];
        const std::size_t lo =
            (static_cast<std::size_t>(u) + static_cast<std::size_t>(v)) %
            (att.size() - m);
        const auto res = SpanningOracle::query_many(
            att[u], std::span(att).subspan(lo, m));
        benchmark_sink = benchmark_sink + res[0];
      });
      const std::string name = "n=" + std::to_string(n) + ",m~" +
                               std::to_string(2 * n) + ",l=" +
                               std::to_string(landmarks);
      throughput.push_back({name, landmarks, raw, batch});
      row({"n=" + std::to_string(n) + ",m~" + std::to_string(2 * n),
           num(landmarks), num(raw, 0), num(batch, 0), num(batch / raw, 2)});
    }
  }

  const char* path = "BENCH_oracle.json";
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"oracle\",\n  \"quick\": %s,\n",
               quick ? "true" : "false");
  bench::json_provenance(f, 0);
  std::fprintf(f, "  \"accuracy\": [\n");
  for (std::size_t i = 0; i < accuracy.size(); ++i)
    std::fprintf(
        f,
        "    {\"case\": \"%s\", \"landmarks\": %d, \"bits_per_node\": %zu, "
        "\"exact_pct\": %.1f, \"avg_stretch\": %.3f}%s\n",
        accuracy[i].name.c_str(), accuracy[i].landmarks,
        accuracy[i].bits_per_node, accuracy[i].exact_pct,
        accuracy[i].avg_stretch, i + 1 < accuracy.size() ? "," : "");
  std::fprintf(f, "  ],\n  \"serving\": [\n");
  for (std::size_t i = 0; i < throughput.size(); ++i)
    std::fprintf(f,
                 "    {\"case\": \"%s\", \"landmarks\": %d, \"raw_qps\": "
                 "%.0f, \"batch_qps\": %.0f, \"speedup\": %.2f}%s\n",
                 throughput[i].name.c_str(), throughput[i].landmarks,
                 throughput[i].raw_qps, throughput[i].batch_qps,
                 throughput[i].batch_qps / throughput[i].raw_qps,
                 i + 1 < throughput.size() ? "," : "");
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", path);
  return 0;
}
