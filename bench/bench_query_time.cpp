// QT — the "constant query time" claims of Theorems 1.1/1.3 (word-RAM):
// wall-clock query latency per scheme as n grows, for both the raw-BitVec
// path (decode per call) and the attached parse-once/query-many fast path.
// Latency should stay flat (up to cache effects) — queries decode two
// O(polylog)-bit labels and do word operations; nothing scales with n.
//
// Besides the google-benchmark cases, the main() emits a machine-readable
// BENCH_query.json with raw-vs-attached queries/sec at n = 2^16 (plus the
// SpanningOracle batch case), so successive PRs can track the trajectory.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/alstrup_scheme.hpp"
#include "core/approx_scheme.hpp"
#include "core/fgnw_scheme.hpp"
#include "core/kdistance_scheme.hpp"
#include "core/peleg_scheme.hpp"
#include "core/spanning_oracle.hpp"
#include "tree/generators.hpp"
#include "tree/graph.hpp"

using namespace treelab;

namespace {

/// Tree seed for every case; --seed overrides (the JSON records it).
std::uint64_t g_seed = 123;

tree::Tree make_tree(std::int64_t n) {
  return tree::random_tree(static_cast<tree::NodeId>(n), g_seed);
}

/// A fixed cycle of random query pairs, shared by raw and attached loops so
/// both pay identical index-generation overhead.
std::vector<std::pair<tree::NodeId, tree::NodeId>> make_pairs(
    tree::NodeId n, std::size_t count = 4096) {
  std::mt19937_64 rng(7);
  std::uniform_int_distribution<tree::NodeId> pick(0, n - 1);
  std::vector<std::pair<tree::NodeId, tree::NodeId>> out(count);
  for (auto& p : out) p = {pick(rng), pick(rng)};
  return out;
}

template <typename Scheme>
void bench_exact(benchmark::State& state) {
  const tree::Tree t = make_tree(state.range(0));
  const Scheme s(t);
  const auto pairs = make_pairs(t.size());
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& [u, v] = pairs[i++ & 4095];
    benchmark::DoNotOptimize(Scheme::query(s.label(u), s.label(v)));
  }
}

template <typename Scheme>
void bench_exact_attached(benchmark::State& state) {
  const tree::Tree t = make_tree(state.range(0));
  const Scheme s(t);
  std::vector<typename Scheme::Attached> att;
  att.reserve(static_cast<std::size_t>(t.size()));
  for (tree::NodeId v = 0; v < t.size(); ++v)
    att.push_back(Scheme::attach(s.label(v)));
  const auto pairs = make_pairs(t.size());
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& [u, v] = pairs[i++ & 4095];
    benchmark::DoNotOptimize(Scheme::query(att[u], att[v]));
  }
}

void bench_kdist(benchmark::State& state) {
  const tree::Tree t = make_tree(state.range(0));
  const std::uint64_t k = static_cast<std::uint64_t>(state.range(1));
  const core::KDistanceScheme s(t, k);
  const auto pairs = make_pairs(t.size());
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& [u, v] = pairs[i++ & 4095];
    benchmark::DoNotOptimize(
        core::KDistanceScheme::query(k, s.label(u), s.label(v)));
  }
}

void bench_kdist_attached(benchmark::State& state) {
  const tree::Tree t = make_tree(state.range(0));
  const std::uint64_t k = static_cast<std::uint64_t>(state.range(1));
  const core::KDistanceScheme s(t, k);
  std::vector<core::KDistanceAttachedLabel> att;
  att.reserve(static_cast<std::size_t>(t.size()));
  for (tree::NodeId v = 0; v < t.size(); ++v)
    att.push_back(core::KDistanceScheme::attach(k, s.label(v)));
  const auto pairs = make_pairs(t.size());
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& [u, v] = pairs[i++ & 4095];
    benchmark::DoNotOptimize(core::KDistanceScheme::query(k, att[u], att[v]));
  }
}

void bench_approx(benchmark::State& state) {
  const tree::Tree t = make_tree(state.range(0));
  const double eps = 1.0 / static_cast<double>(state.range(1));
  const core::ApproxScheme s(t, eps);
  const auto pairs = make_pairs(t.size());
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& [u, v] = pairs[i++ & 4095];
    benchmark::DoNotOptimize(
        core::ApproxScheme::query(s.powers(), s.label(u), s.label(v)));
  }
}

void bench_approx_attached(benchmark::State& state) {
  const tree::Tree t = make_tree(state.range(0));
  const double eps = 1.0 / static_cast<double>(state.range(1));
  const core::ApproxScheme s(t, eps);
  std::vector<core::ApproxAttachedLabel> att;
  att.reserve(static_cast<std::size_t>(t.size()));
  for (tree::NodeId v = 0; v < t.size(); ++v)
    att.push_back(core::ApproxScheme::attach(s.label(v)));
  const auto pairs = make_pairs(t.size());
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& [u, v] = pairs[i++ & 4095];
    benchmark::DoNotOptimize(
        core::ApproxScheme::query(s.powers(), att[u], att[v]));
  }
}

void bench_oracle_raw(benchmark::State& state) {
  const tree::Graph g = tree::Graph::random_connected(
      static_cast<tree::NodeId>(state.range(0)),
      static_cast<tree::NodeId>(state.range(0)), 23);
  const core::SpanningOracle o(g, static_cast<int>(state.range(1)));
  const auto pairs = make_pairs(g.size());
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& [u, v] = pairs[i++ & 4095];
    benchmark::DoNotOptimize(core::SpanningOracle::query(o.state(u),
                                                         o.state(v)));
  }
}

void bench_oracle_attached(benchmark::State& state) {
  const tree::Graph g = tree::Graph::random_connected(
      static_cast<tree::NodeId>(state.range(0)),
      static_cast<tree::NodeId>(state.range(0)), 23);
  const core::SpanningOracle o(g, static_cast<int>(state.range(1)));
  const auto att = o.attach_all();
  const auto pairs = make_pairs(g.size());
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& [u, v] = pairs[i++ & 4095];
    benchmark::DoNotOptimize(core::SpanningOracle::query(att[u], att[v]));
  }
}

void bench_build_fgnw(benchmark::State& state) {
  const tree::Tree t = make_tree(state.range(0));
  for (auto _ : state) {
    const core::FgnwScheme s(t);
    benchmark::DoNotOptimize(s.stats().max_bits);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

// ---------------------------------------------------------------------------
// BENCH_query.json: raw vs attached queries/sec at n = 2^16
// ---------------------------------------------------------------------------

struct JsonCase {
  std::string name;
  double raw_qps = 0;
  double attached_qps = 0;
};

/// Measures one raw-vs-attached pair; `raw` and `att` answer a single
/// (u, v) query each, cycling through the shared pair array.
template <typename Pairs, typename RawFn, typename AttFn>
JsonCase json_case(std::string name, const Pairs& pairs, RawFn&& raw,
                   AttFn&& att) {
  const auto loop = [&pairs](auto query) {
    return [&pairs, query, i = std::size_t{0}](std::size_t m) mutable {
      std::uint64_t acc = 0;
      while (m--) {
        const auto& [u, v] = pairs[i++ & 4095];
        acc += query(u, v);
      }
      benchmark::DoNotOptimize(acc);
    };
  };
  JsonCase c{std::move(name), 0, 0};
  c.raw_qps = bench::measure_qps(loop(raw));
  c.attached_qps = bench::measure_qps(loop(att));
  return c;
}

template <typename Scheme>
JsonCase json_case_exact(const char* name, const tree::Tree& t,
                         const auto& pairs) {
  const Scheme s(t);
  std::vector<typename Scheme::Attached> att;
  att.reserve(static_cast<std::size_t>(t.size()));
  for (tree::NodeId v = 0; v < t.size(); ++v)
    att.push_back(Scheme::attach(s.label(v)));
  return json_case(
      name, pairs,
      [&](tree::NodeId u, tree::NodeId v) {
        return Scheme::query(s.label(u), s.label(v));
      },
      [&](tree::NodeId u, tree::NodeId v) {
        return Scheme::query(att[u], att[v]);
      });
}

void write_json_summary(const char* path, tree::NodeId kN) {
  const tree::Tree t = make_tree(kN);
  const auto pairs = make_pairs(kN);
  std::vector<JsonCase> cases;

  cases.push_back(json_case_exact<core::FgnwScheme>("fgnw", t, pairs));
  cases.push_back(json_case_exact<core::AlstrupScheme>("alstrup", t, pairs));
  cases.push_back(json_case_exact<core::PelegScheme>("peleg", t, pairs));

  {  // approx, eps = 1/8
    const double eps = 0.125;
    const core::ApproxScheme s(t, eps);
    std::vector<core::ApproxAttachedLabel> att;
    att.reserve(kN);
    for (tree::NodeId v = 0; v < kN; ++v)
      att.push_back(core::ApproxScheme::attach(s.label(v)));
    cases.push_back(json_case(
        "approx_eps8", pairs,
        [&](tree::NodeId u, tree::NodeId v) {
          return core::ApproxScheme::query(s.powers(), s.label(u), s.label(v));
        },
        [&](tree::NodeId u, tree::NodeId v) {
          return core::ApproxScheme::query(s.powers(), att[u], att[v]);
        }));
  }

  {  // k-distance, k = 4 (small-k machinery)
    const std::uint64_t k = 4;
    const core::KDistanceScheme s(t, k);
    std::vector<core::KDistanceAttachedLabel> att;
    att.reserve(kN);
    for (tree::NodeId v = 0; v < kN; ++v)
      att.push_back(core::KDistanceScheme::attach(k, s.label(v)));
    cases.push_back(json_case(
        "kdist_k4", pairs,
        [&](tree::NodeId u, tree::NodeId v) {
          return core::KDistanceScheme::query(k, s.label(u), s.label(v))
              .distance;
        },
        [&](tree::NodeId u, tree::NodeId v) {
          return core::KDistanceScheme::query(k, att[u], att[v]).distance;
        }));
  }

  {  // SpanningOracle batch case: a node answering a stream from its cache.
    // The graph is the n = 2^16 random tree itself (oracle exact regime).
    tree::Graph g(t.size());
    for (tree::NodeId v = 0; v < t.size(); ++v)
      if (t.parent(v) != tree::kNoNode) g.add_edge(v, t.parent(v));
    const core::SpanningOracle o(g, 2);
    const auto att = o.attach_all();
    JsonCase c{"oracle_batch", 0, 0};
    std::size_t i = 0;
    c.raw_qps = bench::measure_qps([&](std::size_t m) {
      std::uint64_t acc = 0;
      while (m--) {
        const auto& [u, v] = pairs[i++ & 4095];
        acc += core::SpanningOracle::query(o.state(u), o.state(v));
      }
      benchmark::DoNotOptimize(acc);
    });
    i = 0;
    c.attached_qps = bench::measure_qps([&](std::size_t m) {
      // query_many over a window of targets, cycling sources.
      const auto& [u, v] = pairs[i++ & 4095];
      (void)v;
      const std::size_t lo =
          (static_cast<std::size_t>(u) * 131) % (att.size() - m);
      const auto res = core::SpanningOracle::query_many(
          att[u], std::span(att).subspan(lo, m));
      benchmark::DoNotOptimize(res.data());
    });
    cases.push_back(c);
  }

  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"query_time\",\n  \"n\": %d,\n",
               static_cast<int>(kN));
  std::fprintf(f, "  \"seed\": %llu,\n",
               static_cast<unsigned long long>(g_seed));
  bench::json_provenance(f, 0);
  std::fprintf(f, "  \"tree\": \"random(seed=%llu)\",\n  \"results\": [\n",
               static_cast<unsigned long long>(g_seed));
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const JsonCase& c = cases[i];
    std::fprintf(f,
                 "    {\"case\": \"%s\", \"raw_qps\": %.0f, "
                 "\"attached_qps\": %.0f, \"speedup\": %.2f}%s\n",
                 c.name.c_str(), c.raw_qps, c.attached_qps,
                 c.attached_qps / c.raw_qps, i + 1 < cases.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s:\n", path);
  for (const JsonCase& c : cases)
    std::printf("  %-14s raw %12.0f q/s   attached %12.0f q/s   %5.2fx\n",
                c.name.c_str(), c.raw_qps, c.attached_qps,
                c.attached_qps / c.raw_qps);
}

}  // namespace

BENCHMARK(bench_exact<core::FgnwScheme>)
    ->Name("query/fgnw")
    ->Arg(1 << 10)
    ->Arg(1 << 14)
    ->Arg(1 << 18);
BENCHMARK(bench_exact<core::AlstrupScheme>)
    ->Name("query/alstrup")
    ->Arg(1 << 10)
    ->Arg(1 << 14)
    ->Arg(1 << 18);
BENCHMARK(bench_exact<core::PelegScheme>)
    ->Name("query/peleg")
    ->Arg(1 << 10)
    ->Arg(1 << 14)
    ->Arg(1 << 18);
BENCHMARK(bench_exact_attached<core::FgnwScheme>)
    ->Name("query/fgnw-attached")
    ->Arg(1 << 10)
    ->Arg(1 << 14)
    ->Arg(1 << 18);
BENCHMARK(bench_exact_attached<core::AlstrupScheme>)
    ->Name("query/alstrup-attached")
    ->Arg(1 << 10)
    ->Arg(1 << 14)
    ->Arg(1 << 18);
BENCHMARK(bench_exact_attached<core::PelegScheme>)
    ->Name("query/peleg-attached")
    ->Arg(1 << 10)
    ->Arg(1 << 14)
    ->Arg(1 << 18);
BENCHMARK(bench_kdist)
    ->Name("query/kdist")
    ->Args({1 << 14, 4})
    ->Args({1 << 14, 1 << 12})
    ->Args({1 << 18, 4});
BENCHMARK(bench_kdist_attached)
    ->Name("query/kdist-attached")
    ->Args({1 << 14, 4})
    ->Args({1 << 14, 1 << 12})
    ->Args({1 << 18, 4});
BENCHMARK(bench_approx)
    ->Name("query/approx")
    ->Args({1 << 14, 8})
    ->Args({1 << 18, 8});
BENCHMARK(bench_approx_attached)
    ->Name("query/approx-attached")
    ->Args({1 << 14, 8})
    ->Args({1 << 18, 8});
BENCHMARK(bench_oracle_raw)
    ->Name("query/oracle")
    ->Args({1 << 12, 4});
BENCHMARK(bench_oracle_attached)
    ->Name("query/oracle-attached")
    ->Args({1 << 12, 4});
BENCHMARK(bench_build_fgnw)
    ->Name("build/fgnw")
    ->Arg(1 << 12)
    ->Arg(1 << 16)
    ->Unit(benchmark::kMillisecond);

int main(int argc, char** argv) {
  // Our own flags (--n, --seed for the JSON sweep) are stripped before
  // google-benchmark sees the argument vector.
  tree::NodeId json_n = 1 << 16;
  std::vector<char*> args{argv[0]};
  bool filtered = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--n") == 0 && i + 1 < argc) {
      json_n = static_cast<tree::NodeId>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      g_seed = static_cast<std::uint64_t>(std::atoll(argv[++i]));
    } else {
      filtered |= std::strncmp(argv[i], "--benchmark_filter", 18) == 0;
      args.push_back(argv[i]);
    }
  }
  // The JSON trajectory sweep builds every scheme at n (default 2^16); skip
  // it when the user filtered down to specific micro-benchmarks.
  int args_n = static_cast<int>(args.size());
  benchmark::Initialize(&args_n, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_n, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!filtered) write_json_summary("BENCH_query.json", json_n);
  return 0;
}
