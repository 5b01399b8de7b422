#include "forest.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <random>
#include <span>
#include <stdexcept>

#include "core/alstrup_scheme.hpp"
#include "core/approx_scheme.hpp"
#include "core/fgnw_scheme.hpp"
#include "core/kdistance_scheme.hpp"
#include "core/label_store.hpp"
#include "core/peleg_scheme.hpp"
#include "core/tree_scaffold.hpp"
#include "tree/generators.hpp"
#include "tree/nca_index.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kForestSeed = 1315423911;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::string params_of(Scheme s) {
  switch (s) {
    case Scheme::kApprox:
      return "inv_eps=" + std::to_string(kApproxInvEps);
    case Scheme::kKdist:
      return "k=" + std::to_string(kKdistK);
    default:
      return {};
  }
}

/// TreeScaffold + the scheme's constructor, serial so build times do not
/// depend on what else the host runs.
tl::bits::LabelArena build_labels(const tl::tree::Tree& t, Scheme s) {
  const tl::core::TreeScaffold sc(t, /*threads=*/1);
  switch (s) {
    case Scheme::kFgnw:
      return tl::core::FgnwScheme(sc).labels();
    case Scheme::kAlstrup:
      return tl::core::AlstrupScheme(sc).labels();
    case Scheme::kPeleg:
      return tl::core::PelegScheme(sc).labels();
    case Scheme::kApprox:
      return tl::core::ApproxScheme(sc, 1.0 / kApproxInvEps).labels();
    case Scheme::kKdist:
      return tl::core::KDistanceScheme(sc, kKdistK).labels();
  }
  throw std::logic_error("unknown scheme");
}

void count_sizes(const tl::bits::LabelArena& a, Scheme s, LabelSizes& out) {
  const auto k = static_cast<std::size_t>(s);
  for (std::size_t i = 0; i < a.size(); ++i) {
    const std::uint64_t b = a.label_bits(i);
    out.bits[k] += b;
    out.max_bits[k] = std::max(out.max_bits[k], b);
  }
  out.labels[k] += a.size();
}

}  // namespace

Workload workload(const std::string& name, bool smoke) {
  Workload w;
  w.name = name;
  if (name == "hot") {
    // The cache budget holds every attached label (~0.7 KB each at most),
    // so after priming the hit ratio is 1 and the wire path's share shows.
    w.trees = smoke ? 5 : 10;
    w.n = smoke ? 2048 : 16384;
    w.cache_bytes = std::size_t{256} << 20;
    w.setups = smoke ? 2 : 5;
  } else if (name == "cold") {
    // ~1 GB of attached labels against a 96 MB budget: most queries attach
    // on miss and evict, so index time dominates the round trip.
    w.trees = smoke ? 5 : 8;
    w.n = smoke ? 8192 : 262144;
    w.cache_bytes = smoke ? std::size_t{512} << 10 : std::size_t{96} << 20;
    w.setups = smoke ? 2 : 3;
  } else if (name == "churn") {
    w.trees = smoke ? 5 : 10;
    w.n = smoke ? 2048 : 16384;
    w.churn = true;
    w.cache_bytes = std::size_t{256} << 20;
    // About 3% of edits fall back to a full relabel, which invalidates a
    // whole tree's attachments and stalls the next batches. At 50 edits/s
    // those stalls were about as many as the batches beyond p99, so p99
    // jumped between the two populations from seed to seed; at 20/s they
    // stay well under 1% of batches and p99 measures the ordinary edits.
    w.edits_per_s = 20;
    w.setups = smoke ? 2 : 5;
  } else {
    throw std::invalid_argument("unknown workload '" + name +
                                "' (expected hot, cold or churn)");
  }
  return w;
}

Inputs make_inputs(const Workload& w, std::uint64_t seed) {
  Inputs in;
  // The forest is the same for every seed: label sizes are then exact
  // constants of the workload, and how fragile its trees are under edits
  // (which differs a lot between random trees) does not vary run to run.
  for (std::size_t i = 0; i < w.trees; ++i) {
    in.trees.push_back(tl::tree::random_tree(w.n, splitmix(kForestSeed + i)));
    in.scheme.push_back(w.churn ? Scheme::kAlstrup
                                : static_cast<Scheme>(i % kSchemeCount));
  }
  const std::size_t nodes = w.trees * static_cast<std::size_t>(w.n);
  const std::size_t len = (nodes + kBatch - 1) / kBatch * kBatch;
  std::mt19937_64 rng(splitmix(seed ^ 0x5eedULL));
  in.stream.resize(len);
  for (tl::serve::Request& r : in.stream) {
    r.tree = static_cast<tl::serve::TreeId>(rng() % w.trees);
    r.u = static_cast<tl::tree::NodeId>(rng() % static_cast<std::uint64_t>(w.n));
    r.v = static_cast<tl::tree::NodeId>(rng() % static_cast<std::uint64_t>(w.n));
  }
  // One NcaIndex alive at a time: at n = 2^18 each costs ~40 MB.
  in.expect.resize(len);
  for (std::size_t t = 0; t < w.trees; ++t) {
    const tl::tree::NcaIndex oracle(in.trees[t]);
    for (std::size_t i = 0; i < len; ++i)
      if (in.stream[i].tree == t)
        in.expect[i] = static_cast<std::uint32_t>(
            oracle.distance(in.stream[i].u, in.stream[i].v));
  }
  return in;
}

bool answer_ok(Scheme s, std::uint64_t d, const tl::serve::QueryResult& r) {
  if (r.status != tl::serve::QueryStatus::kOk) return false;
  switch (s) {
    case Scheme::kKdist:
      if (d > kKdistK) return !r.dist.within;
      return r.dist.within && r.dist.value == d;
    case Scheme::kApprox:
      return r.dist.within && r.dist.value >= d &&
             r.dist.value * kApproxInvEps <= d * (kApproxInvEps + 1);
    default:
      return r.dist.within && r.dist.value == d;
  }
}

std::uint64_t LabelSizes::total_bits() const {
  std::uint64_t s = 0;
  for (const std::uint64_t b : bits) s += b;
  return s;
}

std::uint64_t LabelSizes::total_labels() const {
  std::uint64_t s = 0;
  for (const std::uint64_t l : labels) s += l;
  return s;
}

std::uint64_t LabelSizes::longest() const {
  return *std::max_element(max_bits.begin(), max_bits.end());
}

tl::serve::ForestOptions index_options(const Workload& w) {
  tl::serve::ForestOptions opt;
  opt.shards = kShards;
  opt.threads = kIndexThreads;
  opt.cache_bytes_per_shard = w.cache_bytes / kShards;
  return opt;
}

std::unique_ptr<Stack> set_up(const Workload& w, const Inputs& in,
                              const std::string& dir, SetupTimes& times,
                              LabelSizes& sizes) {
  times = {};
  sizes = {};
  const Clock::time_point t_setup = Clock::now();
  auto st = std::make_unique<Stack>();
  std::filesystem::create_directories(dir);
  for (std::size_t i = 0; i < w.trees; ++i) {
    const Scheme s = in.scheme[i];
    const auto k = static_cast<std::size_t>(s);
    Clock::time_point t0 = Clock::now();
    tl::bits::LabelArena built;
    if (w.churn) {
      tl::core::RelabelOptions ro;
      ro.threads = 1;
      st->relabelers.push_back(
          std::make_unique<tl::core::IncrementalRelabeler>(in.trees[i], ro));
    } else {
      built = build_labels(in.trees[i], s);
    }
    const tl::bits::LabelArena& labels =
        w.churn ? st->relabelers.back()->labels() : built;
    times.build_s[k] += since(t0);
    ++times.built[k];
    count_sizes(labels, s, sizes);

    t0 = Clock::now();
    const std::string path =
        (std::filesystem::path(dir) / ("tree" + std::to_string(i) + ".lbl"))
            .string();
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      tl::core::LabelStore::save_mappable(out, kSchemeNames[k], labels,
                                          params_of(s));
      if (!out) throw std::runtime_error("cannot write " + path);
    }
    times.save_s += since(t0);
    st->files.push_back(path);
  }

  Clock::time_point t0 = Clock::now();
  st->index = std::make_unique<tl::serve::ForestIndex>(index_options(w));
  for (const std::string& f : st->files) (void)st->index->add_file(f);
  times.open_s = since(t0);

  t0 = Clock::now();
  st->server = std::make_unique<tl::net::Server>(*st->index);
  st->server->start();
  st->client = std::make_unique<tl::net::QueryClient>("127.0.0.1",
                                                      st->server->port());
  if (!st->client->connected())
    throw std::runtime_error("loopback connect failed");
  std::vector<tl::serve::QueryResult> out;
  const std::span<const tl::serve::Request> stream(in.stream);
  for (std::size_t lo = 0; lo < stream.size(); lo += kBatch) {
    if (st->client->query_batch(stream.subspan(lo, kBatch), out) !=
        tl::net::QueryClient::BatchStatus::kOk)
      throw std::runtime_error("priming batch failed");
    for (const tl::serve::QueryResult& r : out)
      st->prime_failures += r.status == tl::serve::QueryStatus::kOk ? 0 : 1;
    if (st->index->cache_stats().evictions > 0) break;
  }
  times.prime_s = since(t0);
  times.total_s = since(t_setup);
  return st;
}

}  // namespace perfbench
