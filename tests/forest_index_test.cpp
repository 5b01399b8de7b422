// Serving-layer coverage: a ForestIndex holding a heterogeneous forest
// (all five schemes, mapped files and in-memory arenas mixed) must answer
// exactly like the underlying schemes, for batches of one and of many, at
// any shard/thread count, under cache pressure; report bad ids per request
// with a typed status; and fail loudly on unknown scheme tags and
// cross-scheme attached labels.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <random>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/alstrup_scheme.hpp"
#include "core/approx_scheme.hpp"
#include "core/fgnw_scheme.hpp"
#include "core/incremental_relabeler.hpp"
#include "core/kdistance_scheme.hpp"
#include "core/label_store.hpp"
#include "core/peleg_scheme.hpp"
#include "obs/metrics.hpp"
#include "serve/forest_index.hpp"
#include "tree/generators.hpp"
#include "tree/nca_index.hpp"
#include "util/failpoint.hpp"

namespace {

using namespace treelab;
using serve::AnyScheme;
using serve::Dist;
using serve::ForestIndex;
using serve::ForestOptions;
using serve::QueryResult;
using serve::QueryStatus;
using serve::Request;
using serve::TreeId;
using tree::NodeId;
using tree::Tree;

constexpr NodeId kN = 220;
constexpr std::uint64_t kK = 8;
constexpr double kEps = 0.125;

// Per process: copies of this binary running at once must not rewrite
// each other's mapped files.
std::string temp_path(const char* name) {
  return testing::TempDir() + "treelab_forest_" + name + "_" +
         std::to_string(::getpid()) + ".lbl";
}

/// Builds the five-scheme test forest: one tree per scheme, trees 0..2
/// shipped as mappable files, 3..4 added from in-memory arenas. Returns the
/// per-tree ground-truth trees alongside (index == TreeId).
std::vector<Tree> build_forest(ForestIndex& index,
                               std::vector<std::string>& files) {
  std::vector<Tree> trees;
  for (NodeId i = 0; i < 5; ++i)
    trees.push_back(tree::random_tree(kN + 10 * i, 71 + i));

  const auto save_file = [&](const char* name, const char* scheme,
                             const bits::LabelArena& labels,
                             const char* params) {
    const std::string path = temp_path(name);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    core::LabelStore::save_mappable(out, scheme, labels, params);
    out.close();
    files.push_back(path);
    EXPECT_EQ(index.add_file(path), files.size() - 1);
  };
  save_file("fgnw", "fgnw", core::FgnwScheme(trees[0]).labels(), "");
  save_file("alstrup", "alstrup", core::AlstrupScheme(trees[1]).labels(), "");
  save_file("kdist", "kdist", core::KDistanceScheme(trees[2], kK).labels(),
            "k=8");

  const auto add_memory = [&](const char* scheme,
                              const bits::LabelArena& labels,
                              const char* params) {
    std::stringstream ss;
    core::LabelStore::save_mappable(ss, scheme, labels, params);
    return index.add(core::LabelStore::load_arena(ss));
  };
  EXPECT_EQ(add_memory("approx", core::ApproxScheme(trees[3], kEps).labels(),
                       "inv_eps=8"),
            3u);
  EXPECT_EQ(add_memory("peleg", core::PelegScheme(trees[4]).labels(), ""), 4u);
  return trees;
}

void expect_correct(const Tree& t, TreeId id, NodeId u, NodeId v, Dist got) {
  const tree::NcaIndex oracle(t);
  const std::uint64_t d = oracle.distance(u, v);
  switch (id) {
    case 2:  // kdistance: exact within k, refused beyond
      EXPECT_EQ(got.within, d <= kK) << "tree " << id;
      if (got.within) {
        EXPECT_EQ(got.value, d);
      }
      break;
    case 3:  // approx: (1+eps) band
      EXPECT_TRUE(got.within);
      EXPECT_GE(got.value, d);
      EXPECT_LE(static_cast<double>(got.value),
                (1.0 + kEps) * static_cast<double>(d) + 1e-9);
      break;
    default:  // exact schemes
      EXPECT_TRUE(got.within);
      EXPECT_EQ(got.value, d) << "tree " << id;
  }
}

void cleanup(const std::vector<std::string>& files) {
  for (const auto& f : files) std::remove(f.c_str());
}

/// The status query_batch() gives a batch of one.
QueryStatus status_of(const ForestIndex& index, const Request& r) {
  return index.query_batch({&r, 1})[0].status;
}

/// The answer to a batch of one that must answer.
Dist answer(const ForestIndex& index, const Request& r) {
  const QueryResult res = index.query_batch({&r, 1})[0];
  EXPECT_EQ(res.status, QueryStatus::kOk)
      << "tree " << r.tree << " u " << r.u << " v " << r.v;
  return res.dist;
}

/// The answers to a batch that must answer every request.
std::vector<Dist> answers(const ForestIndex& index,
                          std::span<const Request> reqs) {
  const std::vector<QueryResult> res = index.query_batch(reqs);
  std::vector<Dist> out;
  for (std::size_t i = 0; i < res.size(); ++i) {
    EXPECT_EQ(res[i].status, QueryStatus::kOk) << "req " << i;
    out.push_back(res[i].dist);
  }
  return out;
}

TEST(ForestIndex, ServesHeterogeneousForestExactly) {
  ForestOptions opt;
  opt.shards = 2;
  ForestIndex index(opt);
  std::vector<std::string> files;
  const std::vector<Tree> trees = build_forest(index, files);

  EXPECT_EQ(index.tree_count(), 5u);
  EXPECT_EQ(index.shard_count(), 2u);
  EXPECT_EQ(index.scheme(2).name(), "kdist");
  EXPECT_TRUE(index.mapped(0));  // file-backed, mappable container
  EXPECT_FALSE(index.mapped(3));  // in-memory add()

  std::mt19937_64 rng(9);
  for (TreeId id = 0; id < 5; ++id) {
    std::uniform_int_distribution<NodeId> pick(
        0, static_cast<NodeId>(index.label_count(id)) - 1);
    for (int it = 0; it < 40; ++it) {
      const NodeId u = pick(rng), v = pick(rng);
      expect_correct(trees[id], id, u, v, answer(index, {id, u, v}));
    }
  }
  cleanup(files);
}

TEST(ForestIndex, BatchMatchesSinglesAtEveryThreadAndShardCount) {
  std::vector<std::string> files;
  std::vector<Request> reqs;
  std::mt19937_64 rng(10);
  // Reference answers from a 1-shard, 1-thread index.
  ForestOptions ref_opt;
  ref_opt.shards = 1;
  ref_opt.threads = 1;
  ForestIndex ref(ref_opt);
  const std::vector<Tree> trees = build_forest(ref, files);
  for (int i = 0; i < 600; ++i) {
    const auto id = static_cast<TreeId>(rng() % 5);
    std::uniform_int_distribution<NodeId> pick(
        0, static_cast<NodeId>(ref.label_count(id)) - 1);
    reqs.push_back({id, pick(rng), pick(rng)});
  }
  const std::vector<Dist> want = answers(ref, reqs);
  for (std::size_t i = 0; i < reqs.size(); ++i)
    expect_correct(trees[reqs[i].tree], reqs[i].tree, reqs[i].u, reqs[i].v,
                   want[i]);

  for (const std::size_t shards : {2u, 4u, 7u}) {
    for (const int threads : {1, 3, 4}) {
      ForestOptions opt;
      opt.shards = shards;
      opt.threads = threads;
      ForestIndex index(opt);
      std::vector<std::string> files2;
      build_forest(index, files2);
      const std::vector<Dist> got = answers(index, reqs);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(got[i], want[i])
            << "shards=" << shards << " threads=" << threads << " req " << i;
      cleanup(files2);
    }
  }
  cleanup(files);
}

TEST(ForestIndex, CacheAttachesHotLabelsOnce) {
  ForestOptions opt;
  opt.shards = 1;
  opt.threads = 1;
  ForestIndex index(opt);
  std::vector<std::string> files;
  build_forest(index, files);

  std::vector<Request> reqs;
  for (NodeId u = 0; u < 50; ++u) reqs.push_back({0, u, NodeId{0}});
  (void)index.query_batch(reqs);
  const auto cold = index.cache_stats();
  // 50 distinct labels touched (u in [0, 50) plus v = 0, which u covers);
  // each attached exactly once, every v lookup a hit.
  EXPECT_EQ(cold.misses, 50u);
  EXPECT_EQ(cold.entries, 50u);
  EXPECT_EQ(cold.hits, 50u);
  EXPECT_GT(cold.bytes, 0u);
  EXPECT_EQ(cold.refused, 0u);  // below budget every miss is admitted

  (void)index.query_batch(reqs);
  const auto warm = index.cache_stats();
  EXPECT_EQ(warm.misses, cold.misses);  // fully served from cache
  EXPECT_GT(warm.hits, cold.hits);
  cleanup(files);
}

TEST(ForestIndex, TinyCacheEvictsButStaysCorrect) {
  ForestOptions opt;
  opt.shards = 1;
  opt.cache_bytes_per_shard = 1;  // full from the first insert
  ForestIndex index(opt);
  std::vector<std::string> files;
  const std::vector<Tree> trees = build_forest(index, files);

  std::mt19937_64 rng(11);
  std::vector<Request> reqs;
  for (int i = 0; i < 200; ++i) {
    const auto id = static_cast<TreeId>(rng() % 5);
    std::uniform_int_distribution<NodeId> pick(
        0, static_cast<NodeId>(index.label_count(id)) - 1);
    reqs.push_back({id, pick(rng), pick(rng)});
  }
  // The full cache refuses first misses, so the first pass answers mostly
  // from raw labels on all five schemes. The second pass repeats every
  // label: those misses are admitted, and each insert evicts the previous
  // entry.
  for (int pass = 0; pass < 2; ++pass) {
    const std::vector<Dist> got = answers(index, reqs);
    for (std::size_t i = 0; i < reqs.size(); ++i)
      expect_correct(trees[reqs[i].tree], reqs[i].tree, reqs[i].u, reqs[i].v,
                     got[i]);
    if (pass == 0) {
      EXPECT_GT(index.cache_stats().refused, 0u);
    }
  }
  const auto st = index.cache_stats();
  EXPECT_GT(st.evictions, 0u);
  EXPECT_LE(st.entries, 1u);
  cleanup(files);
}

TEST(ForestIndex, InsertThatEvictsTheOtherSideKeepsItsAttachmentAlive) {
  // One query in which v's admitted insert evicts u's resident attachment:
  // the cache holds one entry, u is that entry (so the oldest, the FIFO
  // victim) and hits, and v was refused once, so its next miss is
  // admitted. The query already holds u's attachment when v's insert
  // evicts it; an evicted attachment must stay allocated until the batch
  // loop ends (under ASan, freeing it at eviction fails this test).
  ForestOptions opt;
  opt.shards = 1;
  opt.threads = 1;
  opt.cache_bytes_per_shard = 1;
  ForestIndex index(opt);
  const Tree t = tree::random_tree(kN, 81);
  const TreeId id = index.add({"fgnw", "", core::FgnwScheme(t).labels()});
  const tree::NcaIndex oracle(t);
  const NodeId u = 5;
  const NodeId v = 150;

  EXPECT_EQ(answer(index, {id, u, u}).value, 0u);  // attaches u, then hits
  auto st = index.cache_stats();
  ASSERT_EQ(st.entries, 1u);
  ASSERT_EQ(st.hits, 1u);
  // v's first miss on a full cache is refused: answered raw.
  EXPECT_EQ(answer(index, {id, u, v}).value, oracle.distance(u, v));
  st = index.cache_stats();
  ASSERT_EQ(st.refused, 1u);
  ASSERT_EQ(st.evictions, 0u);
  // v's second miss is admitted, and its insert evicts u mid-query.
  EXPECT_EQ(answer(index, {id, u, v}).value, oracle.distance(u, v));
  st = index.cache_stats();
  EXPECT_EQ(st.hits, 3u);  // u in every query
  EXPECT_EQ(st.misses, 3u);
  EXPECT_EQ(st.evictions, 1u);
  EXPECT_EQ(st.entries, 1u);  // v alone
  // v hits now; u misses again and is refused (its doorkeeper bit is
  // unset), so the pair answers raw.
  EXPECT_EQ(answer(index, {id, v, u}).value, oracle.distance(u, v));
  EXPECT_EQ(index.cache_stats().refused, 2u);
}

TEST(ForestIndex, BatchValidatesNodeIdsInRequestOrder) {
  // Bad node ids deep in the batch must be reported deterministically, each
  // at its own request index, whichever shard chunk runs first, and must
  // not cost the good requests their answers.
  ForestOptions opt;
  opt.shards = 4;
  opt.threads = 4;
  ForestIndex index(opt);
  std::vector<std::string> files;
  const std::vector<Tree> trees = build_forest(index, files);
  std::vector<Request> reqs;
  for (NodeId u = 0; u < 20; ++u) reqs.push_back({0, u, NodeId{0}});
  reqs.push_back({1, NodeId{100000}, 0});  // request 20: past the end
  reqs.push_back({2, NodeId{-7}, 0});      // request 21: negative
  const std::vector<QueryResult> res = index.query_batch(reqs);
  ASSERT_EQ(res.size(), reqs.size());
  for (std::size_t i = 0; i < 20; ++i) {
    ASSERT_EQ(res[i].status, QueryStatus::kOk) << "req " << i;
    expect_correct(trees[0], 0, reqs[i].u, reqs[i].v, res[i].dist);
  }
  EXPECT_EQ(res[20].status, QueryStatus::kBadNode);
  EXPECT_EQ(res[21].status, QueryStatus::kBadNode);
  cleanup(files);
}

TEST(ForestIndex, ReorderingPreservesErrorOrder) {
  // The batch executes partitioned by shard, not in request order, and
  // rejects bad trees and bad nodes by different checks. Each status must
  // still land at its own REQUEST index, whichever check found it.
  ForestOptions opt;
  opt.shards = 4;
  opt.threads = 4;
  ForestIndex index(opt);
  std::vector<std::string> files;
  const std::vector<Tree> trees = build_forest(index, files);

  const auto expect_statuses = [&](const std::vector<Request>& reqs,
                                   const std::vector<QueryStatus>& want) {
    const std::vector<QueryResult> res = index.query_batch(reqs);
    ASSERT_EQ(res.size(), want.size());
    for (std::size_t i = 0; i < res.size(); ++i) {
      EXPECT_EQ(res[i].status, want[i]) << "req " << i;
      if (want[i] == QueryStatus::kOk)
        expect_correct(trees[reqs[i].tree], reqs[i].tree, reqs[i].u,
                       reqs[i].v, res[i].dist);
    }
  };
  // Bad node before bad tree.
  std::vector<Request> reqs{
      {4, 0, 1}, {3, NodeId{100000}, 0}, {2, 0, 1}, {99, 0, 0}};
  expect_statuses(reqs, {QueryStatus::kOk, QueryStatus::kBadNode,
                         QueryStatus::kOk, QueryStatus::kBadTree});
  // Bad tree before bad node.
  std::swap(reqs[1], reqs[3]);
  expect_statuses(reqs, {QueryStatus::kOk, QueryStatus::kBadTree,
                         QueryStatus::kOk, QueryStatus::kBadNode});
  cleanup(files);
}

TEST(ForestIndex, BatchTrafficSamplesQueryLatency) {
  // query_batch() is the only feed of `serve.query.latency_ns`: it records
  // every kLatencySampleEvery-th answered request.
  if constexpr (!obs::kEnabled) {
    GTEST_SKIP() << "metrics compiled out";
  }
  ForestOptions opt;
  opt.shards = 2;
  ForestIndex index(opt);
  std::vector<std::string> files;
  build_forest(index, files);

  auto& h = obs::Registry::global().histogram("serve.query.latency_ns");
  const std::uint64_t before = h.snapshot().count();
  std::vector<Request> reqs;
  for (int i = 0; i < 4 * static_cast<int>(ForestIndex::kLatencySampleEvery);
       ++i)
    reqs.push_back({static_cast<TreeId>(i % 5), 0, 1});
  (void)index.query_batch(reqs);
  const std::uint64_t after = h.snapshot().count();
  EXPECT_GE(after - before, reqs.size() / ForestIndex::kLatencySampleEvery);
  cleanup(files);
}

TEST(ForestIndex, UpdateSwapsLabelingAndInvalidatesCache) {
  ForestOptions opt;
  opt.shards = 1;
  ForestIndex index(opt);
  const Tree t0 = tree::random_tree(150, 91);

  core::IncrementalRelabeler relab(t0);
  const TreeId id = index.add(relab.to_loaded());
  EXPECT_EQ(index.update_epoch(id), 0u);

  // Warm the cache on the original labeling.
  for (NodeId u = 0; u < 40; ++u) (void)answer(index, {id, u, NodeId{0}});
  EXPECT_GT(index.cache_stats().entries, 0u);

  // Grow the tree, hot-swap the refreshed labels.
  for (int e = 0; e < 20; ++e)
    (void)relab.insert_leaf(static_cast<NodeId>(e % 150));
  EXPECT_EQ(index.update(id, relab.to_loaded()), 1u);
  EXPECT_EQ(index.update_epoch(id), 1u);
  EXPECT_EQ(index.label_count(id), 170u);
  const auto st = index.cache_stats();
  EXPECT_EQ(st.entries, 0u);  // the tree's attachments were dropped
  EXPECT_GT(st.invalidated, 0u);

  // Every query — including against the new nodes — answers exactly.
  const Tree now = relab.snapshot();
  const tree::NcaIndex oracle(now);
  for (NodeId u = 0; u < now.size(); u += 7)
    for (NodeId v = 0; v < now.size(); v += 11)
      EXPECT_EQ(answer(index, {id, u, v}).value, oracle.distance(u, v));

  EXPECT_THROW(
      (void)index.update(TreeId{99}, relab.to_loaded()),
      std::out_of_range);
}

TEST(ForestIndex, UpdateSwapsToAReloadedMappedFile) {
  ForestOptions opt;
  opt.shards = 2;
  ForestIndex index(opt);
  std::vector<std::string> files;
  const std::vector<Tree> trees = build_forest(index, files);

  // Replace tree 0 (fgnw) with an alstrup labeling of another tree, from a
  // fresh mappable file: scheme and size both change under the same id.
  const Tree t_new = tree::random_tree(90, 92);
  const std::string path = temp_path("update_v2");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    core::LabelStore::save_mappable(
        out, "alstrup", core::AlstrupScheme(t_new).labels(), "");
  }
  files.push_back(path);
  EXPECT_EQ(index.update(0, core::LabelStore::open_mapped(path)), 1u);
  EXPECT_EQ(index.scheme(0).name(), "alstrup");
  EXPECT_EQ(index.label_count(0), 90u);
  EXPECT_TRUE(index.mapped(0));
  const tree::NcaIndex oracle(t_new);
  for (NodeId u = 0; u < 90; u += 5)
    EXPECT_EQ(answer(index, {0, u, NodeId{3}}).value, oracle.distance(u, 3));
  // Other trees are untouched.
  EXPECT_EQ(index.update_epoch(1), 0u);
  expect_correct(trees[1], 1, 4, 9, answer(index, {1, 4, 9}));
  cleanup(files);
}

TEST(ForestIndex, UpdateIsSafeUnderConcurrentBatchQueries) {
  // The dynamic-forest serving loop: readers hammer query_batch while the
  // writer hot-swaps ever-growing labelings of the same tree. Leaf inserts
  // never change distances between existing nodes, so every answer must be
  // exact no matter which epoch served it. (The ASan+UBSan CI job runs this
  // test too — that is the memory-safety half of the claim.)
  ForestOptions opt;
  opt.shards = 2;
  opt.threads = 2;
  ForestIndex index(opt);
  const Tree t0 = tree::random_tree(200, 93);
  core::IncrementalRelabeler relab(t0);
  const TreeId id = index.add(relab.to_loaded());

  const tree::NcaIndex oracle(t0);
  std::vector<Request> reqs;
  std::vector<std::uint64_t> want;
  std::mt19937_64 rng(94);
  for (int i = 0; i < 256; ++i) {
    const auto u = static_cast<NodeId>(rng() % 200);
    const auto v = static_cast<NodeId>(rng() % 200);
    reqs.push_back({id, u, v});
    want.push_back(oracle.distance(u, v));
  }

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> batches{0};
  std::atomic<std::uint64_t> wrong{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r)
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        const std::vector<QueryResult> got = index.query_batch(reqs);
        for (std::size_t i = 0; i < got.size(); ++i)
          if (got[i].status != QueryStatus::kOk || !got[i].dist.within ||
              got[i].dist.value != want[i])
            wrong.fetch_add(1, std::memory_order_relaxed);
        batches.fetch_add(1, std::memory_order_relaxed);
      }
    });

  std::mt19937_64 wrng(95);
  for (int e = 0; e < 40; ++e) {
    (void)relab.insert_leaf(
        static_cast<NodeId>(wrng() % static_cast<std::uint64_t>(relab.size())));
    (void)index.update(id, relab.to_loaded());
  }
  // Let the readers overlap the final epoch too, then stop.
  while (batches.load(std::memory_order_relaxed) < 8) std::this_thread::yield();
  stop.store(true);
  for (auto& th : readers) th.join();

  EXPECT_EQ(wrong.load(), 0u);
  EXPECT_EQ(index.update_epoch(id), 40u);
  EXPECT_GT(batches.load(), 0u);
}

TEST(ForestIndex, ShrinkingUpdatesCannotFailAValidatedBatch) {
  // update() may shrink a tree's labeling. A batch validated against the
  // bigger labeling must then still answer every request — from its
  // snapshot, uncached — never fail from the parallel section. Readers
  // batch pairs that only exist in the big labeling while the writer flips
  // big <-> small. A batch sees one labeling per tree, so every request in
  // it gets the same status: all kBadNode when small was live at planning,
  // else all kOk with exact answers.
  const Tree t_small = tree::random_tree(120, 96);
  core::IncrementalRelabeler relab(t_small);
  std::mt19937_64 grow(97);
  for (int e = 0; e < 80; ++e)
    (void)relab.insert_leaf(
        static_cast<NodeId>(grow() % static_cast<std::uint64_t>(relab.size())));
  const core::LabelStore::LoadedArena big = relab.to_loaded();
  core::LabelStore::LoadedArena small;
  small.scheme = "alstrup";
  small.labels = core::AlstrupScheme(
                     t_small, {nca::CodeWeights::kStablePow2, 1})
                     .labels();

  ForestOptions opt;
  opt.shards = 1;
  opt.threads = 2;
  ForestIndex index(opt);
  const TreeId id = index.add(core::LabelStore::LoadedArena(big));

  const Tree t_big = relab.snapshot();
  const tree::NcaIndex oracle(t_big);
  std::vector<Request> reqs;
  std::vector<std::uint64_t> want;
  // Every request references a node only the big labeling has.
  for (int i = 0; i < 64; ++i) {
    const auto u = static_cast<NodeId>(120 + i % 80);
    const auto v = static_cast<NodeId>(i % 120);
    reqs.push_back({id, u, v});
    want.push_back(oracle.distance(u, v));
  }

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> served{0}, rejected{0}, wrong{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r)
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        const std::vector<QueryResult> got = index.query_batch(reqs);
        const QueryStatus st = got[0].status;
        if (st != QueryStatus::kOk && st != QueryStatus::kBadNode)
          wrong.fetch_add(1, std::memory_order_relaxed);
        for (std::size_t i = 0; i < got.size(); ++i)
          if (got[i].status != st ||
              (st == QueryStatus::kOk &&
               (!got[i].dist.within || got[i].dist.value != want[i])))
            wrong.fetch_add(1, std::memory_order_relaxed);
        (st == QueryStatus::kOk ? served : rejected)
            .fetch_add(1, std::memory_order_relaxed);
      }
    });

  for (int e = 0; e < 60; ++e) {
    (void)index.update(id, core::LabelStore::LoadedArena(small));
    (void)index.update(id, core::LabelStore::LoadedArena(big));
  }
  while (served.load(std::memory_order_relaxed) < 4) std::this_thread::yield();
  stop.store(true);
  for (auto& th : readers) th.join();

  EXPECT_EQ(wrong.load(), 0u);
  EXPECT_GT(served.load(), 0u);
}

TEST(ForestIndex, UpdatePinsOrSeedsTheChain) {
  ForestOptions opt;
  opt.shards = 1;
  ForestIndex index(opt);
  core::IncrementalRelabeler relab(tree::random_tree(120, 111));
  const TreeId id = index.add(relab.to_loaded());

  // A plain update seeds the chain from the arena's length directory.
  (void)relab.insert_leaf(NodeId{5});
  EXPECT_EQ(index.update(id, relab.to_loaded()), 1u);
  EXPECT_EQ(index.chain(id), core::LabelStore::lens_hash(relab.labels()));

  // A pinned update adopts the chain it is given, as a follower adopts a
  // leader's snapshot: here the chain a shipped delta advanced to.
  relab.rebase_delta();
  (void)relab.insert_leaf(NodeId{7});
  const core::LabelDelta shipped = relab.make_delta();
  relab.advance_delta(shipped);
  const std::uint64_t seeded = core::LabelStore::lens_hash(relab.labels());
  ASSERT_NE(shipped.new_chain, seeded);
  EXPECT_EQ(index.update(id, relab.to_loaded(), shipped.new_chain), 2u);
  EXPECT_EQ(index.chain(id), shipped.new_chain);

  // The next delta chains from the pinned value. The same edit chained
  // from lens_hash instead is refused as an integrity failure.
  (void)relab.insert_leaf(NodeId{9});
  const core::LabelDelta next = relab.make_delta();
  ASSERT_EQ(next.base_chain, shipped.new_chain);
  core::LabelDelta from_lens = next;
  from_lens.base_chain = seeded;
  from_lens.new_chain = core::LabelStore::chain_hash(seeded, from_lens);
  EXPECT_THROW((void)index.apply_delta(id, from_lens), std::runtime_error);
  EXPECT_EQ(index.cache_stats().integrity_failures, 1u);
  EXPECT_EQ(index.update_epoch(id), 2u);
  EXPECT_EQ(index.apply_delta(id, next), 3u);
  EXPECT_EQ(index.chain(id), next.new_chain);

  const Tree now = relab.snapshot();
  const tree::NcaIndex oracle(now);
  for (NodeId u = 0; u < now.size(); u += 9)
    EXPECT_EQ(answer(index, {id, u, NodeId{1}}).value, oracle.distance(u, 1));
}

TEST(ForestIndex, ConcurrentUpdatesEachBumpTheEpochOnce) {
  // Writer against writer: two threads publish whole labelings of one
  // tree, alternating its FGNW and Alstrup labelings, while a reader
  // batches. A publish swaps only over the entry its successor was built
  // against, so every update lands exactly once (the epoch counts them),
  // and every answer comes from one complete labeling of the same tree.
  ForestOptions opt;
  opt.shards = 2;
  opt.threads = 2;
  ForestIndex index(opt);
  const Tree t = tree::random_tree(180, 112);
  const tree::NcaIndex oracle(t);
  const auto loaded = [](const char* scheme, bits::LabelArena labels) {
    core::LabelStore::LoadedArena l;
    l.scheme = scheme;
    l.labels = std::move(labels);
    return l;
  };
  const core::LabelStore::LoadedArena fgnw =
      loaded("fgnw", core::FgnwScheme(t).labels());
  const core::LabelStore::LoadedArena alstrup =
      loaded("alstrup", core::AlstrupScheme(t).labels());
  const TreeId id = index.add(core::LabelStore::LoadedArena(fgnw));

  std::vector<Request> reqs;
  std::vector<std::uint64_t> want;
  std::mt19937_64 rng(113);
  for (int i = 0; i < 256; ++i) {
    const auto u = static_cast<NodeId>(rng() % 180);
    const auto v = static_cast<NodeId>(rng() % 180);
    reqs.push_back({id, u, v});
    want.push_back(oracle.distance(u, v));
  }

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> batches{0};
  std::atomic<std::uint64_t> wrong{0};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const std::vector<QueryResult> got = index.query_batch(reqs);
      for (std::size_t i = 0; i < got.size(); ++i)
        if (got[i].status != QueryStatus::kOk || !got[i].dist.within ||
            got[i].dist.value != want[i])
          wrong.fetch_add(1, std::memory_order_relaxed);
      batches.fetch_add(1, std::memory_order_relaxed);
    }
  });

  constexpr int kWriters = 2;
  constexpr int kPerWriter = 60;
  std::atomic<int> ready{0};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w)
    writers.emplace_back([&, w] {
      ready.fetch_add(1);
      while (ready.load() < kWriters) std::this_thread::yield();
      for (int i = 0; i < kPerWriter; ++i)
        (void)index.update(id, core::LabelStore::LoadedArena(
                                   (i + w) % 2 == 0 ? alstrup : fgnw));
    });
  for (auto& th : writers) th.join();
  while (batches.load(std::memory_order_relaxed) < 8) std::this_thread::yield();
  stop.store(true);
  reader.join();

  EXPECT_EQ(wrong.load(), 0u);
  EXPECT_EQ(index.update_epoch(id),
            static_cast<std::uint64_t>(kWriters * kPerWriter));
}

TEST(ForestIndex, ApplyDeltaInvalidatesOnlyDirtyAttachments) {
  // The selective-invalidation contract: after a delta swap, only cached
  // attachments whose labels actually changed (or whose ids died) are
  // dropped — clean hot labels survive, and cache_stats().invalidated
  // counts exactly the dropped ones.
  ForestOptions opt;
  opt.shards = 1;
  ForestIndex index(opt);
  const Tree t0 = tree::random_tree(200, 101);
  core::IncrementalRelabeler relab(t0);
  const TreeId id = index.add(relab.to_loaded());

  // Attach every label once.
  for (NodeId u = 0; u < 200; ++u) (void)answer(index, {id, u, NodeId{0}});
  const auto warm = index.cache_stats();
  ASSERT_EQ(warm.entries, 200u);
  ASSERT_EQ(warm.invalidated, 0u);

  // One leaf insert: a small dirty cone.
  (void)relab.insert_leaf(NodeId{150});
  const core::LabelDelta d = relab.make_delta();
  relab.advance_delta(d);
  ASSERT_LT(d.dirty.size(), 100u);  // the point of the incremental path
  std::size_t stale_cached = 0;     // dirty ids that were cached (ext < 200)
  for (const std::uint64_t x : d.dirty)
    if (x < 200) ++stale_cached;

  EXPECT_EQ(index.apply_delta(id, d), 1u);
  EXPECT_EQ(index.update_epoch(id), 1u);
  EXPECT_EQ(index.label_count(id), 201u);
  const auto after = index.cache_stats();
  EXPECT_EQ(after.invalidated, stale_cached);
  EXPECT_EQ(after.entries, 200u - stale_cached);  // clean entries survived

  // Everything still answers exactly, including the new node.
  const Tree now = relab.snapshot();
  const tree::NcaIndex oracle(now);
  for (NodeId u = 0; u < now.size(); u += 7)
    for (NodeId v = 0; v < now.size(); v += 13)
      EXPECT_EQ(answer(index, {id, u, v}).value, oracle.distance(u, v));
}

TEST(ForestIndex, ApplyDeltaShipsTombstonesAndRefusesDeadIds) {
  ForestOptions opt;
  opt.shards = 1;
  ForestIndex index(opt);
  const Tree t0 = tree::random_tree(150, 102);
  core::IncrementalRelabeler relab(t0);
  const TreeId id = index.add(relab.to_loaded());

  // Find and delete a leaf through the relabeler, ship the delta.
  NodeId victim = tree::kNoNode;
  for (NodeId v = 149; v > 0; --v) {
    try {
      relab.delete_leaf(v);
      victim = v;
      break;
    } catch (const std::exception&) {
    }
  }
  ASSERT_NE(victim, tree::kNoNode);
  std::stringstream ss;
  relab.ship_delta(ss);
  EXPECT_EQ(index.apply_delta(id, core::LabelStore::load_delta(ss)), 1u);

  // The dead id fails deterministically; live pairs still answer.
  EXPECT_EQ(status_of(index, {id, victim, NodeId{0}}), QueryStatus::kBadNode);
  const Tree now = relab.snapshot();
  const tree::NcaIndex oracle(now);
  const std::vector<NodeId> map = relab.dense_map();
  const auto want = [&](NodeId u, NodeId v) {
    return oracle.distance(map[static_cast<std::size_t>(u)],
                           map[static_cast<std::size_t>(v)]);
  };
  const std::vector<Request> batch{{id, 0, 1}, {id, victim, 2}};
  const std::vector<QueryResult> res = index.query_batch(batch);
  ASSERT_EQ(res.size(), 2u);
  EXPECT_EQ(res[0].status, QueryStatus::kOk);
  EXPECT_EQ(res[0].dist.value, want(0, 1));
  EXPECT_EQ(res[1].status, QueryStatus::kBadNode);
  for (NodeId u = 0; u < 140; u += 11) {
    if (map[static_cast<std::size_t>(u)] == tree::kNoNode) continue;
    EXPECT_EQ(answer(index, {id, u, NodeId{0}}).value, want(u, 0));
  }
}

TEST(ForestIndex, QueryByOldIdAfterCompactionIsNotFoundNotWrong) {
  // The id-stability regression: compact() renumbers internal label
  // indices; a client still holding pre-compaction ids must get a
  // deterministic NotFound for dropped ids and the SAME node's answer for
  // surviving ids — never the answer of whatever node now occupies the
  // slot. A compaction reaches a serving node as a delta's dropped runs,
  // which apply_delta composes into the external-id map.
  ForestOptions opt;
  opt.shards = 1;
  ForestIndex index(opt);
  const Tree t0 = tree::random_tree(180, 103);
  const tree::NcaIndex oracle0(t0);
  core::IncrementalRelabeler relab(t0);
  const TreeId id = index.add(relab.to_loaded());

  std::vector<NodeId> killed;
  std::mt19937_64 rng(104);
  while (killed.size() < 30) {
    const auto v = static_cast<NodeId>(1 + rng() % 179);
    try {
      relab.delete_leaf(v);
      killed.push_back(v);
    } catch (const std::exception&) {
    }
  }
  (void)relab.compact();
  std::stringstream ss;
  relab.ship_delta(ss);
  EXPECT_EQ(index.apply_delta(id, core::LabelStore::load_delta(ss)), 1u);
  EXPECT_EQ(index.label_count(id), 150u);  // compacted internally
  EXPECT_EQ(index.id_bound(id), 180u);     // external ids stay reserved

  // Dropped old ids: deterministic NotFound.
  for (const NodeId v : killed)
    EXPECT_EQ(status_of(index, {id, v, NodeId{0}}), QueryStatus::kBadNode)
        << "id " << v;
  // Surviving old ids: the answer the client always got. Deleting leaves
  // never changes distances between survivors, so the original oracle is
  // the ground truth under the original ids.
  std::vector<std::uint8_t> dead(180, 0);
  for (const NodeId v : killed) dead[static_cast<std::size_t>(v)] = 1;
  for (NodeId u = 0; u < 180; u += 7) {
    if (dead[static_cast<std::size_t>(u)]) continue;
    EXPECT_EQ(answer(index, {id, u, NodeId{0}}).value, oracle0.distance(u, 0))
        << "id " << u;
  }
}

TEST(ForestIndex, ApplyDeltaAppendsIdsPastTheSlotArray) {
  // A delta that compacts deleted ids away and appends labels: the
  // appended labels get external ids at the top of the id space, past the
  // slot array the tree's first attachments sized. They must attach on
  // their first miss, hit after, and answer exactly; surviving ids keep
  // answering for their nodes.
  ForestOptions opt;
  opt.shards = 1;
  opt.threads = 1;
  ForestIndex index(opt);
  constexpr NodeId kBase = 150;
  constexpr NodeId kKilled = 10;
  constexpr NodeId kGrown = 20;
  const Tree t0 = tree::random_tree(kBase, 109);
  core::IncrementalRelabeler relab(t0);
  const TreeId id = index.add(relab.to_loaded());
  for (NodeId u = 0; u < kBase; ++u) (void)answer(index, {id, u, u});
  ASSERT_EQ(index.cache_stats().entries, static_cast<std::size_t>(kBase));

  std::vector<NodeId> killed;
  std::mt19937_64 rng(110);
  while (killed.size() < static_cast<std::size_t>(kKilled)) {
    const auto v = static_cast<NodeId>(1 + rng() % (kBase - 1));
    try {
      relab.delete_leaf(v);
      killed.push_back(v);
    } catch (const std::exception&) {
    }
  }
  const std::vector<NodeId> compacted = relab.compact();  // old -> new id
  for (NodeId i = 0; i < kGrown; ++i)
    (void)relab.insert_leaf(static_cast<NodeId>(
        rng() % static_cast<std::uint64_t>(relab.size())));
  const core::LabelDelta d = relab.make_delta();
  relab.advance_delta(d);
  ASSERT_FALSE(d.dropped.empty());
  EXPECT_EQ(index.apply_delta(id, d), 1u);
  ASSERT_EQ(index.id_bound(id), static_cast<std::size_t>(kBase + kGrown));

  // External id -> node of the relabeler's (compacted, tombstone-free)
  // tree: survivors through the compaction map, appended ids in order.
  const Tree now = relab.snapshot();
  const tree::NcaIndex oracle(now);
  const auto node_of = [&](NodeId ext) {
    return ext < kBase ? compacted[static_cast<std::size_t>(ext)]
                       : ext - kBase + (kBase - kKilled);
  };
  std::vector<Request> grown;
  for (NodeId e = kBase; e < kBase + kGrown; ++e)
    grown.push_back({id, e, e + 1 < kBase + kGrown ? e + 1 : kBase});
  for (int pass = 0; pass < 2; ++pass) {
    const auto before = index.cache_stats();
    const std::vector<Dist> got = answers(index, grown);
    for (std::size_t i = 0; i < grown.size(); ++i)
      EXPECT_EQ(got[i].value,
                oracle.distance(node_of(grown[i].u), node_of(grown[i].v)))
          << "pass " << pass << " req " << i;
    const auto after = index.cache_stats();
    // First pass: each appended id misses once and attaches. Second pass:
    // every lookup hits.
    EXPECT_EQ(after.misses - before.misses,
              pass == 0 ? static_cast<std::size_t>(kGrown) : 0u);
    EXPECT_EQ(after.hits - before.hits,
              static_cast<std::size_t>(pass == 0 ? kGrown : 2 * kGrown));
    EXPECT_EQ(after.entries - before.entries,
              pass == 0 ? static_cast<std::size_t>(kGrown) : 0u);
  }
  for (const NodeId v : killed)
    EXPECT_EQ(status_of(index, {id, v, NodeId{0}}), QueryStatus::kBadNode);
  for (NodeId u = 0; u < kBase + kGrown; u += 3) {
    if (u < kBase && compacted[static_cast<std::size_t>(u)] == tree::kNoNode)
      continue;
    EXPECT_EQ(answer(index, {id, u, kBase + kGrown - 1}).value,
              oracle.distance(node_of(u), node_of(kBase + kGrown - 1)))
        << "id " << u;
  }
}

TEST(ForestIndex, ApplyDeltaRejectsMismatches) {
  ForestOptions opt;
  opt.shards = 1;
  ForestIndex index(opt);
  const Tree t0 = tree::random_tree(90, 105);
  core::IncrementalRelabeler relab(t0);
  const TreeId id = index.add(relab.to_loaded());
  (void)relab.insert_leaf(3);
  const core::LabelDelta d = relab.make_delta();

  // Wrong scheme tag.
  core::LabelDelta bad = d;
  bad.scheme = "fgnw";
  EXPECT_THROW((void)index.apply_delta(id, bad), std::invalid_argument);
  // Bad tree id.
  EXPECT_THROW((void)index.apply_delta(TreeId{9}, d), std::out_of_range);
  // Applying against the wrong epoch (apply twice): the second must refuse
  // (the live labeling no longer matches the delta's base hash).
  EXPECT_EQ(index.apply_delta(id, d), 1u);
  EXPECT_THROW((void)index.apply_delta(id, d), std::runtime_error);
  EXPECT_EQ(index.update_epoch(id), 1u);  // failed apply left epoch alone
}

TEST(ForestIndex, ApplyDeltaIsSafeUnderConcurrentBatchQueries) {
  // The delta-shipping serving loop: readers hammer query_batch over the
  // original nodes while the writer ships a delta per edit — inserts,
  // deletes of grown leaves, and periodic compactions. Original nodes
  // survive every epoch with stable external ids and stable distances, so
  // every admitted answer must be exact no matter which epoch served it.
  // (The ASan+UBSan CI job races this too.)
  ForestOptions opt;
  opt.shards = 2;
  opt.threads = 2;
  ForestIndex index(opt);
  const Tree t0 = tree::random_tree(160, 106);
  core::IncrementalRelabeler relab(t0);
  const TreeId id = index.add(relab.to_loaded());

  const tree::NcaIndex oracle(t0);
  std::vector<Request> reqs;
  std::vector<std::uint64_t> want;
  std::mt19937_64 rng(107);
  for (int i = 0; i < 192; ++i) {
    const auto u = static_cast<NodeId>(rng() % 160);
    const auto v = static_cast<NodeId>(rng() % 160);
    reqs.push_back({id, u, v});
    want.push_back(oracle.distance(u, v));
  }

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> batches{0};
  std::atomic<std::uint64_t> wrong{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r)
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        const std::vector<QueryResult> got = index.query_batch(reqs);
        for (std::size_t i = 0; i < got.size(); ++i)
          if (got[i].status != QueryStatus::kOk || !got[i].dist.within ||
              got[i].dist.value != want[i])
            wrong.fetch_add(1, std::memory_order_relaxed);
        batches.fetch_add(1, std::memory_order_relaxed);
      }
    });

  std::mt19937_64 wrng(108);
  std::vector<NodeId> grown;
  std::uint64_t epochs = 0;
  for (int e = 0; e < 48; ++e) {
    if (e % 5 == 4 && !grown.empty()) {
      try {
        relab.delete_leaf(grown.back());
        grown.pop_back();
      } catch (const std::exception&) {
      }
    } else {
      grown.push_back(relab.insert_leaf(
          static_cast<NodeId>(wrng() % 160)));
    }
    if (e % 12 == 11) {
      // compact() renumbers the relabeler's ids: the writer must remap its
      // own handles (readers are insulated by the index's external-id map).
      const std::vector<NodeId> map = relab.compact();
      for (NodeId& g : grown) g = map[static_cast<std::size_t>(g)];
    }
    const core::LabelDelta d = relab.make_delta();
    relab.advance_delta(d);
    epochs = index.apply_delta(id, d);
  }
  while (batches.load(std::memory_order_relaxed) < 8) std::this_thread::yield();
  stop.store(true);
  for (auto& th : readers) th.join();

  EXPECT_EQ(wrong.load(), 0u);
  EXPECT_EQ(epochs, 48u);
  EXPECT_EQ(index.update_epoch(id), 48u);
}

TEST(ForestIndex, BadIdsGetTypedStatuses) {
  ForestOptions opt;
  opt.shards = 2;
  ForestIndex index(opt);
  std::vector<std::string> files;
  const std::vector<Tree> trees = build_forest(index, files);
  EXPECT_EQ(status_of(index, {99, 0, 0}), QueryStatus::kBadTree);
  EXPECT_EQ(status_of(index, {0, 0, NodeId{100000}}), QueryStatus::kBadNode);
  EXPECT_EQ(status_of(index, {0, NodeId{-1}, 0}), QueryStatus::kBadNode);
  const std::vector<Request> batch{{0, 0, 1}, {99, 0, 0}};
  const std::vector<QueryResult> res = index.query_batch(batch);
  ASSERT_EQ(res.size(), 2u);
  EXPECT_EQ(res[0].status, QueryStatus::kOk);
  expect_correct(trees[0], 0, 0, 1, res[0].dist);
  EXPECT_EQ(res[1].status, QueryStatus::kBadTree);
  cleanup(files);
}

// --- graceful degradation -------------------------------------------------

namespace failpoint = util::failpoint;
using serve::TreeHealth;

TEST(ForestIndexDegradation, FailedApplyDeltaLeavesOldEpochServing) {
  core::IncrementalRelabeler r(tree::random_tree(60, 33));
  ForestIndex index;
  const TreeId id = index.add(r.to_loaded());
  const Dist before = answer(index, {id, 0, 1});
  for (int i = 0; i < 4; ++i) r.insert_leaf(1);
  const core::LabelDelta d = r.make_delta();
  r.advance_delta(d);
  // An allocation failure mid-apply must not publish anything.
  failpoint::arm("forest.apply_delta", util::FailMode::kAllocFail, 0, 1);
  EXPECT_THROW((void)index.apply_delta(id, d), std::bad_alloc);
  EXPECT_EQ(index.update_epoch(id), 0u);
  EXPECT_EQ(answer(index, {id, 0, 1}), before);
  EXPECT_EQ(index.health(id), TreeHealth::kLive);  // transient, no streak
  EXPECT_EQ(index.cache_stats().integrity_failures, 0u);
  // The retry applies cleanly.
  EXPECT_EQ(index.apply_delta(id, d), 1u);
  failpoint::disarm_all();
}

TEST(ForestIndexDegradation, CheckedBatchReportsBadIdsPerRequest) {
  ForestOptions opt;
  opt.shards = 2;
  ForestIndex index(opt);
  std::vector<std::string> files;
  const std::vector<Tree> trees = build_forest(index, files);
  const std::vector<Request> reqs{
      {0, 2, 7},          {99, 0, 0}, {1, 0, NodeId{100000}},
      {4, 5, 9},          {2, 1, 3},  {0, NodeId{-1}, 0},
  };
  const auto res = index.query_batch(reqs);
  ASSERT_EQ(res.size(), reqs.size());
  EXPECT_EQ(res[0].status, QueryStatus::kOk);
  EXPECT_EQ(res[1].status, QueryStatus::kBadTree);
  EXPECT_EQ(res[2].status, QueryStatus::kBadNode);
  EXPECT_EQ(res[3].status, QueryStatus::kOk);
  EXPECT_EQ(res[4].status, QueryStatus::kOk);
  EXPECT_EQ(res[5].status, QueryStatus::kBadNode);
  // Answered requests answer exactly like a batch of one.
  for (std::size_t i : {std::size_t{0}, std::size_t{3}, std::size_t{4}}) {
    expect_correct(trees[reqs[i].tree], reqs[i].tree, reqs[i].u, reqs[i].v,
                   res[i].dist);
    EXPECT_EQ(res[i].dist, answer(index, reqs[i]));
  }

  // A bad tree and a bad node inside a batch that interleaves every tree
  // cost only their own answers: every other request answers exactly as
  // query_batch answers the clean batch.
  std::mt19937_64 rng(12);
  std::vector<Request> mixed;
  for (int i = 0; i < 400; ++i) {
    const auto id = static_cast<TreeId>(i % 5);
    std::uniform_int_distribution<NodeId> pick(
        0, static_cast<NodeId>(index.label_count(id)) - 1);
    mixed.push_back({id, pick(rng), pick(rng)});
  }
  const std::vector<Dist> want = answers(index, mixed);
  mixed[3] = {99, 0, 0};
  mixed[7] = {1, NodeId{100000}, 0};
  const auto got = index.query_batch(mixed);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    const QueryStatus expect = i == 3   ? QueryStatus::kBadTree
                               : i == 7 ? QueryStatus::kBadNode
                                        : QueryStatus::kOk;
    EXPECT_EQ(got[i].status, expect) << "req " << i;
    if (expect == QueryStatus::kOk) {
      EXPECT_EQ(got[i].dist, want[i]) << "req " << i;
    }
  }
  cleanup(files);
}

TEST(AnyScheme, RejectsUnknownTagsAndBadParams) {
  EXPECT_THROW((void)AnyScheme::make("nope", ""), std::invalid_argument);
  EXPECT_THROW((void)AnyScheme::make("kdist", ""), std::invalid_argument);
  EXPECT_THROW((void)AnyScheme::make("kdist", "k=abc"),
               std::invalid_argument);
  EXPECT_THROW((void)AnyScheme::make("kdist", "k=0"), std::invalid_argument);
  EXPECT_THROW((void)AnyScheme::make("approx", ""), std::invalid_argument);
  EXPECT_THROW((void)AnyScheme::make("approx", "eps=0"),
               std::invalid_argument);
  EXPECT_THROW((void)AnyScheme::make("approx", "inv_eps=x"),
               std::invalid_argument);
  EXPECT_TRUE(static_cast<bool>(AnyScheme::make("kdistance", "k=4")));
  EXPECT_TRUE(static_cast<bool>(AnyScheme::make("approx", "eps=0.5")));
}

TEST(AnyScheme, CrossSchemeAttachedLabelsThrow) {
  const Tree t = tree::random_tree(80, 12);
  const core::FgnwScheme f(t);
  const core::AlstrupScheme a(t);
  const AnyScheme any_f = AnyScheme::make("fgnw", "");
  const AnyScheme any_a = AnyScheme::make("alstrup", "");
  const auto att_f = any_f.attach(f.label(3));
  const auto att_a = any_a.attach(a.label(3));
  EXPECT_THROW((void)any_f.query(*att_f, *att_a), std::invalid_argument);
  EXPECT_THROW((void)any_a.query(*att_f, *att_a), std::invalid_argument);
  // Matching kinds agree with the concrete scheme.
  const auto att_f2 = any_f.attach(f.label(40));
  EXPECT_EQ(any_f.query(*att_f, *att_f2).value,
            core::FgnwScheme::query(f.label(3), f.label(40)));
}

}  // namespace
