// Dynamic-forest coverage: IncrementalRelabeler must hold one invariant
// above all — after any sequence of leaf inserts, its spliced arena is
// bit-identical to AlstrupScheme built from scratch on the edited tree with
// the same (kStablePow2) weight policy. This is asserted label by label
// across randomized edit sequences over every tree shape, the same way
// parallel_build_test asserts thread-count parity. Plus: the stable weight
// policy itself answers distance queries exactly, fallbacks are counted and
// produce the same bits, and the serving hand-off (to_loaded) round-trips.
#include <gtest/gtest.h>

#include <chrono>
#include <random>
#include <vector>

#include "core/alstrup_scheme.hpp"
#include "core/incremental_relabeler.hpp"
#include "nca/nca_labeling.hpp"
#include "tree/generators.hpp"
#include "tree/nca_index.hpp"

namespace {

using namespace treelab;
using core::AlstrupOptions;
using core::AlstrupScheme;
using core::IncrementalRelabeler;
using core::RelabelOptions;
using core::RelabelOutcome;
using tree::NodeId;
using tree::Tree;

constexpr AlstrupOptions kStable{nca::CodeWeights::kStablePow2, 1};

void expect_arena_equal(const bits::LabelArena& got,
                        const bits::LabelArena& want, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got.label_bits(i), want.label_bits(i)) << what << " label " << i;
    ASSERT_TRUE(got.view(i) == want.view(i)) << what << " label " << i;
  }
}

TEST(StableWeights, AlstrupAnswersExactlyUnderThePow2Policy) {
  // The policy changes code weights, not query semantics: codes stay
  // prefix-free and order-preserving, so distances are still exact.
  for (const std::uint64_t seed : {3u, 4u}) {
    const Tree t = tree::random_tree(240, seed);
    const AlstrupScheme s(t, kStable);
    const tree::NcaIndex oracle(t);
    for (NodeId u = 0; u < t.size(); u += 7)
      for (NodeId v = 0; v < t.size(); v += 5)
        ASSERT_EQ(AlstrupScheme::query(s.label(u), s.label(v)),
                  oracle.distance(u, v))
            << "seed " << seed << " u=" << u << " v=" << v;
  }
}

TEST(StableWeights, PolicyIsDeterministicAcrossThreadCounts) {
  const Tree t = tree::random_tree(300, 9);
  const AlstrupScheme s1(t, {nca::CodeWeights::kStablePow2, 1});
  const AlstrupScheme s4(t, {nca::CodeWeights::kStablePow2, 4});
  expect_arena_equal(s4.labels(), s1.labels(), "threads");
}

/// The core parity loop: apply `edits` random leaf inserts to `base`,
/// checking after every edit that the incremental arena matches a
/// from-scratch rebuild bit for bit.
void run_parity(const Tree& base, int edits, std::uint64_t seed,
                RelabelOptions opt, const char* what) {
  IncrementalRelabeler r(base, opt);
  expect_arena_equal(r.labels(), AlstrupScheme(base, kStable).labels(), what);
  std::mt19937_64 rng(seed);
  for (int e = 0; e < edits; ++e) {
    const auto parent =
        static_cast<NodeId>(rng() % static_cast<std::uint64_t>(r.size()));
    const auto weight = static_cast<std::uint32_t>(1 + rng() % 3);
    (void)r.insert_leaf(parent, weight);
    const Tree now = r.snapshot();
    const AlstrupScheme fresh(now, kStable);
    expect_arena_equal(r.labels(), fresh.labels(), what);
    if (testing::Test::HasFatalFailure()) {
      ADD_FAILURE() << what << ": mismatch after edit " << e;
      return;
    }
    // Bits matching is the contract; the internal decomposition matching a
    // fresh one is the invariant that keeps it true on the NEXT edit.
    try {
      r.check_state();
    } catch (const std::logic_error& err) {
      ADD_FAILURE() << what << " after edit " << e << ": " << err.what();
      return;
    }
  }
  EXPECT_EQ(r.stats().edits, static_cast<std::uint64_t>(edits));
  EXPECT_EQ(r.stats().edits,
            r.stats().incremental + r.stats().restructured +
                r.stats().full_heavy_flip + r.stats().full_dirty_cone);
}

TEST(IncrementalRelabel, BitIdenticalAcrossRandomEditSequences) {
  run_parity(tree::random_tree(400, 21), 60, 101, {}, "random");
  run_parity(tree::random_binary_tree(300, 22), 60, 102, {}, "random-binary");
}

TEST(IncrementalRelabel, BitIdenticalOnExtremeShapes) {
  run_parity(tree::path(150), 40, 103, {}, "path");
  run_parity(tree::star(150), 40, 104, {}, "star");
  run_parity(tree::caterpillar(40, 6), 40, 105, {}, "caterpillar");
  run_parity(tree::balanced(2, 7), 40, 106, {}, "balanced-binary");
  run_parity(tree::spider(8, 20), 40, 107, {}, "spider");
}

TEST(IncrementalRelabel, TinyTreesGrowCorrectlyFromOneNode) {
  // n = 1 upward: every structural edge case (first child, first light
  // child, path extension at the root) appears in the first few inserts.
  run_parity(Tree(std::vector<NodeId>{tree::kNoNode}), 40, 108, {}, "tiny");
}

TEST(IncrementalRelabel, ForcedFallbacksProduceTheSameBits) {
  // max_dirty_fraction = 0 forces the full-rebuild path on every edit of
  // every kind (the floor of 256 dirty labels keeps small trees
  // incremental, so use a tree comfortably past it).
  RelabelOptions always_full;
  always_full.max_dirty_fraction = 0.0;
  const Tree base = tree::random_tree(900, 23);
  IncrementalRelabeler full(base, always_full);
  IncrementalRelabeler inc(base, {});
  std::mt19937_64 rng(300);
  const auto check = [&](const char* what) {
    ASSERT_NO_FATAL_FAILURE(
        expect_arena_equal(inc.labels(), full.labels(), what));
    ASSERT_TRUE(full.last_outcome() == RelabelOutcome::kFullHeavyFlip ||
                full.last_outcome() == RelabelOutcome::kFullDirtyCone)
        << what;
    ASSERT_EQ(full.stats().full_dirty_cone + full.stats().full_heavy_flip,
              full.stats().edits)
        << what;
  };
  for (int e = 0; e < 25; ++e) {
    const auto parent =
        static_cast<NodeId>(rng() % static_cast<std::uint64_t>(full.size()));
    (void)full.insert_leaf(parent);
    (void)inc.insert_leaf(parent);
    ASSERT_NO_FATAL_FAILURE(check("forced-full insert"));
  }
  EXPECT_EQ(full.stats().full_dirty_cone + full.stats().full_heavy_flip, 25u);
  EXPECT_EQ(full.stats().incremental + full.stats().restructured, 0u);

  // Every other edit kind falls back the same way. Edits stay on live base
  // ids, so the leaf inserted each round is still a leaf when deleted.
  std::vector<std::uint32_t> weight(static_cast<std::size_t>(base.size()));
  for (NodeId v = 1; v < base.size(); ++v)
    weight[static_cast<std::size_t>(v)] = base.weight(v);
  const auto live_base = [&] {
    for (;;) {
      const auto v = static_cast<NodeId>(
          1 + rng() % static_cast<std::uint64_t>(base.size() - 1));
      if (full.alive(v)) return v;
    }
  };
  for (int e = 0; e < 8; ++e) {
    const NodeId parent = live_base();
    const NodeId x = full.insert_leaf(parent);
    ASSERT_EQ(inc.insert_leaf(parent), x);
    ASSERT_NO_FATAL_FAILURE(check("forced-full insert"));
    const NodeId v = live_base();
    const std::uint32_t w = ++weight[static_cast<std::size_t>(v)];  // no no-op
    full.set_edge_weight(v, w);
    inc.set_edge_weight(v, w);
    ASSERT_NO_FATAL_FAILURE(check("forced-full weight"));
    full.delete_leaf(x);
    inc.delete_leaf(x);
    ASSERT_NO_FATAL_FAILURE(check("forced-full delete"));
  }
  const NodeId moved = live_base();
  full.detach_subtree(moved);
  inc.detach_subtree(moved);
  ASSERT_NO_FATAL_FAILURE(check("forced-full detach"));
  const NodeId graft = live_base();
  full.attach_subtree(graft, 2);
  inc.attach_subtree(graft, 2);
  ASSERT_NO_FATAL_FAILURE(check("forced-full attach"));
  EXPECT_EQ(full.stats().edits, 25u + 8u * 3u + 2u);
  EXPECT_EQ(full.stats().incremental + full.stats().restructured, 0u);
}

TEST(IncrementalRelabel, WideFanInsertCostsLessThanARebuild) {
  // One insert under the first of 5000 bristles moves that bristle's
  // quantized weight, so the fan node's light-choice table changes and all
  // 5000 light siblings re-emit. The pass that rebuilds their prefixes must
  // build that table once, not once per sibling (O(k) instead of O(k²) for
  // a fan of k): the insert stays cheaper than a few from-scratch builds.
  // A ratio keeps Debug and sanitizer slowdowns out of the bound.
  using Clock = std::chrono::steady_clock;
  const Tree base = tree::broom(10000, 5000);
  const auto t0 = Clock::now();
  IncrementalRelabeler r(base, RelabelOptions{1});
  const auto build = Clock::now() - t0;
  const auto t1 = Clock::now();
  (void)r.insert_leaf(10000);  // the first bristle
  const auto insert = Clock::now() - t1;
  EXPECT_EQ(r.last_outcome(), RelabelOutcome::kIncremental);
  ASSERT_NO_FATAL_FAILURE(expect_arena_equal(
      r.labels(), AlstrupScheme(r.snapshot(), kStable).labels(), "wide-fan"));
  const auto ms = [](Clock::duration d) {
    return std::chrono::duration<double, std::milli>(d).count();
  };
  EXPECT_LE(insert, 3 * build) << "insert " << ms(insert) << " ms vs build "
                               << ms(build) << " ms";
}

TEST(IncrementalRelabel, MostEditsAreIncrementalOnRandomTrees) {
  const Tree base = tree::random_tree(4000, 24);
  IncrementalRelabeler r(base);
  std::mt19937_64 rng(400);
  for (int e = 0; e < 120; ++e)
    (void)r.insert_leaf(
        static_cast<NodeId>(rng() % static_cast<std::uint64_t>(r.size())));
  const auto& st = r.stats();
  EXPECT_EQ(st.edits, 120u);
  // The point of the stable policy + local restructuring: the typical edit
  // re-emits a small cone instead of rebuilding the world.
  EXPECT_GT(st.incremental + st.restructured, 100u);
  EXPECT_GT(st.labels_spliced, st.labels_reemitted);
}

TEST(IncrementalRelabel, QueriesStayExactWhileGrowing) {
  const Tree base = tree::random_tree(250, 25);
  IncrementalRelabeler r(base);
  std::mt19937_64 rng(500);
  for (int e = 0; e < 50; ++e)
    (void)r.insert_leaf(
        static_cast<NodeId>(rng() % static_cast<std::uint64_t>(r.size())),
        static_cast<std::uint32_t>(1 + rng() % 4));
  const Tree now = r.snapshot();
  const tree::NcaIndex oracle(now);
  const auto& labels = r.labels();
  for (NodeId u = 0; u < now.size(); u += 11)
    for (NodeId v = 0; v < now.size(); v += 7)
      ASSERT_EQ(AlstrupScheme::query(labels[static_cast<std::size_t>(u)],
                                     labels[static_cast<std::size_t>(v)]),
                oracle.distance(u, v));
}

TEST(IncrementalRelabel, ToLoadedHandsOffTheCurrentLabels) {
  const Tree base = tree::random_tree(120, 26);
  IncrementalRelabeler r(base);
  (void)r.insert_leaf(5);
  const auto loaded = r.to_loaded();
  EXPECT_EQ(loaded.scheme, "alstrup");
  expect_arena_equal(loaded.labels, r.labels(), "to_loaded");
}

TEST(IncrementalRelabel, BadParentThrows) {
  IncrementalRelabeler r(tree::random_tree(50, 27));
  EXPECT_THROW((void)r.insert_leaf(-1), std::out_of_range);
  EXPECT_THROW((void)r.insert_leaf(50), std::out_of_range);
  EXPECT_EQ(r.stats().edits, 0u);
}

/// Parity through the dense map: live labels match a fresh stable-weight
/// build on the compacted snapshot, non-live ids hold zero-length labels.
void expect_sparse_parity(const IncrementalRelabeler& r, const char* what) {
  const AlstrupScheme fresh(r.snapshot(), kStable);
  const auto map = r.dense_map();
  const auto& got = r.labels();
  ASSERT_EQ(got.size(), map.size()) << what;
  for (std::size_t i = 0; i < map.size(); ++i) {
    if (map[i] == tree::kNoNode) {
      ASSERT_EQ(got.label_bits(i), 0u) << what << " tombstone " << i;
      continue;
    }
    const auto j = static_cast<std::size_t>(map[i]);
    ASSERT_EQ(got.label_bits(i), fresh.labels().label_bits(j))
        << what << " label " << i;
    ASSERT_TRUE(got.view(i) == fresh.labels()[j]) << what << " label " << i;
  }
}

TEST(EditModel, DeleteLeafTombstonesAndStaysBitIdentical) {
  const Tree base = tree::random_tree(300, 31);
  IncrementalRelabeler r(base);
  std::mt19937_64 rng(600);
  int deleted = 0;
  for (int e = 0; e < 60; ++e) {
    // Find a live non-root leaf in the snapshot of ids.
    NodeId victim = tree::kNoNode;
    for (int tries = 0; tries < 200; ++tries) {
      const auto v = static_cast<NodeId>(rng() % r.size());
      if (r.alive(v) && r.snapshot().size() > 1) {
        // delete_leaf itself rejects non-leaves; probe via the API.
        try {
          r.delete_leaf(v);
          victim = v;
          break;
        } catch (const std::invalid_argument&) {
        } catch (const std::out_of_range&) {
        }
      }
    }
    if (victim == tree::kNoNode) continue;
    ++deleted;
    ASSERT_NO_FATAL_FAILURE(expect_sparse_parity(r, "delete"));
    ASSERT_NO_THROW(r.check_state());
  }
  EXPECT_GT(deleted, 20);
  EXPECT_EQ(r.live_size(), 300u - static_cast<std::size_t>(deleted));
  EXPECT_EQ(r.size(), 300u);  // tombstones keep the id space
}

TEST(EditModel, DeleteValidation) {
  //      0
  //     / \.
  //    1   2
  //        |
  //        3
  const Tree t(std::vector<NodeId>{tree::kNoNode, 0, 0, 2});
  IncrementalRelabeler r(t);
  EXPECT_THROW(r.delete_leaf(0), std::invalid_argument);  // root
  EXPECT_THROW(r.delete_leaf(2), std::invalid_argument);  // not a leaf
  EXPECT_THROW(r.delete_leaf(9), std::out_of_range);
  r.delete_leaf(3);
  EXPECT_FALSE(r.alive(3));
  EXPECT_THROW(r.delete_leaf(3), std::out_of_range);  // already dead
  r.delete_leaf(2);                                   // became a leaf
  EXPECT_EQ(r.live_size(), 2u);
  ASSERT_NO_THROW(r.check_state());
}

TEST(EditModel, CompactRenumbersDenselyWithoutChangingBits) {
  const Tree base = tree::random_tree(200, 32);
  IncrementalRelabeler r(base);
  std::mt19937_64 rng(700);
  // Kill some leaves, then compact.
  int deleted = 0;
  while (deleted < 40) {
    const auto v = static_cast<NodeId>(rng() % r.size());
    try {
      r.delete_leaf(v);
      ++deleted;
    } catch (const std::exception&) {
    }
  }
  const bits::LabelArena before = r.labels();
  const std::vector<NodeId> map = r.compact();
  EXPECT_EQ(r.stats().compactions, 1u);
  EXPECT_EQ(r.size(), 160u);
  EXPECT_EQ(r.live_size(), 160u);
  // Every surviving label kept its bits at the remapped index.
  for (std::size_t i = 0; i < map.size(); ++i) {
    if (map[i] == tree::kNoNode) continue;
    const auto j = static_cast<std::size_t>(map[i]);
    ASSERT_TRUE(before.view(i) == r.labels().view(j)) << i;
  }
  ASSERT_NO_THROW(r.check_state());
  ASSERT_NO_FATAL_FAILURE(expect_sparse_parity(r, "post-compact"));
  // Editing keeps working in the new id space.
  (void)r.insert_leaf(10);
  ASSERT_NO_FATAL_FAILURE(expect_sparse_parity(r, "post-compact insert"));
}

TEST(EditModel, DetachAttachMovesASubtreeBitIdentically) {
  const Tree base = tree::random_tree(400, 33);
  IncrementalRelabeler r(base);
  std::mt19937_64 rng(800);
  for (int e = 0; e < 30; ++e) {
    // Detach a random non-root subtree...
    NodeId v = tree::kNoNode;
    while (v == tree::kNoNode) {
      const auto c = static_cast<NodeId>(rng() % r.size());
      if (r.alive(c) && c != 0) v = c;  // node 0 is the root of random_tree
    }
    r.detach_subtree(v);
    EXPECT_EQ(r.detached_root(), v);
    EXPECT_FALSE(r.alive(v));
    ASSERT_NO_FATAL_FAILURE(expect_sparse_parity(r, "detached"));
    ASSERT_NO_THROW(r.check_state());
    // ...and graft it somewhere else.
    NodeId p = tree::kNoNode;
    while (p == tree::kNoNode) {
      const auto c = static_cast<NodeId>(rng() % r.size());
      if (r.alive(c)) p = c;
    }
    r.attach_subtree(p, static_cast<std::uint32_t>(1 + rng() % 3));
    EXPECT_EQ(r.detached_root(), tree::kNoNode);
    EXPECT_TRUE(r.alive(v));
    ASSERT_NO_FATAL_FAILURE(expect_sparse_parity(r, "attached"));
    ASSERT_NO_THROW(r.check_state());
  }
  EXPECT_EQ(r.live_size(), 400u);
}

TEST(EditModel, DetachAttachValidation) {
  const Tree t(std::vector<NodeId>{tree::kNoNode, 0, 1, 1});
  IncrementalRelabeler r(t);
  EXPECT_THROW(r.detach_subtree(0), std::invalid_argument);  // root
  EXPECT_THROW(r.detach_subtree(7), std::out_of_range);
  EXPECT_THROW(r.attach_subtree(0), std::logic_error);  // nothing pending
  r.detach_subtree(1);  // takes 2 and 3 with it
  EXPECT_FALSE(r.alive(2));
  EXPECT_EQ(r.live_size(), 1u);
  EXPECT_THROW(r.detach_subtree(2), std::out_of_range);  // not live
  EXPECT_THROW(r.compact(), std::logic_error);           // pending detach
  EXPECT_THROW(r.attach_subtree(1), std::out_of_range);  // parent not live
  r.attach_subtree(0, 5);
  EXPECT_EQ(r.live_size(), 4u);
  ASSERT_NO_THROW(r.check_state());
  ASSERT_NO_FATAL_FAILURE(expect_sparse_parity(r, "re-attach"));
}

TEST(EditModel, WeightUpdateDirtiesExactlyTheSubtree) {
  const Tree base = tree::random_tree(500, 34);
  IncrementalRelabeler r(base);
  std::mt19937_64 rng(900);
  for (int e = 0; e < 40; ++e) {
    const auto v = static_cast<NodeId>(1 + rng() % (r.size() - 1));
    const auto w = static_cast<std::uint32_t>(rng() % 6);
    r.set_edge_weight(v, w);
    ASSERT_NO_FATAL_FAILURE(expect_sparse_parity(r, "weight"));
    ASSERT_NO_THROW(r.check_state());
    if (r.last_outcome() == RelabelOutcome::kIncremental) {
      EXPECT_LE(r.last_dirty_count(),
                static_cast<std::size_t>(
                    r.snapshot().subtree_size(v)));
    }
  }
  EXPECT_THROW(r.set_edge_weight(0, 3), std::invalid_argument);  // root
  // Distances stay exact after reweighting.
  const Tree now = r.snapshot();
  const tree::NcaIndex oracle(now);
  const auto& labels = r.labels();
  for (NodeId u = 0; u < now.size(); u += 17)
    for (NodeId v = 0; v < now.size(); v += 13)
      ASSERT_EQ(AlstrupScheme::query(labels[static_cast<std::size_t>(u)],
                                     labels[static_cast<std::size_t>(v)]),
                oracle.distance(u, v));
}

TEST(EditModel, MixedEditsKeepQueriesExact) {
  // The end-to-end sanity pass: grow, shrink, move, reweight, compact —
  // then check real distance queries against an oracle on the final tree.
  const Tree base = tree::random_tree(150, 35);
  IncrementalRelabeler r(base);
  std::mt19937_64 rng(1000);
  for (int e = 0; e < 200; ++e) {
    const int op = static_cast<int>(rng() % 10);
    try {
      if (op < 4) {
        NodeId p;
        do p = static_cast<NodeId>(rng() % r.size());
        while (!r.alive(p));
        (void)r.insert_leaf(p, static_cast<std::uint32_t>(rng() % 4));
      } else if (op < 6) {
        r.delete_leaf(static_cast<NodeId>(rng() % r.size()));
      } else if (op < 7) {
        r.set_edge_weight(static_cast<NodeId>(rng() % r.size()),
                          static_cast<std::uint32_t>(rng() % 4));
      } else if (op < 9) {
        if (r.detached_root() == tree::kNoNode) {
          r.detach_subtree(static_cast<NodeId>(rng() % r.size()));
        } else {
          NodeId p;
          do p = static_cast<NodeId>(rng() % r.size());
          while (!r.alive(p));
          r.attach_subtree(p, 1);
        }
      } else if (r.detached_root() == tree::kNoNode) {
        (void)r.compact();
      }
    } catch (const std::out_of_range&) {
    } catch (const std::invalid_argument&) {
    }
  }
  if (r.detached_root() != tree::kNoNode) r.attach_subtree(0, 1);
  (void)r.compact();
  const Tree now = r.snapshot();
  const tree::NcaIndex oracle(now);
  const auto& labels = r.labels();
  ASSERT_EQ(labels.size(), static_cast<std::size_t>(now.size()));
  for (NodeId u = 0; u < now.size(); u += 7)
    for (NodeId v = 0; v < now.size(); v += 11)
      ASSERT_EQ(AlstrupScheme::query(labels[static_cast<std::size_t>(u)],
                                     labels[static_cast<std::size_t>(v)]),
                oracle.distance(u, v));
}

TEST(EditModel, DeltaRoundTripMatchesLiveArena) {
  const Tree base = tree::random_tree(250, 36);
  IncrementalRelabeler r(base);
  const bits::LabelArena base_arena = r.labels();
  std::mt19937_64 rng(1100);
  for (int e = 0; e < 30; ++e) {
    const int op = static_cast<int>(rng() % 3);
    try {
      if (op == 0)
        (void)r.insert_leaf(static_cast<NodeId>(rng() % r.size()));
      else if (op == 1)
        r.delete_leaf(static_cast<NodeId>(rng() % r.size()));
      else
        r.set_edge_weight(static_cast<NodeId>(rng() % r.size()), 2);
    } catch (const std::exception&) {
    }
  }
  (void)r.compact();
  std::stringstream ss;
  r.ship_delta(ss);
  const core::LabelDelta d = core::LabelStore::load_delta(ss);
  EXPECT_EQ(d.scheme, "alstrup");
  EXPECT_EQ(d.base_count, 250u);
  EXPECT_FALSE(d.edits.empty());
  const bits::LabelArena applied =
      core::LabelStore::apply_delta(base_arena, d);
  ASSERT_EQ(applied.size(), r.labels().size());
  for (std::size_t i = 0; i < applied.size(); ++i)
    ASSERT_TRUE(applied.view(i) == r.labels().view(i)) << i;
  // A delta is a small fraction of the full file for small edit batches —
  // the shipping win. (30 edits on 250 nodes: the dirty cone is a sliver.)
  std::stringstream full;
  core::LabelStore::save_mappable(full, "alstrup", r.labels());
  std::stringstream next;
  (void)r.insert_leaf(3);
  r.ship_delta(next);
  EXPECT_LT(next.str().size(), full.str().size() / 2);
}

}  // namespace
