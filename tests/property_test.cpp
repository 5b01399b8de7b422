// Cross-scheme property tests: invariants that must hold for every scheme
// on every workload — symmetry, identity, agreement between schemes,
// consistency across k and eps, and label-size growth bounds — swept over
// (shape x size x seed) with parameterized gtest.
#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "core/adjacency_scheme.hpp"
#include "core/alstrup_scheme.hpp"
#include "core/approx_scheme.hpp"
#include "core/fgnw_scheme.hpp"
#include "core/kdistance_scheme.hpp"
#include "nca/nca_labeling.hpp"
#include "tree/generators.hpp"
#include "tree/hpd.hpp"
#include "tree/nca_index.hpp"

namespace {

using namespace treelab;
using tree::NodeId;
using tree::Tree;

class SweepTest : public ::testing::TestWithParam<
                      std::tuple<std::size_t, tree::NodeId, std::uint64_t>> {
 protected:
  Tree make() const {
    const auto [shape, n, seed] = GetParam();
    return tree::standard_shapes()[shape].make(n, seed);
  }
};

TEST_P(SweepTest, ExactSymmetryIdentityAgreement) {
  const Tree t = make();
  const core::FgnwScheme f(t);
  const core::AlstrupScheme a(t);
  const tree::NcaIndex oracle(t);
  std::mt19937_64 rng(99);
  std::uniform_int_distribution<NodeId> pick(0, t.size() - 1);
  for (int i = 0; i < 500; ++i) {
    const NodeId u = pick(rng), v = pick(rng);
    const auto duv = core::FgnwScheme::query(f.label(u), f.label(v));
    // Symmetry.
    ASSERT_EQ(duv, core::FgnwScheme::query(f.label(v), f.label(u)));
    // Agreement across schemes.
    ASSERT_EQ(duv, core::AlstrupScheme::query(a.label(u), a.label(v)));
    // Ground truth.
    ASSERT_EQ(duv, oracle.distance(u, v));
  }
  for (NodeId v = 0; v < t.size(); v += 17)
    ASSERT_EQ(core::FgnwScheme::query(f.label(v), f.label(v)), 0u);
}

TEST_P(SweepTest, KDistanceMonotoneInK) {
  const Tree t = make();
  const core::KDistanceScheme s2(t, 2);
  const core::KDistanceScheme s6(t, 6);
  std::mt19937_64 rng(7);
  std::uniform_int_distribution<NodeId> pick(0, t.size() - 1);
  for (int i = 0; i < 400; ++i) {
    const NodeId u = pick(rng), v = pick(rng);
    const auto r2 = core::KDistanceScheme::query(2, s2.label(u), s2.label(v));
    const auto r6 = core::KDistanceScheme::query(6, s6.label(u), s6.label(v));
    if (r2.within) {
      // Anything within 2 is within 6, with the same distance.
      ASSERT_TRUE(r6.within);
      ASSERT_EQ(r2.distance, r6.distance);
    }
    if (!r6.within) {
      ASSERT_FALSE(r2.within);
    }
  }
}

TEST_P(SweepTest, KEquals1MatchesAdjacency) {
  const Tree t = make();
  const core::KDistanceScheme k1(t, 1);
  const core::AdjacencyScheme adj(t);
  std::mt19937_64 rng(13);
  std::uniform_int_distribution<NodeId> pick(0, t.size() - 1);
  for (int i = 0; i < 600; ++i) {
    const NodeId u = pick(rng), v = pick(rng);
    const auto r = core::KDistanceScheme::query(1, k1.label(u), k1.label(v));
    const bool adjacent = r.within && r.distance == 1;
    ASSERT_EQ(adjacent,
              core::AdjacencyScheme::adjacent(adj.label(u), adj.label(v)))
        << u << " " << v;
  }
}

TEST_P(SweepTest, ApproxDominatedByTighterEps) {
  const Tree t = make();
  const core::ApproxScheme loose(t, 1.0);
  const core::ApproxScheme tight(t, 0.0625);
  const tree::NcaIndex oracle(t);
  std::mt19937_64 rng(5);
  std::uniform_int_distribution<NodeId> pick(0, t.size() - 1);
  for (int i = 0; i < 400; ++i) {
    const NodeId u = pick(rng), v = pick(rng);
    const auto d = oracle.distance(u, v);
    const auto el = core::ApproxScheme::query(loose.powers(), loose.label(u),
                                              loose.label(v));
    const auto et = core::ApproxScheme::query(tight.powers(), tight.label(u),
                                              tight.label(v));
    ASSERT_GE(el, d);
    ASSERT_GE(et, d);
    ASSERT_LE(static_cast<double>(et), 1.0625 * static_cast<double>(d) + 1e-9);
    ASSERT_LE(static_cast<double>(el), 2.0 * static_cast<double>(d) + 1e-9);
  }
  // Tighter eps never has smaller labels than loose eps by more than noise.
  EXPECT_GE(tight.stats().max_bits + 8, loose.stats().max_bits);
}

TEST_P(SweepTest, LabelSizeGrowthBounds) {
  const Tree t = make();
  const double lg = std::log2(static_cast<double>(t.size()) + 1) + 2;
  const core::FgnwScheme f(t);
  const core::AlstrupScheme a(t);
  // Generous constants: catches regressions to Theta(n) or Theta(log^3).
  EXPECT_LE(static_cast<double>(f.stats().max_bits), 2.0 * lg * lg + 200.0);
  EXPECT_LE(static_cast<double>(a.stats().max_bits), 2.0 * lg * lg + 200.0);
  const tree::HeavyPathDecomposition hpd(t);
  const nca::NcaLabeling nl(hpd);
  std::size_t nca_max = 0;
  for (NodeId v = 0; v < t.size(); ++v)
    nca_max = std::max(nca_max, nl.label(v).size());
  EXPECT_LE(static_cast<double>(nca_max), 30.0 * lg);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SweepTest,
    ::testing::Combine(::testing::Range<std::size_t>(0, 9),
                       ::testing::Values<tree::NodeId>(64, 600, 4000),
                       ::testing::Values<std::uint64_t>(1, 12345)));

}  // namespace
