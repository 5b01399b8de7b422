// NcaLabeling (Lemma 2.1): lightdepth(u,v), ancestry and branch order must
// be recovered from two labels alone, and label sizes must stay O(log n).
#include <gtest/gtest.h>

#include <cmath>

#include "bits/bitio.hpp"
#include "nca/nca_labeling.hpp"
#include "tree/binarize.hpp"
#include "tree/collapsed.hpp"
#include "tree/generators.hpp"
#include "tree/nca_index.hpp"

namespace {

using namespace treelab;
using nca::NcaLabeling;
using nca::NcaResult;
using tree::NodeId;
using tree::Tree;

void expect_nca_correct(const Tree& t) {
  const tree::HeavyPathDecomposition hpd(t);
  const NcaLabeling labels(hpd);
  const tree::CollapsedTree ct(hpd);
  const tree::NcaIndex oracle(t);
  for (NodeId u = 0; u < t.size(); ++u)
    for (NodeId v = 0; v < t.size(); ++v) {
      const NcaResult res = NcaLabeling::query(labels.label(u), labels.label(v));
      const NodeId w = oracle.nca(u, v);
      ASSERT_EQ(res.lightdepth, hpd.light_depth(w))
          << "u=" << u << " v=" << v << " n=" << t.size();
      using Rel = NcaResult::Rel;
      if (u == v) {
        ASSERT_EQ(res.rel, Rel::kEqual);
      } else if (w == u) {
        ASSERT_EQ(res.rel, Rel::kUAncestor);
      } else if (w == v) {
        ASSERT_EQ(res.rel, Rel::kVAncestor);
      } else {
        ASSERT_EQ(res.rel, Rel::kDiverge);
        // Branch order must equal the collapsed-tree domination order.
        ASSERT_EQ(res.u_first, ct.dominates(u, v))
            << "u=" << u << " v=" << v;
      }
    }
}

class NcaShapeTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(NcaShapeTest, AllPairs) {
  const auto& shape = tree::standard_shapes()[GetParam()];
  expect_nca_correct(shape.make(90, 11));
}

INSTANTIATE_TEST_SUITE_P(Sweep, NcaShapeTest,
                         ::testing::Range<std::size_t>(0, 9));

TEST(NcaLabeling, ExhaustiveSmallTrees) {
  for (NodeId n = 1; n <= 7; ++n)
    for (const Tree& t : tree::all_rooted_trees(n)) expect_nca_correct(t);
}

TEST(NcaLabeling, BinarizedLeafQueries) {
  const auto bt = tree::binarize(tree::random_tree(150, 23));
  expect_nca_correct(bt.tree);
}

TEST(NcaLabeling, LabelSizeIsLogarithmic) {
  // Max label size should grow like c * log n, not log^2 n.
  double prev_max = 0;
  for (int lg = 8; lg <= 15; ++lg) {
    const Tree t = tree::random_binary_tree(1 << lg, 5);
    const tree::HeavyPathDecomposition hpd(t);
    const NcaLabeling labels(hpd);
    std::size_t mx = 0;
    for (NodeId v = 0; v < t.size(); ++v)
      mx = std::max(mx, labels.label(v).size());
    EXPECT_LE(static_cast<double>(mx), 24.0 * lg) << "n=2^" << lg;
    prev_max = static_cast<double>(mx);
  }
  (void)prev_max;
}

TEST(NcaLabeling, LightdepthOfLabel) {
  const Tree t = tree::random_tree(200, 3);
  const tree::HeavyPathDecomposition hpd(t);
  const NcaLabeling labels(hpd);
  for (NodeId v = 0; v < t.size(); ++v)
    EXPECT_EQ(NcaLabeling::attach(labels.label(v)).lightdepth(),
              hpd.light_depth(v));
}

TEST(NcaLabeling, MalformedLabelThrows) {
  const Tree t = tree::random_tree(50, 1);
  const tree::HeavyPathDecomposition hpd(t);
  const NcaLabeling labels(hpd);
  bits::BitVec empty;
  EXPECT_THROW((void)NcaLabeling::query(empty, labels.label(0)),
               bits::DecodeError);
  const auto& l = labels.label(7);
  if (l.size() > 4) {
    const bits::BitVec cut = l.slice(0, l.size() / 2);
    // Either decodes to garbage relations or throws; must never crash. The
    // contract we verify: no undefined behaviour and DecodeError is the only
    // exception type.
    try {
      (void)NcaLabeling::query(cut, labels.label(3));
    } catch (const bits::DecodeError&) {
    }
  }
}

}  // namespace
