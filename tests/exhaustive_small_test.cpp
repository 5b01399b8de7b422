// Exhaustive oracle coverage on every rooted tree with <= 8 nodes for the
// bounded and approximate schemes (the exact schemes have their own
// exhaustive suite in exact_schemes_test.cpp). Every (tree, k/eps, pair)
// combination is checked — thousands of distinct structural cases,
// including every possible heavy-path/exceptional-edge configuration that
// can occur at this size.
#include <gtest/gtest.h>

#include "core/approx_scheme.hpp"
#include "core/kdistance_scheme.hpp"
#include "core/level_ancestor_scheme.hpp"
#include "tree/generators.hpp"
#include "tree/nca_index.hpp"

namespace {

using namespace treelab;
using tree::NodeId;
using tree::Tree;

TEST(ExhaustiveSmall, KDistanceAllTreesAllK) {
  for (NodeId n = 2; n <= 8; ++n) {
    for (const Tree& t : tree::all_rooted_trees(n)) {
      const tree::NcaIndex oracle(t);
      for (std::uint64_t k = 1; k <= 2 * static_cast<std::uint64_t>(n); ++k) {
        const core::KDistanceScheme s(t, k);
        for (NodeId u = 0; u < t.size(); ++u)
          for (NodeId v = 0; v < t.size(); ++v) {
            const auto got =
                core::KDistanceScheme::query(k, s.label(u), s.label(v));
            const std::uint64_t want = oracle.distance(u, v);
            if (want <= k) {
              ASSERT_TRUE(got.within)
                  << "n=" << n << " k=" << k << " u=" << u << " v=" << v;
              ASSERT_EQ(got.distance, want)
                  << "n=" << n << " k=" << k << " u=" << u << " v=" << v;
            } else {
              ASSERT_FALSE(got.within)
                  << "n=" << n << " k=" << k << " u=" << u << " v=" << v;
            }
          }
      }
    }
  }
}

TEST(ExhaustiveSmall, ApproxAllTrees) {
  for (NodeId n = 2; n <= 8; ++n) {
    for (const Tree& t : tree::all_rooted_trees(n)) {
      const tree::NcaIndex oracle(t);
      for (const double eps : {1.0, 0.5, 0.2}) {
        const core::ApproxScheme s(t, eps);
        for (NodeId u = 0; u < t.size(); ++u)
          for (NodeId v = 0; v < t.size(); ++v) {
            const auto got =
                core::ApproxScheme::query(s.powers(), s.label(u), s.label(v));
            const std::uint64_t want = oracle.distance(u, v);
            ASSERT_GE(got, want) << "n=" << n << " u=" << u << " v=" << v;
            ASSERT_LE(static_cast<double>(got),
                      (1 + eps) * static_cast<double>(want) + 1e-9)
                << "n=" << n << " eps=" << eps << " u=" << u << " v=" << v;
          }
      }
    }
  }
}

TEST(ExhaustiveSmall, LevelAncestorFullWalks) {
  for (NodeId n = 2; n <= 8; ++n) {
    for (const Tree& t : tree::all_rooted_trees(n)) {
      const core::LevelAncestorScheme s(t);
      for (NodeId v = 0; v < t.size(); ++v) {
        // Walk from v all the way to the root via labels, matching parents.
        NodeId cur = v;
        bits::BitVec label = s.label(v);
        while (t.parent(cur) != tree::kNoNode) {
          const auto p = core::LevelAncestorScheme::parent(label);
          ASSERT_TRUE(p.has_value());
          cur = t.parent(cur);
          ASSERT_TRUE(*p == s.label(cur)) << "n=" << n << " v=" << v;
          label = *p;
        }
        EXPECT_FALSE(core::LevelAncestorScheme::parent(label).has_value());
      }
    }
  }
}

}  // namespace
