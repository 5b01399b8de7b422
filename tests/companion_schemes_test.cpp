// Ancestry and adjacency labelings (the companion problems of the paper's
// introduction).
#include <gtest/gtest.h>

#include "core/adjacency_scheme.hpp"
#include "core/ancestry_scheme.hpp"
#include "tree/generators.hpp"
#include "tree/nca_index.hpp"

namespace {

using namespace treelab;
using tree::NodeId;
using tree::Tree;

TEST(Ancestry, AllPairsAgainstOracle) {
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const Tree t = tree::random_tree(120, seed);
    const core::AncestryScheme s(t);
    const tree::NcaIndex oracle(t);
    for (NodeId u = 0; u < t.size(); ++u)
      for (NodeId v = 0; v < t.size(); ++v) {
        ASSERT_EQ(core::AncestryScheme::is_ancestor(s.label(u), s.label(v)),
                  oracle.is_ancestor(u, v))
            << u << " " << v;
        ASSERT_EQ(core::AncestryScheme::same_node(s.label(u), s.label(v)),
                  u == v);
      }
  }
}

TEST(Ancestry, ExhaustiveSmallTrees) {
  for (NodeId n = 1; n <= 7; ++n)
    for (const Tree& t : tree::all_rooted_trees(n)) {
      const core::AncestryScheme s(t);
      const tree::NcaIndex oracle(t);
      for (NodeId u = 0; u < t.size(); ++u)
        for (NodeId v = 0; v < t.size(); ++v)
          ASSERT_EQ(core::AncestryScheme::is_ancestor(s.label(u), s.label(v)),
                    oracle.is_ancestor(u, v));
    }
}

TEST(Ancestry, LabelsAreSmall) {
  const Tree t = tree::random_tree(1 << 14, 3);
  const core::AncestryScheme s(t);
  // ~2 log n + delta-code overhead.
  EXPECT_LE(s.stats().max_bits, 2u * 14 + 24);
}

TEST(Adjacency, AllPairsAgainstParentArray) {
  for (const auto& shape : tree::standard_shapes()) {
    const Tree t = shape.make(90, 7);
    const core::AdjacencyScheme s(t);
    for (NodeId u = 0; u < t.size(); ++u)
      for (NodeId v = 0; v < t.size(); ++v) {
        const bool want = t.parent(u) == v || t.parent(v) == u;
        ASSERT_EQ(core::AdjacencyScheme::adjacent(s.label(u), s.label(v)),
                  want)
            << shape.name << " " << u << " " << v;
      }
  }
}

TEST(Adjacency, SelfIsNotAdjacent) {
  const Tree t = tree::path(5);
  const core::AdjacencyScheme s(t);
  for (NodeId v = 0; v < t.size(); ++v)
    EXPECT_FALSE(core::AdjacencyScheme::adjacent(s.label(v), s.label(v)));
}

}  // namespace
