// Quickstart: label a tree, then answer distance queries from labels alone.
//
//   $ ./quickstart
//
// Walks through every scheme in treelab on one small tree: exact distances
// (FGNW, the paper's 1/4 log^2 n scheme), bounded distances (k-distance),
// (1+eps)-approximate distances, and level-ancestor navigation.
#include <cinttypes>
#include <cstdio>

#include "core/approx_scheme.hpp"
#include "core/fgnw_scheme.hpp"
#include "core/kdistance_scheme.hpp"
#include "core/level_ancestor_scheme.hpp"
#include "tree/generators.hpp"

using namespace treelab;

int main() {
  // A rooted tree given by its parent array: node 0 is the root with
  // children 1, 2, 3; node 1 has children 4 and 5; node 3 has child 6;
  // node 4 has child 7; node 6 has child 8 (so nodes 7 and 8 are 6 apart).
  const tree::Tree t(std::vector<tree::NodeId>{-1, 0, 0, 0, 1, 1, 3, 4, 6});
  std::printf("tree with %d nodes\n\n", t.size());

  // --- exact distances (Theorem 1.1) ---------------------------------
  const core::FgnwScheme exact(t);
  std::printf("exact labels: max %zu bits, avg %.1f bits\n",
              exact.stats().max_bits, exact.stats().avg_bits());
  for (auto [u, v] : {std::pair<int, int>{7, 8}, {4, 5}, {0, 7}, {2, 6}}) {
    // Note: the query sees only the two bit strings.
    const std::uint64_t d =
        core::FgnwScheme::query(exact.label(u), exact.label(v));
    std::printf("  d(%d, %d) = %" PRIu64 "\n", u, v, d);
  }

  // --- bounded distances (Theorem 1.3) -------------------------------
  const std::uint64_t k = 2;
  const core::KDistanceScheme bounded(t, k);
  std::printf("\nk-distance labels (k = %" PRIu64 "): max %zu bits\n", k,
              bounded.stats().max_bits);
  for (auto [u, v] : {std::pair<int, int>{4, 5}, {7, 8}}) {
    const auto r =
        core::KDistanceScheme::query(k, bounded.label(u), bounded.label(v));
    if (r.within)
      std::printf("  d(%d, %d) = %" PRIu64 " (within k)\n", u, v, r.distance);
    else
      std::printf("  d(%d, %d) > %" PRIu64 "\n", u, v, k);
  }

  // --- approximate distances (Theorem 1.4) ---------------------------
  const double eps = 0.5;
  const core::ApproxScheme approx(t, eps);
  std::printf("\n(1+%.2f)-approximate labels: max %zu bits\n", eps,
              approx.stats().max_bits);
  const std::uint64_t est =
      core::ApproxScheme::query(approx.powers(), approx.label(7),
                                approx.label(8));
  std::printf("  d(7, 8) ~ %" PRIu64 " (true 6, guaranteed <= %.1f)\n", est,
              (1 + eps) * 6);

  // --- level ancestors (Section 3.6) ----------------------------------
  const core::LevelAncestorScheme la(t);
  auto anc = core::LevelAncestorScheme::level_ancestor(la.label(7), 2);
  std::printf("\nlevel-ancestor: the grandparent of node 7 has label depth "
              "%" PRIu64 " (node 1)\n",
              core::LevelAncestorScheme::depth_of_label(*anc));
  return 0;
}
