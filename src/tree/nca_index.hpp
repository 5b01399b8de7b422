// Ground-truth nearest-common-ancestor / distance index (Euler tour +
// sparse table). This is *not* a labeling scheme — it sees the whole tree —
// and is used as the oracle that every labeling scheme is tested against,
// and internally by label builders that need d(u, v) during construction.
#pragma once

#include <cstdint>
#include <vector>

#include "tree/tree.hpp"

namespace treelab::tree {

class NcaIndex {
 public:
  explicit NcaIndex(const Tree& t);

  [[nodiscard]] const Tree& tree() const noexcept { return *t_; }

  /// Nearest common ancestor of u and v. O(1).
  [[nodiscard]] NodeId nca(NodeId u, NodeId v) const noexcept;

  /// Weighted distance between u and v. O(1).
  [[nodiscard]] std::uint64_t distance(NodeId u, NodeId v) const noexcept {
    const NodeId w = nca(u, v);
    return t_->root_distance(u) + t_->root_distance(v) -
           2 * t_->root_distance(w);
  }

  /// True if a is an ancestor of (or equal to) d.
  [[nodiscard]] bool is_ancestor(NodeId a, NodeId d) const noexcept {
    return nca(a, d) == a;
  }

 private:
  const Tree* t_;
  std::vector<std::int32_t> first_;   // first Euler occurrence of each node
  std::vector<NodeId> euler_;         // Euler tour nodes
  std::vector<std::int32_t> log2_;    // floor(log2(i)) table
  std::vector<std::vector<std::int32_t>> table_;  // sparse table over tour
                                                  // positions (min depth)
};

}  // namespace treelab::tree
