// The collapsed tree C(T) of a heavy path decomposition (Section 2, Fig. 1).
//
// Nodes of C(T) are heavy paths of T. Children of a C(T) node are the paths
// hanging off it by light edges, ordered top-to-bottom by branching depth;
// when several light edges leave the same path node (for binary T this can
// only happen at the last node of the path) the largest subtree is placed
// rightmost and its light edge is *exceptional*.
//
// Domination (Section 2): u dominates v iff u's associated C(T) node comes
// before v's in the traversal order in which a parent follows all of its
// children (children left-to-right, parent last). This realizes the paper's
// two observations for leaf-to-leaf queries:
//   (1) a light-start path dominates a heavy-start path, and
//   (2) of two light-start paths from the same node, the exceptional one is
//       dominated.
#pragma once

#include <span>
#include <vector>

#include "tree/hpd.hpp"
#include "tree/tree.hpp"

namespace treelab::tree {

class CollapsedTree {
 public:
  explicit CollapsedTree(const HeavyPathDecomposition& hpd);

  [[nodiscard]] const HeavyPathDecomposition& hpd() const noexcept {
    return *hpd_;
  }

  /// Number of C(T) nodes == number of heavy paths.
  [[nodiscard]] std::int32_t size() const noexcept {
    return static_cast<std::int32_t>(order_.size());
  }

  /// C(T) node (== heavy path id) associated with tree node v.
  [[nodiscard]] std::int32_t cnode_of(NodeId v) const noexcept {
    return hpd_->path_of(v);
  }

  /// Parent C(T) node of c, or -1 at the root.
  [[nodiscard]] std::int32_t cparent(std::int32_t c) const noexcept {
    return cparent_[c];
  }

  /// Children of c, left-to-right (branching depth, exceptional last).
  [[nodiscard]] std::span<const std::int32_t> cchildren(std::int32_t c) const noexcept {
    return {cchild_.data() + cchild_off_[c],
            static_cast<std::size_t>(cchild_off_[c + 1] - cchild_off_[c])};
  }

  /// head(P) of the heavy path identified by C(T) node c.
  [[nodiscard]] NodeId head(std::int32_t c) const noexcept {
    return hpd_->head(c);
  }

  /// True if the light edge connecting c to its parent is exceptional.
  [[nodiscard]] bool is_exceptional(std::int32_t c) const noexcept {
    return exceptional_[c];
  }

  /// Domination between *tree* nodes: true if u dominates v.
  [[nodiscard]] bool dominates(NodeId u, NodeId v) const noexcept {
    return order_[cnode_of(u)] < order_[cnode_of(v)];
  }

  /// Height of C(T) (edges); at most log2 n.
  [[nodiscard]] std::int32_t height() const noexcept { return height_; }

 private:
  const HeavyPathDecomposition* hpd_;
  std::vector<std::int32_t> cparent_;
  std::vector<std::int32_t> cchild_off_;
  std::vector<std::int32_t> cchild_;
  std::vector<char> exceptional_;
  std::vector<std::int32_t> order_;  // domination numbering
  std::int32_t height_ = 0;
};

}  // namespace treelab::tree
