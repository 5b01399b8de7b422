// PelegScheme — the historical O(log^2 n) distance labeling baseline
// (Peleg, J. Graph Theory 2000), phrased over a heavy path decomposition.
//
// The label of u records, for every heavy path P_1, ..., P_k met on the
// root-to-u path (below the root path P_0), the triple
//     ( pre(head(P_i)), depth(b_i), root_distance(b_i) )
// where b_i = parent(head(P_i)) is the branch node, plus u's own depth and
// root distance. Two labels are matched on the pre(head) identifiers to find
// the deepest shared heavy path; the NCA is the shallower of the two branch
// candidates on it. ~3 log^2 n bits; the simple comparator the paper's
// Section 1 history starts from.
#pragma once

#include <cstdint>
#include <vector>

#include "bits/label_arena.hpp"
#include "core/labeling.hpp"
#include "core/tree_scaffold.hpp"
#include "tree/hpd.hpp"

namespace treelab::core {

/// A pre-parsed Peleg label for repeated queries: the root distance, depth
/// and the fully decoded per-heavy-path entry triples. After the one-time
/// attach, a query is the identifier-prefix match over decoded words — no
/// Elias decoding. Produced by PelegScheme::attach().
class PelegAttachedLabel {
 public:
  [[nodiscard]] std::uint64_t root_distance() const noexcept { return rd_; }

 private:
  friend class PelegScheme;
  friend struct PelegQueryImpl;
  struct Entry {
    std::uint64_t head_pre = 0;  // identifier of the heavy path
    std::uint64_t b_depth = 0;   // depth of the branch node
    std::uint64_t b_rd = 0;      // root distance of the branch node
  };
  std::uint64_t rd_ = 0;
  std::uint64_t depth_ = 0;
  std::vector<Entry> entries_;
};

class PelegScheme {
 public:
  using Attached = PelegAttachedLabel;

  /// Labels every node of `t`.
  explicit PelegScheme(const tree::Tree& t);

  /// Builds from a shared scaffold (HPD computed once per tree); label
  /// emission fans out over scaffold.threads() workers.
  explicit PelegScheme(const TreeScaffold& scaffold);

  [[nodiscard]] bits::BitSpan label(tree::NodeId v) const noexcept {
    return labels_[static_cast<std::size_t>(v)];
  }
  [[nodiscard]] const bits::LabelArena& labels() const noexcept {
    return labels_;
  }
  [[nodiscard]] LabelStats stats() const { return stats_of(labels_); }

  /// Exact weighted distance from labels alone. Reads both labels in
  /// place, entry by entry, only up to their first differing head, and
  /// allocates nothing.
  [[nodiscard]] static std::uint64_t query(bits::BitSpan lu, bits::BitSpan lv);

  /// One-time parse for repeated queries against the same label.
  [[nodiscard]] static PelegAttachedLabel attach(bits::BitSpan l);

  /// Same result as the raw overload, without re-parsing either label.
  [[nodiscard]] static std::uint64_t query(const PelegAttachedLabel& lu,
                                           const PelegAttachedLabel& lv);

 private:
  bits::LabelArena labels_;
};

}  // namespace treelab::core
