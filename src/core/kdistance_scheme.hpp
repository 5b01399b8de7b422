// KDistanceScheme — bounded-distance labeling (Section 4, Theorem 1.3).
//
// Given the labels of u and v, decide whether d(u, v) <= k and if so return
// it exactly. Label sizes: log n + O(k log(log n / k)) for k < log n, and
// O(log n * log(k / log n)) for k >= log n.
//
// Machinery (Sections 4.3-4.4):
//  * Light ranges L_u (preorder taken with the heavy child rightmost) and
//    significant ancestors u = u_0, u_1, ..., truncated at the top
//    significant ancestor u_r (the last one within distance k).
//  * Range identifiers id(L) — the binary-trie ancestor of the range — are
//    *not stored*: each is recomputed from pre(u) and the stored height
//    (Observation 4.2.1), so a single log n field (pre) plus a monotone
//    height sequence (Lemma 2.2) identifies the whole chain.
//  * The nearest common significant ancestor is found by aligning the two
//    chains on light depth and matching (id, lightdepth) pairs (Lemma 4.3).
//  * If the branch of one side sits at its top significant ancestor, the
//    distance along the shared heavy path is recovered either from the
//    capped head-distance alpha (<= 2k+1) or — when both sides are at their
//    top — via positions mod (k+1) and the monotone sequences of
//    2-approximations |_ a_{i+t} - a_i _|_2 of range-identifier differences
//    (Lemmas 4.4-4.5).
//  * For k >= log n the 2-approximation machinery is unnecessary: alpha is
//    stored uncapped (the "simple O(log k log n) scheme" of Section 4.3).
//
// Defined for unit-weight trees.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "bits/label_arena.hpp"
#include "core/labeling.hpp"
#include "core/tree_scaffold.hpp"
#include "tree/tree.hpp"

namespace treelab::core {

/// A pre-parsed k-distance label for repeated queries: the significant
/// ancestor chain arrays, capped head distance and (small-k) identifier
/// 2-approximation sequences, decoded once. After the one-time attach, a
/// query is the Section 4.4 NCSA location over decoded words plus O(1)
/// arithmetic. Produced by KDistanceScheme::attach(). It views nothing, so
/// it copies freely.
class KDistanceAttachedLabel {
 public:
  [[nodiscard]] std::uint64_t lightdepth() const noexcept {
    return lightdepth_;
  }

 private:
  friend class KDistanceScheme;
  friend struct KDistanceQueryImpl;
  /// A decoded chain array, read through MonotoneSeq's size(), get(i) and
  /// successor(x): one query body runs on these arrays and on the raw
  /// path's views of the stored sequences.
  struct Array {
    std::vector<std::uint64_t> v;
    [[nodiscard]] std::size_t size() const noexcept { return v.size(); }
    [[nodiscard]] std::uint64_t get(std::size_t i) const { return v[i]; }
    [[nodiscard]] std::size_t successor(std::uint64_t x) const noexcept {
      return static_cast<std::size_t>(
          std::lower_bound(v.begin(), v.end(), x) - v.begin());
    }
  };
  std::uint64_t pre_ = 0;
  std::uint64_t lightdepth_ = 0;
  bool small_k_ = false;
  Array hl_;                 // heights of L_{u_i}, i = 0..r
  Array hc_;                 // heights of T_{head(P(u_i))}
  Array dist_;               // d(u, u_i), i = 0..r
  std::uint64_t alpha_ = 0;  // d(u_r, head(P(u_r))), capped if small
  std::uint64_t i_mod_ = 0;  // pos(u_r) mod (k+1)            (small only)
  Array fwd_;                // msb(a_{i+t} - a_i), t = 1.. (small)
  Array bwd_;                // msb(a_i - a_{i-t}), t = 1.. (small)
};

class KDistanceScheme {
 public:
  using Attached = KDistanceAttachedLabel;

  /// Builds k-distance labels for every node of the unit-weighted tree `t`.
  /// Throws std::invalid_argument for k < 1 or weighted input.
  KDistanceScheme(const tree::Tree& t, std::uint64_t k);

  /// Builds from a shared scaffold (HPD computed once per tree); label
  /// emission fans out over scaffold.threads() workers.
  KDistanceScheme(const TreeScaffold& scaffold, std::uint64_t k);

  [[nodiscard]] std::uint64_t k() const noexcept { return k_; }
  [[nodiscard]] bits::BitSpan label(tree::NodeId v) const noexcept {
    return labels_[static_cast<std::size_t>(v)];
  }
  [[nodiscard]] const bits::LabelArena& labels() const noexcept {
    return labels_;
  }
  [[nodiscard]] LabelStats stats() const { return stats_of(labels_); }

  /// Decides d(u,v) <= k and returns the exact distance if so. `k` must be
  /// the value the labels were built with (a scheme-wide constant).
  /// Locates the NCSA with the Section 4.4 constant-time method: longest
  /// common suffix of the two height sequences (Lemma 2.2 op. 3), then the
  /// MSB of pre(u) XOR pre(v) and a successor query pick the first level
  /// whose range identifier can coincide.
  [[nodiscard]] static BoundedDistance query(std::uint64_t k, bits::BitSpan lu,
                                             bits::BitSpan lv);

  /// Reference implementation that finds the NCSA by linearly scanning the
  /// aligned chains. Same answers as query() by construction; kept public
  /// so the test suite can differentially test the Section 4.4 machinery.
  [[nodiscard]] static BoundedDistance query_linear(std::uint64_t k,
                                                    bits::BitSpan lu,
                                                    bits::BitSpan lv);

  /// One-time parse for repeated queries against the same label. `k` must be
  /// the value the labels were built with.
  [[nodiscard]] static KDistanceAttachedLabel attach(std::uint64_t k,
                                                     bits::BitSpan l);

  /// Same result as the raw overload, without re-parsing either label.
  [[nodiscard]] static BoundedDistance query(std::uint64_t k,
                                             const KDistanceAttachedLabel& lu,
                                             const KDistanceAttachedLabel& lv);

  /// Linear-scan reference on attached labels (differential testing).
  [[nodiscard]] static BoundedDistance query_linear(
      std::uint64_t k, const KDistanceAttachedLabel& lu,
      const KDistanceAttachedLabel& lv);

 private:
  std::uint64_t k_;
  bits::LabelArena labels_;
};

}  // namespace treelab::core
