// AlstrupScheme — the 1/2 log^2 n + O(log n log log n) distance labeling of
// Alstrup, Gørtz, Halvorsen and Porat [ICALP'16], i.e. the distance-array
// framework of Section 3.1 with *unmodified* arrays.
//
// The label of u stores its root distance, its NCA label (Lemma 2.1), and
// the monotone sequence R_1 <= ... <= R_k where R_j is the root distance of
// the branch node of the j-th light edge on the root-to-u path (equivalent,
// up to reversible arithmetic, to the suffix sums of the distance array
// D(u); see Lemma 3.1). Gaps telescope to sum_i log d(l_i(u)) ~ 1/2 log^2 n
// bits. Queried via domination: if u dominates v then
// root_distance(NCA(u,v)) = R_{lightdepth(u,v)+1}(u).
//
// This is the scheme the paper proves is optimal *among universal-tree /
// level-ancestor style schemes* and then beats by a factor ~2 (FgnwScheme).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "bits/label_arena.hpp"
#include "bits/monotone.hpp"
#include "core/labeling.hpp"
#include "core/tree_scaffold.hpp"
#include "nca/nca_labeling.hpp"
#include "tree/tree.hpp"

namespace treelab::core {

/// A pre-parsed Alstrup label for repeated queries: root distance, attached
/// NCA label, and the branch-distance sequence R_1..R_k. After the one-time
/// attach, each query is the NCA first-differing-bit scan plus one O(1)
/// MonotoneSeq lookup — no re-decoding of the raw bits.
/// Produced by AlstrupScheme::attach().
///
/// It owns one copy of its label, and its NCA label and R sequence are views
/// of that copy. So it is move-only: a copy would view the source's bits and
/// dangle once the source is gone. A move keeps the bits where they are.
class AlstrupAttachedLabel {
 public:
  AlstrupAttachedLabel() = default;
  AlstrupAttachedLabel(AlstrupAttachedLabel&&) noexcept = default;
  AlstrupAttachedLabel& operator=(AlstrupAttachedLabel&&) noexcept = default;
  AlstrupAttachedLabel(const AlstrupAttachedLabel&) = delete;
  AlstrupAttachedLabel& operator=(const AlstrupAttachedLabel&) = delete;
  ~AlstrupAttachedLabel() = default;

  [[nodiscard]] std::uint64_t root_distance() const noexcept { return rd_; }

 private:
  friend class AlstrupScheme;
  bits::BitVec raw_;
  std::uint64_t rd_ = 0;
  nca::AttachedNcaLabel nca_;  // views raw_
  bits::MonotoneSeq rs_;       // views raw_
};

/// Tuning knobs for AlstrupScheme. `weights` selects the Gilbert–Moore
/// weight policy of the embedded NCA labeling: kExact is the paper's
/// construction; kStablePow2 is the edit-stable variant consumed by
/// IncrementalRelabeler (labels a hair larger, identical query semantics —
/// the label bits are self-describing, so readers need no flag).
struct AlstrupOptions {
  nca::CodeWeights weights = nca::CodeWeights::kExact;
  int threads = 0;  ///< emission parallelism (0 = TREELAB_THREADS / hw)
};

class AlstrupScheme {
 public:
  using Attached = AlstrupAttachedLabel;
  using Options = AlstrupOptions;

  explicit AlstrupScheme(const tree::Tree& t);

  /// Policy-selecting construction (the Tree-only overload is kExact).
  AlstrupScheme(const tree::Tree& t, Options opt);

  /// Builds from a shared scaffold (HPD + NCA labeling computed once per
  /// tree); label emission fans out over scaffold.threads() workers.
  explicit AlstrupScheme(const TreeScaffold& scaffold);

  [[nodiscard]] bits::BitSpan label(tree::NodeId v) const noexcept {
    return labels_[static_cast<std::size_t>(v)];
  }
  [[nodiscard]] const bits::LabelArena& labels() const noexcept {
    return labels_;
  }
  [[nodiscard]] LabelStats stats() const { return stats_of(labels_); }

  /// Size of the distance-array part alone (the encoded monotone sequence
  /// R_1..R_k) — the ~1/2 log^2 n dominant term the paper's comparison is
  /// about, without the shared O(log n) NCA/header overhead.
  [[nodiscard]] const LabelStats& distance_payload_stats() const noexcept {
    return payload_;
  }

  /// Exact weighted distance from labels alone.
  [[nodiscard]] static std::uint64_t query(bits::BitSpan lu, bits::BitSpan lv);

  /// One-time parse for repeated queries against the same label.
  [[nodiscard]] static AlstrupAttachedLabel attach(bits::BitSpan l);

  /// Same result as the raw overload, without re-parsing either label.
  [[nodiscard]] static std::uint64_t query(const AlstrupAttachedLabel& lu,
                                           const AlstrupAttachedLabel& lv);

 private:
  void build(const tree::Tree& t, const tree::HeavyPathDecomposition& hpd,
             const nca::NcaLabeling& nca, int threads);

  bits::LabelArena labels_;
  LabelStats payload_;
};

/// Emits one Alstrup label: delta-coded root distance, length-prefixed NCA
/// label, then the branch-distance MonotoneSeq. Returns the payload
/// (branch-sequence) bit count. Single definition of the label layout,
/// shared between AlstrupScheme's bulk build and IncrementalRelabeler's
/// dirty-label re-emission.
std::uint32_t emit_alstrup_label(bits::BitWriter& w, std::uint64_t root_dist,
                                 bits::BitSpan nca_label,
                                 std::span<const std::uint64_t> branch_rd);

}  // namespace treelab::core
