// FgnwScheme — the paper's main contribution (Theorem 1.1): exact distance
// labels of 1/4 log^2 n + o(log^2 n) bits.
//
// Construction (Sections 3.2-3.3), implemented on the binarized tree of
// Section 2 (every original node is represented by a leaf; distances are
// preserved by weight-0 proxy edges):
//
//  * Heavy path decomposition (>= |T|/2 variant) and the collapsed tree.
//  * For each light edge e of the collapsed tree, the value
//        r(e) = d(head(f_g), branch(e))
//    is measured relative to the deepest *fragment head* f_g above the
//    branch (Section 3.3); each label carries the explicit fragment distance
//    array F so that root_distance(branch(e)) = F[g] + r(e).
//  * The bits of r(e) are split per the Slack/Thin lemmas: a fat subtree's
//    label keeps only the ~(1/2)log(n'/n)log(n') most significant bits
//    ("truncated distance"); the remaining low bits are *pushed* into the
//    accumulators of every dominated subtree hanging lower on the same heavy
//    path. Thin subtrees (n <= n'/2^8) store r(e) in full. Exceptional
//    edges store nothing (Property 3.2 never needs them).
//  * A query locates the dominating label via the NCA labeling (Lemma 2.1),
//    reconstructs r at level lightdepth+1 by combining the dominator's kept
//    bits with the pushed bits found in the dominated label's accumulator.
//    Accumulators grow in domination order, so the dominator's accumulator
//    is a prefix of the dominated one (the paper phrases the same invariant
//    with the opposite concatenation direction, as a suffix) and the pushed
//    bits sit right after that prefix. The query finishes with
//    root_distance arithmetic via the fragment array.
//
// A single label is NOT sufficient to recover the distances to all ancestors
// — this is exactly the paper's separation from level-ancestor schemes and
// universal trees (Theorem 1.2).
#pragma once

#include <cstdint>
#include <vector>

#include "bits/label_arena.hpp"
#include "bits/monotone.hpp"
#include "core/labeling.hpp"
#include "core/tree_scaffold.hpp"
#include "nca/nca_labeling.hpp"
#include "tree/tree.hpp"

namespace treelab::core {

/// A pre-parsed FGNW label for repeated queries: the NCA boundaries,
/// fragment array, and per-level records are attached once, after which
/// each query performs O(1) lookups plus the first-differing-bit scan of
/// the NCA comparison — the word-RAM constant-time regime of Theorem 1.1.
/// Produced by FgnwScheme::attach().
///
/// It owns one copy of its label, and its NCA label and fragment array are
/// views of that copy. So it is move-only: a copy would view the source's
/// bits and dangle once the source is gone. A move keeps the bits where
/// they are.
class FgnwAttachedLabel {
 public:
  FgnwAttachedLabel() = default;
  FgnwAttachedLabel(FgnwAttachedLabel&&) noexcept = default;
  FgnwAttachedLabel& operator=(FgnwAttachedLabel&&) noexcept = default;
  FgnwAttachedLabel(const FgnwAttachedLabel&) = delete;
  FgnwAttachedLabel& operator=(const FgnwAttachedLabel&) = delete;
  ~FgnwAttachedLabel() = default;

 private:
  friend class FgnwScheme;
  struct Level {
    bool exceptional = false;
    std::uint32_t frag = 0;
    int pushed_count = 0;
    int kept_count = 0;
    std::uint64_t kept_bits = 0;
    std::size_t acc_off = 0;
    std::size_t acc_len = 0;
  };
  bits::BitVec raw_;
  std::uint64_t rd_ = 0;
  nca::AttachedNcaLabel nca_;  // views raw_
  bits::MonotoneSeq frag_;     // views raw_
  std::vector<Level> levels_;
};

/// Tuning knobs for FgnwScheme: the Section 3.3 fragment parameter B
/// (0 = sqrt(log2 n)) and the Thin-lemma threshold exponent (paper: 8,
/// i.e. thin iff n <= n'/2^8). Exposed for the ablation bench.
struct FgnwOptions {
  int fragment_exponent = 0;    ///< B; 0 = ceil(sqrt(log2 n))
  int thin_exponent = 8;        ///< subtree is thin iff n * 2^thin <= n'
  bool use_classic_hpd = false; ///< ablation: classic HPD variant
};

class FgnwScheme {
 public:
  using Options = FgnwOptions;
  using Attached = FgnwAttachedLabel;

  explicit FgnwScheme(const tree::Tree& t, Options opt = Options());

  /// Builds from a shared scaffold (binarize → HPD → collapsed tree → NCA
  /// labeling computed once per tree); label emission fans out over
  /// scaffold.threads() workers. The classic-HPD ablation builds its own
  /// decomposition pieces (the scaffold caches only the paper variant).
  explicit FgnwScheme(const TreeScaffold& scaffold, Options opt = Options());

  /// Label of *original* node v (internally: the label of its proxy leaf in
  /// the binarized tree).
  [[nodiscard]] bits::BitSpan label(tree::NodeId v) const noexcept {
    return labels_[static_cast<std::size_t>(v)];
  }
  [[nodiscard]] const bits::LabelArena& labels() const noexcept {
    return labels_;
  }
  [[nodiscard]] LabelStats stats() const { return stats_of(labels_); }

  /// Size of the truncated-distance payload alone: per label, the sum of
  /// kept bits over its chain of light edges. This is the ~1/4 log^2 n
  /// dominant term of Theorem 1.1; comparing it against
  /// AlstrupScheme::distance_payload_stats() exhibits the paper's ~2x
  /// separation at feasible n, where total label sizes are still dominated
  /// by shared O(log n)-per-level bookkeeping.
  [[nodiscard]] const LabelStats& distance_payload_stats() const noexcept {
    return payload_;
  }

  /// Exact weighted distance from labels alone.
  [[nodiscard]] static std::uint64_t query(bits::BitSpan lu, bits::BitSpan lv);

  /// One-time parse for repeated queries against the same label.
  [[nodiscard]] static FgnwAttachedLabel attach(bits::BitSpan l);

  /// Same result as the BitVec overload, without re-parsing either label.
  [[nodiscard]] static std::uint64_t query(const FgnwAttachedLabel& lu,
                                           const FgnwAttachedLabel& lv);

  /// Fig. 3 instrumentation: how the Slack/Thin accounting played out.
  struct BuildInfo {
    std::size_t fat_edges = 0;
    std::size_t thin_edges = 0;
    std::size_t exceptional_edges = 0;
    std::size_t total_kept_bits = 0;    // over distinct light edges
    std::size_t total_pushed_bits = 0;  // over distinct light edges
    std::size_t max_accumulator_bits = 0;
    std::int32_t max_light_depth = 0;
    std::int32_t fragment_levels = 0;   // max fragment index used
    std::size_t binarized_size = 0;
  };
  [[nodiscard]] const BuildInfo& build_info() const noexcept { return info_; }

 private:
  bits::LabelArena labels_;
  LabelStats payload_;
  BuildInfo info_;
};

}  // namespace treelab::core
