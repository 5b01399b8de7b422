// NCA labeling scheme (Lemma 2.1): O(log n)-bit labels from which, given the
// labels of u and v alone, one computes lightdepth(u, v) (the light depth of
// NCA(u, v)), the ancestor/descendant relationship, and the relative order
// of the two branches — everything the distance schemes of Sections 3-5
// consume.
//
// Construction (Alstrup et al. style, adapted to the paper's heavy path
// variant): a node's label is the concatenation, over the light levels of
// its root path, of
//     <position code> <light-choice code> ... <position code>,
// where the position code locates the branch (or the node itself, at the
// last level) on the current heavy path and the light-choice code selects
// the light child. Both codes are Gilbert–Moore alphabetic codes weighted by
// subtree sizes, so each level costs ~log(level size / next level size) + O(1)
// bits and the whole label telescopes to O(log n). Codes are prefix-free and
// order-preserving, so two labels can be compared by locating their first
// differing bit; a MonotoneSeq of component boundaries (Lemma 2.2) maps that
// bit position back to a light level in constant time.
//
// Labels live in a pooled LabelArena (one contiguous buffer, word-aligned
// views) and per-node emission can run on several threads; the emitted bits
// are identical for every thread count. A distance label embeds its node's
// NCA label as a field, which queries parse in place as a sub-view.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "bits/bitvec.hpp"
#include "bits/label_arena.hpp"
#include "bits/monotone.hpp"
#include "nca/heavy_path_codes.hpp"
#include "tree/hpd.hpp"
#include "tree/tree.hpp"

namespace treelab::nca {

/// Emits one Lemma 2.1 label from its path's code machinery: the MonotoneSeq
/// of component boundaries, the concatenated branch prefix, then the terminal
/// position codeword. This is the single definition of the NCA label layout —
/// NcaLabeling's bulk build and core::IncrementalRelabeler's dirty-label
/// re-emission both call it, which is what makes "incremental == from
/// scratch" a structural property rather than a hoped-for one.
/// `bounds_scratch` is caller-owned scratch (cleared and refilled).
void emit_nca_label(bits::BitWriter& w, bits::BitSpan prefix,
                    std::span<const std::uint64_t> prefix_bounds,
                    bits::Codeword terminal,
                    std::vector<std::uint64_t>& bounds_scratch);

struct NcaResult {
  enum class Rel : std::uint8_t {
    kEqual,      // identical labels: u == v
    kUAncestor,  // u is a proper ancestor of v
    kVAncestor,  // v is a proper ancestor of u
    kDiverge,    // NCA is a proper ancestor of both
  };
  Rel rel = Rel::kEqual;
  /// lightdepth(NCA(u, v)); for ancestor cases this is the ancestor's light
  /// depth.
  std::int32_t lightdepth = 0;
  /// In the kDiverge case: true if u's branch symbol sorts before v's
  /// (u branches strictly higher on the shared heavy path, or at the same
  /// node with an earlier light child).
  bool u_first = false;
  /// In the kDiverge case: true if both branch at the same path node (their
  /// first differing component is a light-choice code).
  bool same_branch_node = false;
};

/// A parsed NCA label: its component boundaries and its code area, both
/// views of the label it was parsed from, so that each query is a
/// first-differing-bit scan plus O(1) boundary lookups — the word-RAM
/// constant-time regime of Lemma 2.1. Produced by NcaLabeling::attach().
class AttachedNcaLabel {
 public:
  [[nodiscard]] std::int32_t lightdepth() const noexcept;

 private:
  friend class NcaLabeling;
  bits::MonotoneSeq bounds_;  // component end positions, in code bits
  bits::BitSpan code_;        // the concatenated position/light codes
};

class NcaLabeling {
 public:
  using Attached = AttachedNcaLabel;

  /// Builds labels for every node of `hpd.tree()` on up to `threads`
  /// threads (1 = serial, 0 = TREELAB_THREADS / hardware default); the
  /// label bits do not depend on the thread count. `weights` selects the
  /// Gilbert–Moore weight policy (see nca::CodeWeights); queries accept
  /// labels from either policy — the bits are self-describing.
  explicit NcaLabeling(const tree::HeavyPathDecomposition& hpd,
                       int threads = 1,
                       CodeWeights weights = CodeWeights::kExact);

  [[nodiscard]] bits::BitSpan label(tree::NodeId v) const noexcept {
    return labels_[static_cast<std::size_t>(v)];
  }

  [[nodiscard]] std::size_t num_labels() const noexcept {
    return labels_.size();
  }

  /// Decodes two labels. Throws bits::DecodeError on malformed input.
  [[nodiscard]] static NcaResult query(bits::BitSpan lu, bits::BitSpan lv);

  /// Parses a label for repeated queries, copying nothing: the result
  /// views `l` and is valid only while the storage under `l` lives. A
  /// caller that keeps it longer than the label (an attached distance
  /// label) attaches to its own copy. Throws bits::DecodeError on
  /// malformed input.
  [[nodiscard]] static AttachedNcaLabel attach(bits::BitSpan l);

  /// Same result as query(BitSpan, BitSpan) without re-parsing.
  [[nodiscard]] static NcaResult query(const AttachedNcaLabel& lu,
                                       const AttachedNcaLabel& lv);

 private:
  bits::LabelArena labels_;
};

}  // namespace treelab::nca
