// ApproxScheme — (1+eps)-approximate distance labeling (Section 5,
// Theorem 1.4): O(log(1/eps) * log n)-bit labels returning a value in
// [d(u,v), (1+eps) d(u,v)].
//
// Per Alstrup et al. [ICALP'16], the label of v stores d(v, root), an NCA
// label, and the rounded distances |~ d(v, v_i) ~|_{1+eps/2} to each
// significant ancestor v_i. For a query with NCA w, w is a significant
// ancestor of the dominating endpoint u, so
//     2 * |~ d(u,w) ~|  + d(v,root) - d(u,root)
// over-estimates d(u,v) by at most eps * d(u,v).
//
// The paper's improvement over [ICALP'16] is purely in the encoding of the
// rounding exponents e_i = ceil(log_{1+eps/2} d(v, v_i)): the original
// stores them in unary (Theta(1/eps * log n) bits); using Lemma 2.2 costs
// O(log(1/eps) * log n). Both encodings are implemented; the bench compares
// them (the T1-approx ablation).
#pragma once

#include <cstdint>
#include <vector>

#include "bits/label_arena.hpp"
#include "core/labeling.hpp"
#include "core/tree_scaffold.hpp"
#include "nca/nca_labeling.hpp"
#include "tree/tree.hpp"

namespace treelab::core {

/// A pre-parsed approximate-distance label for repeated queries: root
/// distance, attached NCA label, and the fully decoded rounding-exponent
/// chain (both the monotone and the unary encodings decode into the same
/// array). After the one-time attach, each query is the NCA comparison plus
/// one array lookup. Produced by ApproxScheme::attach().
///
/// It owns one copy of the label's NCA part, and its NCA label views that
/// copy. So it is move-only: a copy would view the source's bits and dangle
/// once the source is gone. A move keeps the bits where they are.
class ApproxAttachedLabel {
 public:
  ApproxAttachedLabel() = default;
  ApproxAttachedLabel(ApproxAttachedLabel&&) noexcept = default;
  ApproxAttachedLabel& operator=(ApproxAttachedLabel&&) noexcept = default;
  ApproxAttachedLabel(const ApproxAttachedLabel&) = delete;
  ApproxAttachedLabel& operator=(const ApproxAttachedLabel&) = delete;
  ~ApproxAttachedLabel() = default;

  [[nodiscard]] std::uint64_t root_distance() const noexcept { return rd_; }

 private:
  friend class ApproxScheme;
  std::uint64_t rd_ = 0;
  bits::BitVec nca_bits_;
  nca::AttachedNcaLabel nca_;  // views nca_bits_
  std::vector<std::uint32_t> exps_;
};

class ApproxScheme {
 public:
  using Attached = ApproxAttachedLabel;

  enum class Encoding : std::uint8_t {
    kMonotone,  // Lemma 2.2 (this paper): O(log(1/eps) log n)
    kUnary,     // [ICALP'16] baseline:    Theta(1/eps log n)
  };

  /// Builds (1+eps)-approximate labels; eps in (0, 1].
  ApproxScheme(const tree::Tree& t, double eps,
               Encoding enc = Encoding::kMonotone);

  /// Builds from a shared scaffold (HPD + NCA labeling computed once per
  /// tree); label emission fans out over scaffold.threads() workers.
  ApproxScheme(const TreeScaffold& scaffold, double eps,
               Encoding enc = Encoding::kMonotone);

  [[nodiscard]] double eps() const noexcept { return eps_; }
  [[nodiscard]] bits::BitSpan label(tree::NodeId v) const noexcept {
    return labels_[static_cast<std::size_t>(v)];
  }
  [[nodiscard]] const bits::LabelArena& labels() const noexcept {
    return labels_;
  }
  [[nodiscard]] LabelStats stats() const { return stats_of(labels_); }

  /// A value in [d(u,v), (1+eps) d(u,v)], from labels alone (eps is the
  /// scheme-wide constant the labels were built with).
  [[nodiscard]] static std::uint64_t query(double eps, bits::BitSpan lu,
                                           bits::BitSpan lv);

  /// One-time parse for repeated queries against the same label.
  [[nodiscard]] static ApproxAttachedLabel attach(bits::BitSpan l);

  /// Same result as the raw overload, without re-parsing either label.
  [[nodiscard]] static std::uint64_t query(double eps,
                                           const ApproxAttachedLabel& lu,
                                           const ApproxAttachedLabel& lv);

 private:
  double eps_;
  bits::LabelArena labels_;
};

}  // namespace treelab::core
