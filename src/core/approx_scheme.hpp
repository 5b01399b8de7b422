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
//
// A query reads (1+eps/2)^e back from a table of powers built once with the
// scheme-wide eps (RoundUpTable), so an answer is word operations plus one
// table load rather than a powl call.
#pragma once

#include <cstdint>
#include <vector>

#include "bits/label_arena.hpp"
#include "core/labeling.hpp"
#include "core/tree_scaffold.hpp"
#include "nca/nca_labeling.hpp"
#include "tree/tree.hpp"

namespace treelab::core {

/// The scheme-wide constant of a (1+eps)-approximate query: the powers
/// (1+eps/2)^e, e = 0, 1, ..., up to the first that reaches 2^64 (733 of
/// them at eps = 1/8), capped at kMaxEntries (64 KB) for tiny eps. Every
/// entry is the exact std::pow value, so the builder's rounding
/// (round_up_exp) and a query's read-back (power) agree bit for bit with
/// the formula; past the cap both fall back to std::pow. Built once per
/// scheme or serving handle, never on the query path.
class RoundUpTable {
 public:
  static constexpr std::size_t kMaxEntries = 4096;

  /// Throws std::invalid_argument unless eps is in (0, 1].
  explicit RoundUpTable(double eps);

  [[nodiscard]] double eps() const noexcept { return eps_; }
  [[nodiscard]] std::size_t size() const noexcept { return powers_.size(); }

  /// Smallest integer e with (1+eps/2)^e >= x.
  [[nodiscard]] std::uint32_t round_up_exp(std::uint64_t x) const;

  /// (1+eps/2)^e as std::pow computes it: an over-estimate, by a factor of
  /// at most 1+eps/2, of any x whose rounding exponent is e. Kept real:
  /// rounding it up to an integer would add +1 absolute error and break
  /// the multiplicative guarantee on small distances.
  [[nodiscard]] long double power(std::uint32_t e) const {
    return e < powers_.size() ? powers_[e] : pow_past_cap(e);
  }

 private:
  [[nodiscard]] long double pow_past_cap(std::uint32_t e) const;

  double eps_;
  long double base_;
  std::vector<long double> powers_;
};

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

  [[nodiscard]] double eps() const noexcept { return powers_.eps(); }
  /// The scheme-wide constant its queries take.
  [[nodiscard]] const RoundUpTable& powers() const noexcept { return powers_; }
  [[nodiscard]] bits::BitSpan label(tree::NodeId v) const noexcept {
    return labels_[static_cast<std::size_t>(v)];
  }
  [[nodiscard]] const bits::LabelArena& labels() const noexcept {
    return labels_;
  }
  [[nodiscard]] LabelStats stats() const { return stats_of(labels_); }

  /// A value in [d(u,v), (1+eps) d(u,v)], from labels alone. `powers` is
  /// the table of the eps the labels were built with (the scheme-wide
  /// constant). Throws bits::DecodeError on malformed input, including an
  /// exponent >= 2^32 or an estimate outside [0, 2^64).
  [[nodiscard]] static std::uint64_t query(const RoundUpTable& powers,
                                           bits::BitSpan lu, bits::BitSpan lv);

  /// One-time parse for repeated queries against the same label.
  [[nodiscard]] static ApproxAttachedLabel attach(bits::BitSpan l);

  /// Same result as the raw overload, without re-parsing either label.
  [[nodiscard]] static std::uint64_t query(const RoundUpTable& powers,
                                           const ApproxAttachedLabel& lu,
                                           const ApproxAttachedLabel& lv);

 private:
  RoundUpTable powers_;
  bits::LabelArena labels_;
};

}  // namespace treelab::core
