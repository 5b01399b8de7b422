// AnyScheme — type-erased dispatch over the five distance labeling schemes,
// keyed by the scheme tag a LabelStore header carries. The serving layer
// (ForestIndex) holds a heterogeneous forest: one tree's labels may be FGNW,
// the next tree's k-distance; AnyScheme lets it store one handle per tree
// and route raw and attached queries without knowing the concrete scheme.
//
// Scheme-wide constants (k, and approx's table of (1+eps/2) powers) are
// parsed out of the LabelStore params string once, at make() time, and
// baked into the handle — exactly the "labels plus scheme-wide constants"
// query model every scheme defines.
// Attached labels are produced and consumed through the same handle; mixing
// attached labels across scheme *kinds* throws (mixing across two handles of
// the same kind but different trees is undetectable and yields garbage, as
// with the concrete schemes themselves).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "bits/bitvec.hpp"

namespace treelab::serve {

/// A scheme-agnostic query answer. Exact and approximate schemes always
/// report a value (`within` true); the k-distance scheme reports
/// within == false when d(u,v) > k, in which case `value` is meaningless.
struct Dist {
  bool within = true;
  std::uint64_t value = 0;

  friend bool operator==(const Dist&, const Dist&) = default;
};

class AnyScheme {
 public:
  /// A type-erased attached (pre-parsed) label, produced by attach().
  class Attached {
   public:
    virtual ~Attached() = default;
    /// Estimated resident bytes, for byte-bounded cache accounting: the
    /// holder's own footprint plus a fixed expansion factor over the raw
    /// label bytes (attached forms decode length-proportional arrays).
    [[nodiscard]] virtual std::size_t cost_bytes() const noexcept = 0;
    /// Opaque identity of the scheme kind that produced this attached
    /// form. query() compares it against its own kind to reject
    /// cross-scheme mixing — one pointer compare where a dynamic_cast per
    /// label used to sit on the serving hot path.
    [[nodiscard]] const void* scheme_key() const noexcept { return key_; }

   protected:
    explicit Attached(const void* scheme_key) noexcept : key_(scheme_key) {}

   private:
    const void* key_;
  };
  using AttachedPtr = std::shared_ptr<const Attached>;

  class Impl;

  AnyScheme() = default;

  /// Builds a dispatcher from a LabelStore header. Tags: "fgnw", "alstrup",
  /// "peleg", "kdist"/"kdistance" (params must carry "k=<n>"), "approx"
  /// (params must carry "inv_eps=<n>" or "eps=<x>", 0 < eps <= 1). Throws
  /// std::invalid_argument on an unknown tag or missing/bad params.
  [[nodiscard]] static AnyScheme make(std::string_view scheme,
                                      std::string_view params);

  /// The scheme tag this dispatcher was built from. Throws std::logic_error
  /// on an empty (default-constructed or moved-from) handle, as do the
  /// query/attach entry points below.
  [[nodiscard]] const std::string& name() const;

  [[nodiscard]] explicit operator bool() const noexcept {
    return impl_ != nullptr;
  }

  /// Query from raw labels (parses both labels each call).
  [[nodiscard]] Dist query(bits::BitSpan lu, bits::BitSpan lv) const;

  /// One-time parse for repeated queries against the same label.
  [[nodiscard]] AttachedPtr attach(bits::BitSpan l) const;

  /// Same result as the raw overload, without re-parsing either label.
  /// Throws std::invalid_argument if either label was attached by a
  /// different scheme kind.
  [[nodiscard]] Dist query(const Attached& lu, const Attached& lv) const;

 private:
  explicit AnyScheme(std::shared_ptr<const Impl> impl)
      : impl_(std::move(impl)) {}

  [[nodiscard]] const Impl& impl() const;

  std::shared_ptr<const Impl> impl_;
};

}  // namespace treelab::serve
