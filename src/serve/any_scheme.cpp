#include "serve/any_scheme.hpp"

#include <charconv>
#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <utility>

#include "core/alstrup_scheme.hpp"
#include "core/approx_scheme.hpp"
#include "core/fgnw_scheme.hpp"
#include "core/kdistance_scheme.hpp"
#include "core/peleg_scheme.hpp"

namespace treelab::serve {

class AnyScheme::Impl {
 public:
  explicit Impl(std::string name) : name_(std::move(name)) {}
  virtual ~Impl() = default;

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] virtual Dist query_raw(bits::BitSpan lu,
                                       bits::BitSpan lv) const = 0;
  [[nodiscard]] virtual AttachedPtr attach(bits::BitSpan l) const = 0;
  [[nodiscard]] virtual Dist query_attached(const Attached& lu,
                                            const Attached& lv) const = 0;

 private:
  std::string name_;
};

namespace {

/// Value of `key` inside a "k1=v1 k2=v2"-style params string (the exact
/// layout treelab writes is a single pair, but any separator works: the
/// match is on "key=" at a token start). Empty optional when absent.
std::optional<std::string_view> find_param(std::string_view params,
                                           std::string_view key) {
  std::size_t pos = 0;
  while (pos < params.size()) {
    const std::size_t eq = params.find('=', pos);
    if (eq == std::string_view::npos) break;
    const std::string_view k = params.substr(pos, eq - pos);
    std::size_t end = params.find_first_of(", ;", eq + 1);
    if (end == std::string_view::npos) end = params.size();
    if (k == key) return params.substr(eq + 1, end - eq - 1);
    pos = end + (end < params.size() ? 1 : 0);
  }
  return std::nullopt;
}

std::string_view param_value(std::string_view params, std::string_view key) {
  if (const auto v = find_param(params, key)) return *v;
  throw std::invalid_argument("AnyScheme: params missing '" +
                              std::string(key) + "=' (got '" +
                              std::string(params) + "')");
}

std::uint64_t parse_u64(std::string_view s, const char* what) {
  std::uint64_t v = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || ptr != s.data() + s.size())
    throw std::invalid_argument(std::string("AnyScheme: bad ") + what +
                                " value '" + std::string(s) + "'");
  return v;
}

double parse_double(std::string_view s, const char* what) {
  const std::string buf(s);
  char* end = nullptr;
  const double v = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size() || buf.empty())
    throw std::invalid_argument(std::string("AnyScheme: bad ") + what +
                                " value '" + buf + "'");
  return v;
}

/// Cache-accounting estimate: attached forms hold at most one copy of the
/// raw bits plus decoded arrays roughly proportional to them, charged as
/// 4x raw bytes. Real heap per charged byte (mallinfo2 around attaching
/// every label of one random tree, n = 2^14 and 2^18, k = 64, eps = 1/8)
/// measured 1.57-1.65x for fgnw, 1.28-1.31x for kdist, and 0.86-1.19x for
/// alstrup, approx and peleg, so a full cache holds up to ~1.65x its byte
/// budget.
constexpr std::size_t kAttachedExpansion = 4;

/// The per-scheme dispatchers. Each carries the scheme-wide constants and
/// maps the concrete query result onto Dist.
struct FgnwDispatch {
  using Scheme = core::FgnwScheme;
  static Dist to_dist(std::uint64_t d) { return {true, d}; }
  [[nodiscard]] Dist query(bits::BitSpan a, bits::BitSpan b) const {
    return to_dist(Scheme::query(a, b));
  }
  [[nodiscard]] Scheme::Attached attach(bits::BitSpan l) const {
    return Scheme::attach(l);
  }
  [[nodiscard]] Dist query(const Scheme::Attached& a,
                           const Scheme::Attached& b) const {
    return to_dist(Scheme::query(a, b));
  }
};

struct AlstrupDispatch {
  using Scheme = core::AlstrupScheme;
  [[nodiscard]] Dist query(bits::BitSpan a, bits::BitSpan b) const {
    return {true, Scheme::query(a, b)};
  }
  [[nodiscard]] Scheme::Attached attach(bits::BitSpan l) const {
    return Scheme::attach(l);
  }
  [[nodiscard]] Dist query(const Scheme::Attached& a,
                           const Scheme::Attached& b) const {
    return {true, Scheme::query(a, b)};
  }
};

struct PelegDispatch {
  using Scheme = core::PelegScheme;
  [[nodiscard]] Dist query(bits::BitSpan a, bits::BitSpan b) const {
    return {true, Scheme::query(a, b)};
  }
  [[nodiscard]] Scheme::Attached attach(bits::BitSpan l) const {
    return Scheme::attach(l);
  }
  [[nodiscard]] Dist query(const Scheme::Attached& a,
                           const Scheme::Attached& b) const {
    return {true, Scheme::query(a, b)};
  }
};

/// Owns its power table: built once when the handle is made, shared by
/// every copy of the handle and every thread that queries through it.
struct ApproxDispatch {
  using Scheme = core::ApproxScheme;
  core::RoundUpTable powers;
  [[nodiscard]] Dist query(bits::BitSpan a, bits::BitSpan b) const {
    return {true, Scheme::query(powers, a, b)};
  }
  [[nodiscard]] Scheme::Attached attach(bits::BitSpan l) const {
    return Scheme::attach(l);
  }
  [[nodiscard]] Dist query(const Scheme::Attached& a,
                           const Scheme::Attached& b) const {
    return {true, Scheme::query(powers, a, b)};
  }
};

struct KDistanceDispatch {
  using Scheme = core::KDistanceScheme;
  std::uint64_t k;
  static Dist to_dist(core::BoundedDistance r) {
    return {r.within, r.distance};
  }
  [[nodiscard]] Dist query(bits::BitSpan a, bits::BitSpan b) const {
    return to_dist(Scheme::query(k, a, b));
  }
  [[nodiscard]] Scheme::Attached attach(bits::BitSpan l) const {
    return Scheme::attach(k, l);
  }
  [[nodiscard]] Dist query(const Scheme::Attached& a,
                           const Scheme::Attached& b) const {
    return to_dist(Scheme::query(k, a, b));
  }
};

/// One address per scheme kind, the identity Attached::scheme_key()
/// carries. All handles of the same kind share it (mixing across same-kind
/// handles stays undetectable, as documented on AnyScheme).
template <typename D>
struct SchemeKeyTag {
  static constexpr char tag = 0;
};

template <typename D>
class SchemeImpl final : public AnyScheme::Impl {
 public:
  SchemeImpl(std::string name, D dispatch)
      : Impl(std::move(name)), d_(std::move(dispatch)) {}

  struct Holder final : AnyScheme::Attached {
    Holder(typename D::Scheme::Attached l, std::size_t c)
        : Attached(&SchemeKeyTag<D>::tag), label(std::move(l)), cost(c) {}
    typename D::Scheme::Attached label;
    std::size_t cost;
    [[nodiscard]] std::size_t cost_bytes() const noexcept override {
      return cost;
    }
  };

  [[nodiscard]] Dist query_raw(bits::BitSpan lu,
                               bits::BitSpan lv) const override {
    return d_.query(lu, lv);
  }

  [[nodiscard]] AnyScheme::AttachedPtr attach(bits::BitSpan l) const override {
    const std::size_t cost =
        sizeof(Holder) + kAttachedExpansion * ((l.size() + 7) / 8);
    return std::make_shared<const Holder>(d_.attach(l), cost);
  }

  [[nodiscard]] Dist query_attached(const AnyScheme::Attached& lu,
                                    const AnyScheme::Attached& lv)
      const override {
    if (lu.scheme_key() != &SchemeKeyTag<D>::tag ||
        lv.scheme_key() != &SchemeKeyTag<D>::tag)
      throw std::invalid_argument(
          "AnyScheme: attached label belongs to a different scheme");
    return d_.query(static_cast<const Holder&>(lu).label,
                    static_cast<const Holder&>(lv).label);
  }

 private:
  D d_;
};

template <typename D>
std::shared_ptr<const AnyScheme::Impl> make_impl(std::string_view name,
                                                 D dispatch) {
  return std::make_shared<const SchemeImpl<D>>(std::string(name),
                                               std::move(dispatch));
}

}  // namespace

AnyScheme AnyScheme::make(std::string_view scheme, std::string_view params) {
  if (scheme == "fgnw") return AnyScheme(make_impl(scheme, FgnwDispatch{}));
  if (scheme == "alstrup")
    return AnyScheme(make_impl(scheme, AlstrupDispatch{}));
  if (scheme == "peleg") return AnyScheme(make_impl(scheme, PelegDispatch{}));
  if (scheme == "kdist" || scheme == "kdistance") {
    const std::uint64_t k = parse_u64(param_value(params, "k"), "k");
    if (k < 1) throw std::invalid_argument("AnyScheme: k must be >= 1");
    return AnyScheme(make_impl(scheme, KDistanceDispatch{k}));
  }
  if (scheme == "approx") {
    double eps = 0;
    if (const auto inv_s = find_param(params, "inv_eps")) {
      const std::uint64_t inv = parse_u64(*inv_s, "inv_eps");
      if (inv < 1)
        throw std::invalid_argument("AnyScheme: inv_eps must be >= 1");
      eps = 1.0 / static_cast<double>(inv);
    } else {
      eps = parse_double(param_value(params, "eps"), "eps");
    }
    // The table rejects an eps outside (0, 1].
    return AnyScheme(
        make_impl(scheme, ApproxDispatch{core::RoundUpTable(eps)}));
  }
  throw std::invalid_argument("AnyScheme: unknown scheme tag '" +
                              std::string(scheme) + "'");
}

const AnyScheme::Impl& AnyScheme::impl() const {
  if (impl_ == nullptr) throw std::logic_error("AnyScheme: empty handle");
  return *impl_;
}

const std::string& AnyScheme::name() const { return impl().name(); }

Dist AnyScheme::query(bits::BitSpan lu, bits::BitSpan lv) const {
  return impl().query_raw(lu, lv);
}

AnyScheme::AttachedPtr AnyScheme::attach(bits::BitSpan l) const {
  return impl().attach(l);
}

Dist AnyScheme::query(const Attached& lu, const Attached& lv) const {
  return impl().query_attached(lu, lv);
}

}  // namespace treelab::serve
