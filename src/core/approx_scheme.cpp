#include "core/approx_scheme.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "bits/bitio.hpp"
#include "bits/monotone.hpp"
#include "nca/nca_labeling.hpp"
#include "tree/hpd.hpp"

namespace treelab::core {

using bits::BitReader;
using bits::BitSpan;
using bits::BitWriter;
using bits::LabelArena;
using bits::MonotoneSeq;
using nca::NcaLabeling;
using nca::NcaResult;
using tree::HeavyPathDecomposition;
using tree::kNoNode;
using tree::NodeId;
using tree::Tree;

namespace {

/// Smallest integer e with base^e >= x (x >= 2), by log estimate plus
/// guard loops against floating point drift on both sides.
std::uint32_t round_up_exp_slow(long double base, std::uint64_t x) {
  auto e = static_cast<std::int64_t>(
      std::ceil(std::log(static_cast<long double>(x)) / std::log(base)));
  while (e > 0 && std::pow(base, static_cast<long double>(e - 1)) >=
                      static_cast<long double>(x))
    --e;
  while (std::pow(base, static_cast<long double>(e)) <
         static_cast<long double>(x))
    ++e;
  return static_cast<std::uint32_t>(std::max<std::int64_t>(0, e));
}

/// A stored rounding exponent, rejected when it does not fit the 32 bits
/// the builder writes and the attached form keeps.
std::uint32_t checked_exp(std::uint64_t e) {
  if (e > std::numeric_limits<std::uint32_t>::max())
    throw bits::DecodeError("approx label: implausible rounding exponent");
  return static_cast<std::uint32_t>(e);
}

/// d(u,v) = 2 d(dom,w) + rd_oth - rd_dom with d(dom,w) rounded up to
/// `approx_dw`; the rounding only inflates the first term, by a factor
/// <= 1 + eps/2 <= 1 + eps/(2 d(dom,w)/d), hence the floored result stays
/// in [d, (1+eps) d]. The difference is taken in long double, which holds
/// any 64-bit integer exactly, so no label can overflow it; an estimate a
/// genuine label pair cannot produce is rejected rather than converted.
std::uint64_t floor_estimate(long double approx_dw, std::uint64_t rd_dom,
                             std::uint64_t rd_oth) {
  const long double estimate =
      2.0L * approx_dw + (static_cast<long double>(rd_oth) -
                          static_cast<long double>(rd_dom));
  if (!(estimate >= 0.0L && estimate < 0x1p64L))
    throw bits::DecodeError("approx label: estimate out of range");
  return static_cast<std::uint64_t>(std::floor(estimate));
}

}  // namespace

RoundUpTable::RoundUpTable(double eps) : eps_(eps) {
  if (!(eps > 0.0) || eps > 1.0)
    throw std::invalid_argument("approx: eps must be in (0, 1]");
  const double half = eps / 2;  // the rounding uses eps/2 (see header)
  base_ = 1.0L + static_cast<long double>(half);
  powers_.push_back(1.0L);  // (1+eps/2)^0
  while (powers_.back() < 0x1p64L && powers_.size() < kMaxEntries)
    powers_.push_back(
        std::pow(base_, static_cast<long double>(powers_.size())));
}

std::uint32_t RoundUpTable::round_up_exp(std::uint64_t x) const {
  if (x <= 1) return 0;
  if (powers_.back() < static_cast<long double>(x))
    return round_up_exp_slow(base_, x);
  const auto it = std::lower_bound(powers_.begin(), powers_.end(),
                                   static_cast<long double>(x));
  return static_cast<std::uint32_t>(it - powers_.begin());
}

long double RoundUpTable::pow_past_cap(std::uint32_t e) const {
  return std::pow(base_, static_cast<long double>(e));
}

ApproxScheme::ApproxScheme(const Tree& t, double eps, Encoding enc)
    : ApproxScheme(TreeScaffold(t), eps, enc) {}

ApproxScheme::ApproxScheme(const TreeScaffold& scaffold, double eps,
                           Encoding enc)
    : powers_(eps) {
  const Tree& t = scaffold.tree();
  const HeavyPathDecomposition& hpd = scaffold.hpd();
  const NcaLabeling& nca = scaffold.nca();

  // Per path: rounding exponents of d(v, v_i) depend on v, so they are
  // computed per node by walking its significant ancestor chain.
  labels_ = LabelArena::build(
      static_cast<std::size_t>(t.size()), scaffold.threads(),
      [&t, &hpd, &nca, this, enc,
       exps = std::vector<std::uint64_t>{}](std::size_t i,
                                            BitWriter& w) mutable {
        const auto v = static_cast<NodeId>(i);
        exps.clear();
        NodeId cur = v;
        std::uint64_t dist = 0;
        for (;;) {
          const NodeId head = hpd.head_of(cur);
          const NodeId up = t.parent(head);
          if (up == kNoNode) break;
          dist += t.root_distance(cur) - t.root_distance(head) + t.weight(head);
          exps.push_back(
              powers_.round_up_exp(std::max<std::uint64_t>(1, dist)));
          cur = up;
        }

        w.put_delta0(t.root_distance(v));
        const BitSpan nl = nca.label(v);
        w.put_delta0(nl.size());
        w.append(nl);
        w.put_bit(enc == Encoding::kUnary);
        if (enc == Encoding::kUnary) {
          // [ICALP'16]-style: first exponent, then unary deltas.
          w.put_delta0(exps.size());
          std::uint64_t prev = 0;
          for (std::uint64_t e : exps) {
            w.put_unary(e - prev);
            prev = e;
          }
        } else {
          (void)MonotoneSeq::encode_to(w, exps,
                                       exps.empty() ? 0 : exps.back());
        }
      });
}

ApproxAttachedLabel ApproxScheme::attach(BitSpan l) {
  ApproxAttachedLabel out;
  BitReader r(l);
  out.rd_ = r.get_delta0();
  out.nca_bits_ = r.get_span(static_cast<std::size_t>(r.get_delta0()));
  out.nca_ = NcaLabeling::attach(out.nca_bits_);
  if (r.get_bit()) {  // unary encoding
    const std::uint64_t cnt = r.get_delta0();
    if (cnt > l.size())
      throw bits::DecodeError("approx label: implausible chain length");
    out.exps_.reserve(static_cast<std::size_t>(cnt));
    std::uint64_t acc = 0;
    for (std::uint64_t i = 0; i < cnt; ++i) {
      acc += r.get_unary();
      out.exps_.push_back(checked_exp(acc));
    }
  } else {
    const MonotoneSeq seq = MonotoneSeq::read_from(r);
    out.exps_.reserve(seq.size());
    for (std::size_t i = 0; i < seq.size(); ++i)
      out.exps_.push_back(checked_exp(seq.get(i)));
  }
  return out;
}

std::uint64_t ApproxScheme::query(const RoundUpTable& powers,
                                  const ApproxAttachedLabel& lu,
                                  const ApproxAttachedLabel& lv) {
  const NcaResult res = NcaLabeling::query(lu.nca_, lv.nca_);
  switch (res.rel) {
    case NcaResult::Rel::kEqual:
      return 0;
    case NcaResult::Rel::kUAncestor:
      return lv.rd_ - lu.rd_;
    case NcaResult::Rel::kVAncestor:
      return lu.rd_ - lv.rd_;
    case NcaResult::Rel::kDiverge:
      break;
  }
  const ApproxAttachedLabel& dom = res.u_first ? lu : lv;
  const ApproxAttachedLabel& oth = res.u_first ? lv : lu;
  const std::size_t j =
      static_cast<std::size_t>(dom.nca_.lightdepth() - res.lightdepth);
  if (j == 0) throw bits::DecodeError("approx label: dominator at NCA");
  if (j > dom.exps_.size())
    throw bits::DecodeError("approx label: chain too short");
  return floor_estimate(powers.power(dom.exps_[j - 1]), dom.rd_, oth.rd_);
}

std::uint64_t ApproxScheme::query(const RoundUpTable& powers, BitSpan lu,
                                  BitSpan lv) {
  BitReader ru(lu), rv(lv);
  const std::uint64_t rd_u = ru.get_delta0();
  const std::uint64_t rd_v = rv.get_delta0();
  const nca::AttachedNcaLabel nu = NcaLabeling::attach(
      ru.get_span(static_cast<std::size_t>(ru.get_delta0())));
  const nca::AttachedNcaLabel nv = NcaLabeling::attach(
      rv.get_span(static_cast<std::size_t>(rv.get_delta0())));
  const NcaResult res = NcaLabeling::query(nu, nv);
  switch (res.rel) {
    case NcaResult::Rel::kEqual:
      return 0;
    case NcaResult::Rel::kUAncestor:
      return rd_v - rd_u;
    case NcaResult::Rel::kVAncestor:
      return rd_u - rd_v;
    case NcaResult::Rel::kDiverge:
      break;
  }
  // w = NCA is the j-th significant ancestor of the dominating node, where
  // j = lightdepth(dominator) - lightdepth(w).
  BitReader& rd = res.u_first ? ru : rv;
  const std::size_t j = static_cast<std::size_t>(
      (res.u_first ? nu : nv).lightdepth() - res.lightdepth);
  if (j == 0) throw bits::DecodeError("approx label: dominator at NCA");
  std::uint32_t e = 0;
  if (rd.get_bit()) {  // unary encoding
    const std::uint64_t cnt = rd.get_delta0();
    if (j > cnt) throw bits::DecodeError("approx label: chain too short");
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < j; ++i) acc += rd.get_unary();
    e = checked_exp(acc);
  } else {
    const MonotoneSeq seq = MonotoneSeq::read_from(rd);
    if (j > seq.size()) throw bits::DecodeError("approx label: chain too short");
    e = checked_exp(seq.get(j - 1));
  }
  // powers.power(e) >= d(dominator, w).
  return res.u_first ? floor_estimate(powers.power(e), rd_u, rd_v)
                     : floor_estimate(powers.power(e), rd_v, rd_u);
}

}  // namespace treelab::core
