#include "core/kdistance_scheme.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "bits/bitio.hpp"
#include "bits/monotone.hpp"
#include "bits/wordops.hpp"
#include "tree/hpd.hpp"

namespace treelab::core {

using bits::BitReader;
using bits::BitSpan;
using bits::BitWriter;
using bits::LabelArena;
using bits::MonotoneSeq;
using tree::HeavyPathDecomposition;
using tree::kNoNode;
using tree::NodeId;
using tree::Tree;

namespace {

/// Height of the binary-trie NCA of the (inclusive) range [a, b].
int range_height(std::uint64_t a, std::uint64_t b) {
  return a == b ? 0 : bits::msb(a ^ b) + 1;
}

/// Integer range identifier: a canonical point inside the dyadic span of the
/// trie node at height h above pre (Section 4.4's "clear the h trailing bits
/// of pre and set the h-th bit").
std::uint64_t id_int(std::uint64_t pre, int h) {
  const std::uint64_t base = (pre >> h) << h;
  return h > 0 ? base | (std::uint64_t{1} << (h - 1)) : base;
}

/// Identifier equality from (member, height) pairs: the trie nodes coincide
/// iff the heights agree and the members share all bits above the height.
bool id_equal(std::uint64_t pre_a, int ha, std::uint64_t pre_b, int hb) {
  return ha == hb && (pre_a >> ha) == (pre_b >> hb);
}

/// The raw path's form of a label: the fields of KDistanceAttachedLabel,
/// with each sequence left in place in the stored label (a MonotoneSeq
/// view). The query body below runs on both forms.
struct KDistanceView {
  std::uint64_t pre_ = 0;
  std::uint64_t lightdepth_ = 0;
  bool small_k_ = false;
  MonotoneSeq hl_, hc_, dist_;
  std::uint64_t alpha_ = 0;
  std::uint64_t i_mod_ = 0;
  MonotoneSeq fwd_, bwd_;
};

}  // namespace

/// Query machinery, written once over the two forms of a label: an
/// attached label's decoded arrays and a raw label's KDistanceView.
struct KDistanceQueryImpl {
  /// Parses a label into either form; `read` turns the next encoded
  /// sequence into the form's sequence type.
  template <typename L, typename Read>
  static L parse(std::uint64_t k, BitSpan l, Read read) {
    BitReader in(l);
    L p;
    p.pre_ = in.get_delta0();
    p.lightdepth_ = in.get_delta0();
    p.small_k_ = in.get_bit();
    p.hl_ = read(in);
    p.hc_ = read(in);
    p.dist_ = read(in);
    if (p.hl_.size() == 0 || p.hl_.size() != p.hc_.size() ||
        p.hl_.size() != p.dist_.size())
      throw bits::DecodeError("k-dist label: chain arrays inconsistent");
    p.alpha_ = in.get_delta0();
    if (p.small_k_) {
      p.i_mod_ = in.get_delta0();
      if (p.i_mod_ > k) throw bits::DecodeError("k-dist label: bad i_mod");
      p.fwd_ = read(in);
      p.bwd_ = read(in);
    }
    return p;
  }

  template <typename L>
  static std::size_t r(const L& p) {
    return p.hl_.size() - 1;
  }

  /// Range heights feed shift amounts in the identifier arithmetic; genuine
  /// heights are <= msb(2n) + 1 < 64, so anything wider is corruption (and
  /// would be undefined behaviour if let through to the shifts).
  template <typename Seq>
  static int height(const Seq& hs, std::size_t i) {
    const std::uint64_t h = hs.get(i);
    if (h > 63)
      throw bits::DecodeError("k-dist label: implausible range height");
    return static_cast<int>(h);
  }

  /// The aligned index in `other`'s chain of the node at the same light
  /// depth as `mine`'s chain entry `s`, or negative if none.
  template <typename L>
  static std::int64_t aligned_index(const L& mine, std::size_t s,
                                    const L& other) {
    return static_cast<std::int64_t>(other.lightdepth_) -
           static_cast<std::int64_t>(mine.lightdepth_) +
           static_cast<std::int64_t>(s);
  }

  static BoundedDistance within(std::uint64_t k, std::uint64_t d) {
    return d <= k ? BoundedDistance{true, d} : BoundedDistance{false, 0};
  }

  static constexpr BoundedDistance kExceeds{false, 0};

  /// Both-top case: u1 at position i (mod K known), v1 at position j on the
  /// same heavy path; computes |j - i| via Lemma 4.5 or detects > k.
  template <typename L>
  static BoundedDistance path_distance_small(std::uint64_t k, const L& u,
                                             const L& v) {
    const std::uint64_t a_u = id_int(u.pre_, height(u.hl_, r(u)));
    const std::uint64_t a_v = id_int(v.pre_, height(v.hl_, r(v)));
    // Orient so that `lo` is the higher node (smaller identifier/position).
    const L& lo = a_u < a_v ? u : v;
    const L& hi = a_u < a_v ? v : u;
    const std::uint64_t a_i = std::min(a_u, a_v), a_j = std::max(a_u, a_v);
    const std::uint64_t K = k + 1;
    const std::uint64_t t = (hi.i_mod_ + K - lo.i_mod_ % K) % K;
    if (t == 0) return kExceeds;  // a_i != a_j, so j - i >= K > k
    if (t > lo.fwd_.size() || t > hi.bwd_.size()) return kExceeds;
    const auto e = static_cast<std::uint64_t>(bits::msb(a_j - a_i));
    if (lo.fwd_.get(t - 1) != e || hi.bwd_.get(t - 1) != e)
      return kExceeds;  // Lemma 4.4
    return within(k, t);
  }

  template <typename L>
  static std::int64_t find_match_scan(const L& u, const L& v);
  template <typename L>
  static std::int64_t find_match_fast(const L& u, const L& v);
  template <typename L>
  static BoundedDistance resolve(std::uint64_t k, const L& u, const L& v,
                                 std::int64_t match_s);
};

namespace {

KDistanceView view_of(std::uint64_t k, BitSpan l) {
  return KDistanceQueryImpl::parse<KDistanceView>(k, l,
                                                  &MonotoneSeq::read_from);
}

}  // namespace

KDistanceAttachedLabel KDistanceScheme::attach(std::uint64_t k, BitSpan l) {
  using Array = KDistanceAttachedLabel::Array;
  return KDistanceQueryImpl::parse<KDistanceAttachedLabel>(
      k, l, [](BitReader& r) {
        const MonotoneSeq seq = MonotoneSeq::read_from(r);
        Array out;
        out.v.resize(seq.size());
        for (std::size_t i = 0; i < seq.size(); ++i) out.v[i] = seq.get(i);
        return out;
      });
}

KDistanceScheme::KDistanceScheme(const Tree& t, std::uint64_t k)
    : KDistanceScheme(TreeScaffold(t), k) {}

KDistanceScheme::KDistanceScheme(const TreeScaffold& scaffold, std::uint64_t k)
    : k_(k) {
  if (k < 1) throw std::invalid_argument("KDistanceScheme: k < 1");
  const Tree& t = scaffold.tree();
  if (!t.is_unit_weighted())
    throw std::invalid_argument("KDistanceScheme: requires unit weights");
  const NodeId n = t.size();
  const HeavyPathDecomposition& hpd = scaffold.hpd();
  const bool small_k =
      k < static_cast<std::uint64_t>(bits::ceil_log2(
              static_cast<std::uint64_t>(std::max<NodeId>(2, n))));

  // Preorder with the heavy child rightmost, so that the light range of v is
  // the contiguous block [pre(v), pre(heavy(v))) (or all of T_v at a path
  // tail).
  std::vector<std::uint64_t> pre(static_cast<std::size_t>(n));
  {
    std::uint64_t c = 0;
    std::vector<NodeId> stack{t.root()};
    while (!stack.empty()) {
      const NodeId v = stack.back();
      stack.pop_back();
      pre[static_cast<std::size_t>(v)] = c++;
      const NodeId hv = hpd.heavy_child(v);
      if (hv != kNoNode) stack.push_back(hv);  // popped last -> visited last
      const auto cs = t.children(v);
      for (std::size_t i = cs.size(); i-- > 0;)
        if (cs[i] != hv) stack.push_back(cs[i]);
    }
  }

  // Per node: height of its light range and of its path head's full range;
  // per path: the increasing identifier sequence a(q_1), ..., a(q_s).
  std::vector<int> hl(static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; ++v) {
    const NodeId hv = hpd.heavy_child(v);
    const std::uint64_t lo = pre[static_cast<std::size_t>(v)];
    const std::uint64_t hi =
        hv == kNoNode
            ? lo + static_cast<std::uint64_t>(t.subtree_size(v)) - 1
            : pre[static_cast<std::size_t>(hv)] - 1;
    hl[static_cast<std::size_t>(v)] = range_height(lo, hi);
  }
  std::vector<int> hc(static_cast<std::size_t>(n));  // indexed by path head
  for (std::int32_t p = 0; p < hpd.num_paths(); ++p) {
    const NodeId h = hpd.head(p);
    const std::uint64_t lo = pre[static_cast<std::size_t>(h)];
    const std::uint64_t hi =
        lo + static_cast<std::uint64_t>(t.subtree_size(h)) - 1;
    hc[static_cast<std::size_t>(h)] = range_height(lo, hi);
  }
  std::vector<std::vector<std::uint64_t>> path_ids(
      static_cast<std::size_t>(hpd.num_paths()));
  for (std::int32_t p = 0; p < hpd.num_paths(); ++p) {
    auto& ids = path_ids[static_cast<std::size_t>(p)];
    for (NodeId q : hpd.path_nodes(p))
      ids.push_back(id_int(pre[static_cast<std::size_t>(q)],
                           hl[static_cast<std::size_t>(q)]));
  }

  // Per-worker scratch lives in the emitter (copied per chunk); everything
  // else is read-only shared state.
  struct Scratch {
    std::vector<NodeId> chain;
    std::vector<std::uint64_t> dist, seq, fwd, bwd;
  };
  labels_ = LabelArena::build(
      static_cast<std::size_t>(n), scaffold.threads(),
      [&t, &hpd, &pre, &hl, &hc, &path_ids, k, small_k,
       s = Scratch{}](std::size_t i, BitWriter& w) mutable {
        const auto v = static_cast<NodeId>(i);
        // Significant ancestor chain v = u_0, u_1, ... up to distance k.
        s.chain.assign(1, v);
        s.dist.assign(1, 0);
        for (;;) {
          const NodeId cur = s.chain.back();
          const NodeId head = hpd.head_of(cur);
          const NodeId up = t.parent(head);
          if (up == kNoNode) break;
          const std::uint64_t d =
              s.dist.back() +
              static_cast<std::uint64_t>(t.depth(cur) - t.depth(head)) + 1;
          if (d > k) break;
          s.chain.push_back(up);
          s.dist.push_back(d);
        }
        const NodeId top = s.chain.back();
        const std::int32_t top_path = hpd.path_of(top);
        const auto top_pos = static_cast<std::uint64_t>(hpd.pos_in_path(top));

        w.put_delta0(pre[static_cast<std::size_t>(v)]);
        w.put_delta0(static_cast<std::uint64_t>(hpd.light_depth(v)));
        w.put_bit(small_k);
        s.seq.clear();
        for (NodeId c : s.chain)
          s.seq.push_back(
              static_cast<std::uint64_t>(hl[static_cast<std::size_t>(c)]));
        (void)MonotoneSeq::encode_to(w, s.seq, 64);
        s.seq.clear();
        for (NodeId c : s.chain)
          s.seq.push_back(static_cast<std::uint64_t>(
              hc[static_cast<std::size_t>(hpd.head_of(c))]));
        (void)MonotoneSeq::encode_to(w, s.seq, 64);
        (void)MonotoneSeq::encode_to(w, s.dist, k);

        const std::uint64_t alpha =
            small_k ? std::min(top_pos, 2 * k + 1) : top_pos;
        w.put_delta0(alpha);
        if (small_k) {
          w.put_delta0(top_pos % (k + 1));
          const auto& ids = path_ids[static_cast<std::size_t>(top_path)];
          const std::uint64_t a_i = ids[top_pos];
          s.fwd.clear();
          s.bwd.clear();
          for (std::uint64_t tt = 1; tt <= k && top_pos + tt < ids.size(); ++tt)
            s.fwd.push_back(
                static_cast<std::uint64_t>(bits::msb(ids[top_pos + tt] - a_i)));
          for (std::uint64_t tt = 1; tt <= k && tt <= top_pos; ++tt)
            s.bwd.push_back(
                static_cast<std::uint64_t>(bits::msb(a_i - ids[top_pos - tt])));
          (void)MonotoneSeq::encode_to(w, s.fwd, 64);
          (void)MonotoneSeq::encode_to(w, s.bwd, 64);
        }
      });
}

/// Linear-scan NCSA locator (the reference): smallest aligned index s in
/// u's chain with matching (id, lightdepth), or -1 (Lemma 4.3 makes the
/// first match the NCSA).
template <typename L>
std::int64_t KDistanceQueryImpl::find_match_scan(const L& u, const L& v) {
  std::int64_t s = std::max<std::int64_t>(
      0, static_cast<std::int64_t>(u.lightdepth_) -
             static_cast<std::int64_t>(v.lightdepth_));
  std::int64_t tt = aligned_index(u, static_cast<std::size_t>(s), v);
  for (; s <= static_cast<std::int64_t>(r(u)) &&
         tt <= static_cast<std::int64_t>(r(v));
       ++s, ++tt) {
    if (tt < 0) continue;
    if (id_equal(u.pre_, height(u.hl_, static_cast<std::size_t>(s)), v.pre_,
                 height(v.hl_, static_cast<std::size_t>(tt))))
      return s;
  }
  return -1;
}

/// Section 4.4 NCSA locator: identical answers in O(1)-per-word time.
/// Matched levels form a suffix of the aligned window (node equality at a
/// level forces it above), so the longest common suffix of the two height
/// sequences bounds the candidates; within it, id(L) equality is exactly
/// "height >= l" for l = |common low bits of pre(u), pre(v)|, found with a
/// successor query on the monotone height sequence.
template <typename L>
std::int64_t KDistanceQueryImpl::find_match_fast(const L& u, const L& v) {
  const std::int64_t delta = static_cast<std::int64_t>(u.lightdepth_) -
                             static_cast<std::int64_t>(v.lightdepth_);
  const std::int64_t lo_s = std::max<std::int64_t>(0, delta);
  const std::int64_t hi_s =
      std::min(static_cast<std::int64_t>(r(u)),
               static_cast<std::int64_t>(r(v)) + delta);
  if (hi_s < lo_s) return -1;
  const std::size_t lcs = bits::lcs_of_prefixes(
      u.hl_, static_cast<std::size_t>(hi_s) + 1, v.hl_,
      static_cast<std::size_t>(hi_s - delta) + 1);
  if (lcs == 0) return -1;
  const std::int64_t first_eq = hi_s + 1 - static_cast<std::int64_t>(lcs);
  // Identifiers can only coincide once the range height covers every bit in
  // which the two preorders differ.
  const int l = u.pre_ == v.pre_ ? 0 : bits::bitwidth(u.pre_ ^ v.pre_);
  const auto first_high = static_cast<std::int64_t>(
      u.hl_.successor(static_cast<std::uint64_t>(l)));
  const std::int64_t s = std::max({first_eq, first_high, lo_s});
  return s <= hi_s ? s : -1;
}

template <typename L>
BoundedDistance KDistanceQueryImpl::resolve(std::uint64_t k, const L& u,
                                            const L& v, std::int64_t match_s) {
  if (match_s >= 0) {
    const auto s = static_cast<std::size_t>(match_s);
    const auto tt = static_cast<std::size_t>(aligned_index(u, s, v));
    // Matched: w = u_s = v_tt is the NCSA.
    const std::uint64_t du_w = u.dist_.get(s), dv_w = v.dist_.get(tt);
    if (s == 0) return within(k, dv_w);   // u is an ancestor of v
    if (tt == 0) return within(k, du_w);  // v is an ancestor of u
    const std::uint64_t du = du_w - u.dist_.get(s - 1);  // d(u1, w)
    const std::uint64_t dv = dv_w - v.dist_.get(tt - 1);
    const bool same_path = id_equal(u.pre_, height(u.hc_, s - 1), v.pre_,
                                    height(v.hc_, tt - 1));
    const std::uint64_t near = same_path ? std::min(du, dv) : 0;
    return within(k, du_w + dv_w - 2 * near);
  }

  // No stored common significant ancestor: the branch of at least one side
  // is at its top significant ancestor. Check both orientations.
  const auto try_top = [&](const L& a, const L& b) -> BoundedDistance {
    // a's branch is a_top; b's aligned chain entry shares a_top's level.
    const std::int64_t bi_signed = aligned_index(a, r(a), b);
    if (bi_signed < 0 || bi_signed > static_cast<std::int64_t>(r(b)))
      return kExceeds;
    const auto bi = static_cast<std::size_t>(bi_signed);
    if (!id_equal(a.pre_, height(a.hc_, r(a)), b.pre_, height(b.hc_, bi)))
      return kExceeds;  // not on the same heavy path
    const std::uint64_t da_top = a.dist_.get(r(a));
    if (bi == r(b)) {
      // Both tops on the shared path.
      BoundedDistance mid;
      if (a.small_k_) {
        mid = path_distance_small(k, a, b);
      } else {
        const std::uint64_t da = a.alpha_, db = b.alpha_;
        mid = within(k, da > db ? da - db : db - da);
      }
      if (!mid.within) return kExceeds;
      return within(k, da_top + mid.distance + b.dist_.get(r(b)));
    }
    // a at top, b's branch strictly below its top: d(a1, w) = alpha_a + 1,
    // d(b1, w) = b.dist[bi+1] - b.dist[bi], both measured to the parent w of
    // the shared path's head.
    if (a.small_k_ && a.alpha_ >= 2 * k + 1) return kExceeds;
    const std::uint64_t db_bi = b.dist_.get(bi);
    const std::uint64_t da = a.alpha_ + 1;
    const std::uint64_t db = b.dist_.get(bi + 1) - db_bi;
    const std::uint64_t mid = da > db ? da - db : db - da;
    return within(k, da_top + mid + db_bi);
  };

  const BoundedDistance via_u = try_top(u, v);
  if (via_u.within) return via_u;
  return try_top(v, u);
}

BoundedDistance KDistanceScheme::query(std::uint64_t k,
                                       const KDistanceAttachedLabel& lu,
                                       const KDistanceAttachedLabel& lv) {
  return KDistanceQueryImpl::resolve(
      k, lu, lv, KDistanceQueryImpl::find_match_fast(lu, lv));
}

BoundedDistance KDistanceScheme::query_linear(
    std::uint64_t k, const KDistanceAttachedLabel& lu,
    const KDistanceAttachedLabel& lv) {
  return KDistanceQueryImpl::resolve(
      k, lu, lv, KDistanceQueryImpl::find_match_scan(lu, lv));
}

BoundedDistance KDistanceScheme::query(std::uint64_t k, BitSpan lu,
                                       BitSpan lv) {
  const KDistanceView u = view_of(k, lu), v = view_of(k, lv);
  return KDistanceQueryImpl::resolve(
      k, u, v, KDistanceQueryImpl::find_match_fast(u, v));
}

BoundedDistance KDistanceScheme::query_linear(std::uint64_t k, BitSpan lu,
                                              BitSpan lv) {
  const KDistanceView u = view_of(k, lu), v = view_of(k, lv);
  return KDistanceQueryImpl::resolve(
      k, u, v, KDistanceQueryImpl::find_match_scan(u, v));
}

}  // namespace treelab::core
