#include "core/fgnw_scheme.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <optional>

#include "bits/bitio.hpp"
#include "bits/monotone.hpp"
#include "nca/nca_labeling.hpp"
#include "tree/binarize.hpp"
#include "tree/collapsed.hpp"
#include "tree/hpd.hpp"

namespace treelab::core {

using bits::BitReader;
using bits::BitSpan;
using bits::BitVec;
using bits::BitWriter;
using bits::LabelArena;
using bits::MonotoneSeq;
using nca::NcaLabeling;
using nca::NcaResult;
using tree::BinarizedTree;
using tree::CollapsedTree;
using tree::HeavyPathDecomposition;
using tree::kNoNode;
using tree::NodeId;
using tree::Tree;

namespace {

/// Per light edge (identified by the child heavy path it leads to): the
/// split value r(e) and the accumulator state at the moment the edge was
/// processed on its parent path.
struct EdgeRecord {
  bool exceptional = false;
  std::uint32_t frag = 0;       // fragment index g (0 = the root)
  int kept_count = 0;           // bits kept in the owner's label
  int pushed_count = 0;         // bits pushed to dominated accumulators
  std::uint64_t kept_bits = 0;  // the kept (most significant) bits of r
  BitVec acc;                   // accumulator contents when entering here
};

/// One decoded per-level record of a label.
struct LevelRecord {
  bool exceptional = false;
  std::uint32_t frag = 0;
  int pushed_count = 0;
  int kept_count = 0;
  std::uint64_t kept_bits = 0;
  std::size_t acc_off = 0;  // bit offset of accumulator within the label
  std::size_t acc_len = 0;
};

void write_level(BitWriter& w, const EdgeRecord& e) {
  w.put_bit(e.exceptional);
  if (!e.exceptional) {
    w.put_gamma0(e.frag);
    w.put_gamma0(static_cast<std::uint64_t>(e.pushed_count));
    w.put_gamma0(static_cast<std::uint64_t>(e.kept_count));
    w.put_bits(e.kept_bits, e.kept_count);
  }
  w.put_gamma0(e.acc.size());
  w.append(e.acc);
}

LevelRecord read_level(BitReader& r) {
  LevelRecord out;
  out.exceptional = r.get_bit();
  if (!out.exceptional) {
    out.frag = static_cast<std::uint32_t>(r.get_gamma0());
    // Checked before narrowing: a huge count must not wrap to a small int.
    // A real record splits r into kept + pushed = bitwidth(r) <= 64 bits,
    // and the query shifts the kept bits left by `pushed`, which must stay
    // below 64.
    const std::uint64_t pushed = r.get_gamma0();
    const std::uint64_t kept = r.get_gamma0();
    if (pushed > 63 || kept > 64 - pushed)
      throw bits::DecodeError("FGNW label: oversized split counts");
    out.pushed_count = static_cast<int>(pushed);
    out.kept_count = static_cast<int>(kept);
    out.kept_bits = r.get_bits(out.kept_count);
  }
  out.acc_len = static_cast<std::size_t>(r.get_gamma0());
  out.acc_off = r.pos();
  r.skip(out.acc_len);
  return out;
}

}  // namespace

FgnwScheme::FgnwScheme(const Tree& t, Options opt)
    : FgnwScheme(TreeScaffold(t), opt) {}

FgnwScheme::FgnwScheme(const TreeScaffold& scaffold, Options opt) {
  const Tree& t = scaffold.tree();
  const BinarizedTree& bt = scaffold.binarized();
  const Tree& b = bt.tree;
  const NodeId n = b.size();
  info_.binarized_size = static_cast<std::size_t>(n);

  // The scaffold caches the paper-variant decomposition; the classic-HPD
  // ablation builds its own pieces locally.
  std::optional<HeavyPathDecomposition> own_hpd;
  std::optional<CollapsedTree> own_ct;
  std::optional<NcaLabeling> own_nca;
  if (opt.use_classic_hpd) {
    own_hpd.emplace(b, HeavyPathDecomposition::Variant::kClassic);
    own_ct.emplace(*own_hpd);
    own_nca.emplace(*own_hpd, scaffold.threads());
  }
  const HeavyPathDecomposition& hpd =
      opt.use_classic_hpd ? *own_hpd : scaffold.binarized_hpd();
  const CollapsedTree& ct = opt.use_classic_hpd ? *own_ct : scaffold.collapsed();
  const NcaLabeling& nca =
      opt.use_classic_hpd ? *own_nca : scaffold.binarized_nca();
  info_.max_light_depth = hpd.max_light_depth();

  const double log_n = std::log2(std::max<double>(2.0, n));
  const int frag_b = opt.fragment_exponent > 0
                         ? opt.fragment_exponent
                         : std::max(1, static_cast<int>(std::ceil(
                                           std::sqrt(log_n))));

  // Fragment level of a heavy path: phi = floor((log n - log sz) / B) where
  // sz is the size of the subtree rooted at the path's head. Non-decreasing
  // along any root-to-leaf chain of C(T).
  const std::int32_t m = hpd.num_paths();
  std::vector<std::int32_t> phi(static_cast<std::size_t>(m));
  for (std::int32_t p = 0; p < m; ++p) {
    const NodeId sz = b.subtree_size(hpd.head(p));
    phi[static_cast<std::size_t>(p)] =
        (bits::msb(static_cast<std::uint64_t>(n)) -
         bits::msb(static_cast<std::uint64_t>(sz))) /
        frag_b;
    info_.fragment_levels =
        std::max(info_.fragment_levels, phi[static_cast<std::size_t>(p)]);
  }

  // Per path: the fragment distance array F (F[i-1] = root distance of the
  // head of the first path on the chain with phi >= i), built top-down.
  std::vector<std::vector<std::uint64_t>> frag_rd(static_cast<std::size_t>(m));
  std::vector<std::int32_t> order(static_cast<std::size_t>(m));
  for (std::int32_t p = 0; p < m; ++p) order[static_cast<std::size_t>(p)] = p;
  std::sort(order.begin(), order.end(), [&](std::int32_t a, std::int32_t bb) {
    return hpd.light_depth(hpd.head(a)) < hpd.light_depth(hpd.head(bb));
  });
  for (std::int32_t p : order) {
    const NodeId h = hpd.head(p);
    const NodeId par = b.parent(h);
    std::vector<std::uint64_t> f;
    if (par != kNoNode) f = frag_rd[static_cast<std::size_t>(hpd.path_of(par))];
    while (static_cast<std::int32_t>(f.size()) < phi[static_cast<std::size_t>(p)])
      f.push_back(b.root_distance(h));
    frag_rd[static_cast<std::size_t>(p)] = std::move(f);
  }

  // Process every heavy path's light children in collapsed (domination)
  // order, computing the split of r(e) and the running accumulator.
  std::vector<EdgeRecord> edge(static_cast<std::size_t>(m));
  for (std::int32_t p = 0; p < m; ++p) {
    BitWriter acc;  // pushed bits of the fat edges seen so far on this path
    for (std::int32_t c : ct.cchildren(p)) {
      EdgeRecord& e = edge[static_cast<std::size_t>(c)];
      e.acc = acc.bits();
      info_.max_accumulator_bits =
          std::max(info_.max_accumulator_bits, e.acc.size());
      if (ct.is_exceptional(c)) {
        e.exceptional = true;
        ++info_.exceptional_edges;
        continue;
      }
      const NodeId head_c = hpd.head(c);
      const NodeId branch = b.parent(head_c);
      const std::int32_t g = phi[static_cast<std::size_t>(p)];
      const std::uint64_t base =
          g == 0 ? 0 : frag_rd[static_cast<std::size_t>(p)][g - 1];
      const std::uint64_t r = b.root_distance(branch) - base;
      const int len = bits::bitwidth(r);

      const auto n_c = static_cast<double>(b.subtree_size(head_c));
      const auto n_prime = static_cast<double>(b.subtree_size(branch));
      const bool thin =
          b.subtree_size(head_c) * (std::int64_t{1} << opt.thin_exponent) <=
          b.subtree_size(branch);
      int kept = len;
      // Bit-pushing is sound only with the paper's HPD variant: classic
      // heavy paths terminate in leaves, and a leaf lying *on* the shared
      // path would be dominated without carrying an accumulator for the
      // branch level. This is exactly why Section 2 uses the >= |T|/2
      // variant; the classic ablation therefore stores values in full.
      if (thin)
        ++info_.thin_edges;
      else
        ++info_.fat_edges;
      if (!thin && !opt.use_classic_hpd) {
        const double budget =
            0.5 * std::log2(n_prime / n_c) * std::log2(n_prime);
        kept = std::min(len, static_cast<int>(std::ceil(budget)) + 1);
      }
      e.frag = static_cast<std::uint32_t>(g);
      e.kept_count = kept;
      e.pushed_count = len - kept;
      e.kept_bits = r >> e.pushed_count;
      info_.total_kept_bits += static_cast<std::size_t>(kept);
      info_.total_pushed_bits += static_cast<std::size_t>(e.pushed_count);
      if (e.pushed_count > 0)
        acc.put_bits(r & bits::low_mask(e.pushed_count), e.pushed_count);
    }
  }

  // The chain of heavy paths above each path (for assembling per-node level
  // records): chain(p) = chain(parent path) + p.
  std::vector<std::vector<std::int32_t>> chain(static_cast<std::size_t>(m));
  for (std::int32_t p : order) {
    const NodeId h = hpd.head(p);
    const NodeId par = b.parent(h);
    if (par == kNoNode) continue;  // root path: empty chain
    auto ch = chain[static_cast<std::size_t>(hpd.path_of(par))];
    ch.push_back(p);
    chain[static_cast<std::size_t>(p)] = std::move(ch);
  }

  // Per-path payload (sum of kept bits over the chain), folded into stats
  // per node after the parallel emission.
  std::vector<std::size_t> path_payload(static_cast<std::size_t>(m), 0);
  for (std::int32_t p = 0; p < m; ++p)
    for (std::int32_t q : chain[static_cast<std::size_t>(p)]) {
      const EdgeRecord& e = edge[static_cast<std::size_t>(q)];
      if (!e.exceptional)
        path_payload[static_cast<std::size_t>(p)] +=
            static_cast<std::size_t>(e.kept_count);
    }

  // Assemble leaf labels; the public label of original node v is the label
  // of its proxy leaf.
  labels_ = LabelArena::build(
      static_cast<std::size_t>(t.size()), scaffold.threads(),
      [&](std::size_t i, BitWriter& w) {
        const NodeId x = bt.leaf_of[i];
        const std::int32_t p = hpd.path_of(x);
        w.put_delta0(b.root_distance(x));
        const BitSpan nl = nca.label(x);
        w.put_delta0(nl.size());
        w.append(nl);
        (void)MonotoneSeq::encode_to(w, frag_rd[static_cast<std::size_t>(p)],
                                     b.root_distance(x));
        for (std::int32_t q : chain[static_cast<std::size_t>(p)])
          write_level(w, edge[static_cast<std::size_t>(q)]);
      });
  for (NodeId v = 0; v < t.size(); ++v)
    payload_.add(path_payload[static_cast<std::size_t>(
        hpd.path_of(bt.leaf_of[static_cast<std::size_t>(v)]))]);
}

FgnwAttachedLabel FgnwScheme::attach(BitSpan l) {
  FgnwAttachedLabel out;
  out.raw_ = l;
  BitReader r(out.raw_);
  out.rd_ = r.get_delta0();
  out.nca_ = NcaLabeling::attach(
      r.get_span(static_cast<std::size_t>(r.get_delta0())));
  out.frag_ = MonotoneSeq::read_from(r);
  const std::int32_t levels = out.nca_.lightdepth();
  out.levels_.reserve(static_cast<std::size_t>(levels));
  for (std::int32_t i = 0; i < levels; ++i) {
    const LevelRecord rec = read_level(r);
    out.levels_.push_back(FgnwAttachedLabel::Level{
        rec.exceptional, rec.frag, rec.pushed_count, rec.kept_count,
        rec.kept_bits, rec.acc_off, rec.acc_len});
  }
  return out;
}

std::uint64_t FgnwScheme::query(const FgnwAttachedLabel& lu,
                                const FgnwAttachedLabel& lv) {
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
  const auto j = static_cast<std::size_t>(res.lightdepth + 1);
  const FgnwAttachedLabel& dom_l = res.u_first ? lu : lv;
  const FgnwAttachedLabel& sub_l = res.u_first ? lv : lu;
  if (j > dom_l.levels_.size())
    throw bits::DecodeError("FGNW query: dominator chain too short");
  const FgnwAttachedLabel::Level& dom = dom_l.levels_[j - 1];
  if (dom.exceptional)
    throw bits::DecodeError("FGNW query: dominator on exceptional edge");

  std::uint64_t pushed_val = 0;
  if (j <= sub_l.levels_.size()) {
    const FgnwAttachedLabel::Level& sub = sub_l.levels_[j - 1];
    if (dom.pushed_count > 0) {
      if (sub.acc_len <
          dom.acc_len + static_cast<std::size_t>(dom.pushed_count))
        throw bits::DecodeError("FGNW query: accumulator underflow");
      pushed_val =
          sub_l.raw_.read_bits(sub.acc_off + dom.acc_len, dom.pushed_count);
    }
  } else if (dom.pushed_count > 0) {
    throw bits::DecodeError("FGNW query: pushed bits without accumulator");
  }
  const std::uint64_t r = (dom.kept_bits << dom.pushed_count) | pushed_val;
  const std::uint64_t base =
      dom.frag == 0 ? 0
                    : dom_l.frag_.get(static_cast<std::size_t>(dom.frag) - 1);
  return lu.rd_ + lv.rd_ - 2 * (base + r);
}

std::uint64_t FgnwScheme::query(BitSpan lu, BitSpan lv) {
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
      return rd_v - rd_u;  // cannot occur between proxy leaves; kept for
                           // robustness on degenerate inputs
    case NcaResult::Rel::kVAncestor:
      return rd_u - rd_v;
    case NcaResult::Rel::kDiverge:
      break;
  }

  const std::int32_t j = res.lightdepth + 1;  // 1-based level of the branch
  BitReader& rdom = res.u_first ? ru : rv;
  BitReader& rsub = res.u_first ? rv : ru;

  // Dominator: fragment array + walk to its level-j record.
  const MonotoneSeq frag_dom = MonotoneSeq::read_from(rdom);
  LevelRecord dom{};
  for (std::int32_t lvl = 1; lvl <= j; ++lvl) dom = read_level(rdom);
  if (dom.exceptional)
    throw bits::DecodeError("FGNW query: dominator on exceptional edge");

  // Pushed bits of the dominator's edge live in the dominated accumulator.
  // Accumulators grow in domination order, so the dominator's accumulator is
  // a *prefix* of the dominated one and the dominator's own pushed bits sit
  // immediately after that prefix. A dominated node with fewer light levels
  // than j lies *on* the shared heavy path (possible only in the classic-HPD
  // ablation, where nothing is pushed) and has no record to read.
  const std::int32_t sub_levels = (res.u_first ? nv : nu).lightdepth();
  std::uint64_t pushed_val = 0;
  if (sub_levels >= j) {
    (void)MonotoneSeq::read_from(rsub);
    LevelRecord sub{};
    for (std::int32_t lvl = 1; lvl <= j; ++lvl) sub = read_level(rsub);
    if (dom.pushed_count > 0) {
      if (sub.acc_len <
          dom.acc_len + static_cast<std::size_t>(dom.pushed_count))
        throw bits::DecodeError("FGNW query: accumulator underflow");
      const std::size_t off = sub.acc_off + dom.acc_len;
      const BitSpan raw = res.u_first ? lv : lu;
      pushed_val = raw.read_bits(off, dom.pushed_count);
    }
  } else if (dom.pushed_count > 0) {
    throw bits::DecodeError("FGNW query: pushed bits without accumulator");
  }
  const std::uint64_t r =
      (dom.kept_bits << dom.pushed_count) | pushed_val;
  const std::uint64_t base =
      dom.frag == 0 ? 0 : frag_dom.get(static_cast<std::size_t>(dom.frag) - 1);
  const std::uint64_t rd_nca = base + r;
  return rd_u + rd_v - 2 * rd_nca;
}

}  // namespace treelab::core
