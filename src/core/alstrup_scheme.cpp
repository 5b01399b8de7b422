#include "core/alstrup_scheme.hpp"

#include <algorithm>

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

std::uint32_t emit_alstrup_label(bits::BitWriter& w, std::uint64_t root_dist,
                                 bits::BitSpan nca_label,
                                 std::span<const std::uint64_t> branch_rd) {
  w.put_delta0(root_dist);
  w.put_delta0(nca_label.size());
  w.append(nca_label);
  return static_cast<std::uint32_t>(
      MonotoneSeq::encode_to(w, branch_rd, root_dist));
}

AlstrupScheme::AlstrupScheme(const Tree& t) : AlstrupScheme(TreeScaffold(t)) {}

AlstrupScheme::AlstrupScheme(const Tree& t, Options opt) {
  if (opt.weights == nca::CodeWeights::kExact) {
    const TreeScaffold scaffold(t, opt.threads);
    build(t, scaffold.hpd(), scaffold.nca(), opt.threads);
    return;
  }
  // The stable-weight variant builds its own NCA labeling: the scaffold
  // caches only the exact-policy one.
  const HeavyPathDecomposition hpd(t);
  const NcaLabeling nca(hpd, opt.threads, opt.weights);
  build(t, hpd, nca, opt.threads);
}

AlstrupScheme::AlstrupScheme(const TreeScaffold& scaffold) {
  build(scaffold.tree(), scaffold.hpd(), scaffold.nca(), scaffold.threads());
}

void AlstrupScheme::build(const Tree& t, const HeavyPathDecomposition& hpd,
                          const NcaLabeling& nca, int threads) {
  // Per heavy path: root distances of the branch nodes above it.
  const std::int32_t m = hpd.num_paths();
  std::vector<std::vector<std::uint64_t>> branch_rd(
      static_cast<std::size_t>(m));
  std::vector<std::int32_t> order(static_cast<std::size_t>(m));
  for (std::int32_t p = 0; p < m; ++p) order[static_cast<std::size_t>(p)] = p;
  std::sort(order.begin(), order.end(), [&](std::int32_t a, std::int32_t b) {
    return hpd.light_depth(hpd.head(a)) < hpd.light_depth(hpd.head(b));
  });
  for (std::int32_t p : order) {
    const NodeId h = hpd.head(p);
    const NodeId b = t.parent(h);
    if (b == kNoNode) continue;
    auto rs = branch_rd[static_cast<std::size_t>(hpd.path_of(b))];
    rs.push_back(t.root_distance(b));
    branch_rd[static_cast<std::size_t>(p)] = std::move(rs);
  }

  // Per-node payload sizes land in a side array (each index written once by
  // its owning chunk) and fold into the stats after the parallel build.
  std::vector<std::uint32_t> payload_bits(static_cast<std::size_t>(t.size()));
  labels_ = LabelArena::build(
      static_cast<std::size_t>(t.size()), threads,
      [&](std::size_t i, BitWriter& w) {
        const auto v = static_cast<NodeId>(i);
        const auto& rs = branch_rd[static_cast<std::size_t>(hpd.path_of(v))];
        payload_bits[i] =
            emit_alstrup_label(w, t.root_distance(v), nca.label(v), rs);
      });
  for (const std::uint32_t b : payload_bits) payload_.add(b);
}

AlstrupAttachedLabel AlstrupScheme::attach(BitSpan l) {
  AlstrupAttachedLabel out;
  out.raw_ = l;
  BitReader r(out.raw_);
  out.rd_ = r.get_delta0();
  out.nca_ = NcaLabeling::attach(
      r.get_span(static_cast<std::size_t>(r.get_delta0())));
  out.rs_ = MonotoneSeq::read_from(r);
  return out;
}

std::uint64_t AlstrupScheme::query(const AlstrupAttachedLabel& lu,
                                   const AlstrupAttachedLabel& lv) {
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
  const AlstrupAttachedLabel& dom = res.u_first ? lu : lv;
  if (static_cast<std::size_t>(res.lightdepth) >= dom.rs_.size())
    throw bits::DecodeError("Alstrup query: branch sequence too short");
  const std::uint64_t rd_nca =
      dom.rs_.get(static_cast<std::size_t>(res.lightdepth));
  return lu.rd_ + lv.rd_ - 2 * rd_nca;
}

std::uint64_t AlstrupScheme::query(BitSpan lu, BitSpan lv) {
  BitReader ru(lu), rv(lv);
  const std::uint64_t rd_u = ru.get_delta0();
  const std::uint64_t rd_v = rv.get_delta0();
  const NcaResult res = NcaLabeling::query(
      ru.get_span(static_cast<std::size_t>(ru.get_delta0())),
      rv.get_span(static_cast<std::size_t>(rv.get_delta0())));
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
  // The dominating node's branch at level lightdepth+1 is the NCA.
  BitReader& rd_reader = res.u_first ? ru : rv;
  const MonotoneSeq rs = MonotoneSeq::read_from(rd_reader);
  if (static_cast<std::size_t>(res.lightdepth) >= rs.size())
    throw bits::DecodeError("Alstrup query: branch sequence too short");
  const std::uint64_t rd_nca =
      rs.get(static_cast<std::size_t>(res.lightdepth));
  return rd_u + rd_v - 2 * rd_nca;
}

}  // namespace treelab::core
