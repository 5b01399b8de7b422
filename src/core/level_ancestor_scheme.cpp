#include "core/level_ancestor_scheme.hpp"

#include <algorithm>
#include <stdexcept>

#include "bits/bitio.hpp"
#include "bits/monotone.hpp"
#include "nca/heavy_path_codes.hpp"
#include "tree/hpd.hpp"

namespace treelab::core {

using bits::BitReader;
using bits::BitVec;
using bits::BitWriter;
using bits::MonotoneSeq;
using nca::HeavyPathCodes;
using tree::HeavyPathDecomposition;
using tree::kNoNode;
using tree::NodeId;
using tree::Tree;

namespace {

struct Parsed {
  std::uint64_t rd = 0;        // d(u, root)
  std::uint64_t to_head = 0;   // d(u, head(P))
  std::vector<std::uint64_t> pi_bounds;  // component ends of pi(P)
  BitVec pi;                   // path identifier bits
  std::vector<std::uint64_t> heads_rd;   // R_i = d(root, head(P_i)), i=1..k
};

BitVec pack(const Parsed& p) {
  BitWriter w;
  w.put_delta0(p.rd);
  w.put_delta0(p.to_head);
  (void)MonotoneSeq::encode_to(w, p.pi_bounds, p.pi.size());
  w.append(p.pi);
  (void)MonotoneSeq::encode_to(w, p.heads_rd, p.rd);
  return w.take();
}

Parsed parse(const BitVec& l) {
  BitReader r(l);
  Parsed p;
  p.rd = r.get_delta0();
  p.to_head = r.get_delta0();
  const MonotoneSeq bs = MonotoneSeq::read_from(r);
  for (std::size_t i = 0; i < bs.size(); ++i) p.pi_bounds.push_back(bs.get(i));
  const std::size_t pi_len =
      p.pi_bounds.empty() ? 0 : static_cast<std::size_t>(p.pi_bounds.back());
  p.pi = BitVec(r.get_span(pi_len));
  const MonotoneSeq hs = MonotoneSeq::read_from(r);
  for (std::size_t i = 0; i < hs.size(); ++i) p.heads_rd.push_back(hs.get(i));
  if (p.pi_bounds.size() != 2 * p.heads_rd.size())
    throw bits::DecodeError("LA label: component/array mismatch");
  // Bit flips can decode to locally non-monotone sequences (the monotone
  // codec's low parts are unchecked); reject them here so that later
  // truncation never slices past the identifier bits.
  for (std::size_t i = 0; i < p.pi_bounds.size(); ++i) {
    if (p.pi_bounds[i] > p.pi.size() ||
        (i > 0 && p.pi_bounds[i] < p.pi_bounds[i - 1]))
      throw bits::DecodeError("LA label: bounds not monotone");
  }
  for (std::size_t i = 1; i < p.heads_rd.size(); ++i)
    if (p.heads_rd[i] < p.heads_rd[i - 1])
      throw bits::DecodeError("LA label: head distances not monotone");
  return p;
}

}  // namespace

LevelAncestorScheme::LevelAncestorScheme(const Tree& t) {
  if (!t.is_unit_weighted())
    throw std::invalid_argument(
        "LevelAncestorScheme: requires a unit-weighted tree");
  const HeavyPathDecomposition hpd(t);
  const HeavyPathCodes codes(hpd);

  // Per path: root distances of the heads on the chain above (and incl.) it.
  const std::int32_t m = hpd.num_paths();
  std::vector<std::vector<std::uint64_t>> heads_rd(
      static_cast<std::size_t>(m));
  std::vector<std::int32_t> order(static_cast<std::size_t>(m));
  for (std::int32_t p = 0; p < m; ++p) order[static_cast<std::size_t>(p)] = p;
  std::sort(order.begin(), order.end(), [&](std::int32_t a, std::int32_t b) {
    return hpd.light_depth(hpd.head(a)) < hpd.light_depth(hpd.head(b));
  });
  for (std::int32_t p : order) {
    const NodeId h = hpd.head(p);
    if (t.parent(h) == kNoNode) continue;  // root path: empty list
    auto hs = heads_rd[static_cast<std::size_t>(hpd.path_of(t.parent(h)))];
    hs.push_back(t.root_distance(h));
    heads_rd[static_cast<std::size_t>(p)] = std::move(hs);
  }

  labels_.resize(static_cast<std::size_t>(t.size()));
  for (NodeId v = 0; v < t.size(); ++v) {
    const std::int32_t p = hpd.path_of(v);
    Parsed pr;
    pr.rd = t.root_distance(v);
    pr.to_head = t.root_distance(v) - t.root_distance(hpd.head_of(v));
    pr.pi = codes.prefix(p);
    pr.pi_bounds = codes.prefix_bounds(p);
    pr.heads_rd = heads_rd[static_cast<std::size_t>(p)];
    labels_[static_cast<std::size_t>(v)] = pack(pr);
  }
}

std::optional<BitVec> LevelAncestorScheme::parent(const BitVec& l) {
  // Corrupt labels can decode to structurally invalid fields (non-monotone
  // arrays, bounds past the identifier); re-encoding then fails with
  // std::invalid_argument, which we surface as a decode failure.
  try {
    return parent_impl(l);
  } catch (const std::invalid_argument& e) {
    throw bits::DecodeError("LA label: invalid structure");
  }
}

std::optional<BitVec> LevelAncestorScheme::parent_impl(const BitVec& l) {
  Parsed p = parse(l);
  if (p.rd == 0) return std::nullopt;  // root
  if (p.to_head > 0) {
    // Parent lies on the same heavy path.
    --p.rd;
    --p.to_head;
    return pack(p);
  }
  // u == head(P): the parent is the branch node on the previous path.
  if (p.heads_rd.empty())
    throw bits::DecodeError("LA label: head of root path with rd > 0");
  const std::uint64_t head_rd = p.heads_rd.back();    // == p.rd
  const std::uint64_t prev_head_rd =
      p.heads_rd.size() >= 2 ? p.heads_rd[p.heads_rd.size() - 2] : 0;
  if (head_rd != p.rd) throw bits::DecodeError("LA label: head mismatch");
  p.heads_rd.pop_back();
  p.pi_bounds.pop_back();  // drop light-choice component
  p.pi_bounds.pop_back();  // drop position component
  const std::size_t new_len =
      p.pi_bounds.empty() ? 0 : static_cast<std::size_t>(p.pi_bounds.back());
  p.pi = p.pi.slice(0, new_len);
  --p.rd;
  p.to_head = p.rd - prev_head_rd;
  return pack(p);
}

std::optional<BitVec> LevelAncestorScheme::level_ancestor(const BitVec& l,
                                                          std::uint64_t k) {
  BitVec cur = l;
  for (std::uint64_t i = 0; i < k; ++i) {
    auto next = parent(cur);
    if (!next) return std::nullopt;
    cur = std::move(*next);
  }
  return cur;
}

std::uint64_t LevelAncestorScheme::depth_of_label(const BitVec& l) {
  BitReader r(l);
  return r.get_delta0();
}

}  // namespace treelab::core
