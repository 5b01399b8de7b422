#include "nca/nca_labeling.hpp"

#include <algorithm>
#include <cassert>

#include "bits/bitio.hpp"
#include "nca/heavy_path_codes.hpp"

namespace treelab::nca {

using bits::BitReader;
using bits::BitSpan;
using bits::BitWriter;
using bits::LabelArena;
using bits::MonotoneSeq;
using tree::HeavyPathDecomposition;
using tree::NodeId;
using tree::Tree;

namespace {

/// First bit position where two code areas differ, or the shorter length
/// if one is a prefix of the other.
std::size_t first_diff(BitSpan a, BitSpan b) {
  const std::size_t lim = std::min(a.size(), b.size());
  std::size_t i = 0;
  while (i + 64 <= lim) {
    const std::uint64_t wa = a.read_bits(i, 64);
    const std::uint64_t wb = b.read_bits(i, 64);
    if (wa != wb) return i + static_cast<std::size_t>(bits::lsb(wa ^ wb));
    i += 64;
  }
  if (i < lim) {
    const int rem = static_cast<int>(lim - i);
    const std::uint64_t wa = a.read_bits(i, rem);
    const std::uint64_t wb = b.read_bits(i, rem);
    if (wa != wb) return i + static_cast<std::size_t>(bits::lsb(wa ^ wb));
  }
  return lim;
}

}  // namespace

std::int32_t AttachedNcaLabel::lightdepth() const noexcept {
  return static_cast<std::int32_t>((bounds_.size() - 1) / 2);
}

void emit_nca_label(bits::BitWriter& w, bits::BitSpan prefix,
                    std::span<const std::uint64_t> prefix_bounds,
                    bits::Codeword terminal,
                    std::vector<std::uint64_t>& bounds_scratch) {
  const std::size_t code_len =
      prefix.size() + static_cast<std::size_t>(terminal.len);
  bounds_scratch.assign(prefix_bounds.begin(), prefix_bounds.end());
  bounds_scratch.push_back(code_len);
  (void)MonotoneSeq::encode_to(w, bounds_scratch, code_len);
  w.append(prefix);
  terminal.write_to(w);
}

NcaLabeling::NcaLabeling(const HeavyPathDecomposition& hpd, int threads,
                         CodeWeights weights) {
  const Tree& t = hpd.tree();
  const HeavyPathCodes codes(hpd, weights);

  // Label layout: MonotoneSeq of component end positions (in code bits),
  // then the code bits themselves. Emission is per node and pure, so it
  // fans out over the arena's chunked schedule; `bs` is per-worker scratch
  // (the emitter is copied per chunk).
  labels_ = LabelArena::build(
      static_cast<std::size_t>(t.size()), threads,
      [&hpd, &codes, bs = std::vector<std::uint64_t>{}](
          std::size_t i, BitWriter& w) mutable {
        const auto v = static_cast<NodeId>(i);
        const std::int32_t p = hpd.path_of(v);
        emit_nca_label(w, codes.prefix(p), codes.prefix_bounds(p),
                       codes.terminal(v), bs);
      });
}

AttachedNcaLabel NcaLabeling::attach(BitSpan l) {
  BitReader r(l);
  AttachedNcaLabel out;
  out.bounds_ = MonotoneSeq::read_from(r);
  if (out.bounds_.size() == 0)
    throw bits::DecodeError("NCA label: no components");
  const std::size_t code_off = r.pos();
  const std::uint64_t code_len = out.bounds_.back();
  // Compared against what is left, not as code_off + code_len: the length
  // is decoded arithmetic, any 64-bit value, and the sum could wrap.
  if (code_len > l.size() - code_off)
    throw bits::DecodeError("NCA label: truncated code area");
  out.code_ = l.subspan(code_off, static_cast<std::size_t>(code_len));
  return out;
}

NcaResult NcaLabeling::query(BitSpan lu, BitSpan lv) {
  return query(attach(lu), attach(lv));
}

NcaResult NcaLabeling::query(const AttachedNcaLabel& u,
                             const AttachedNcaLabel& v) {
  const std::size_t u_len = u.code_.size();
  const std::size_t v_len = v.code_.size();
  const std::size_t d = first_diff(u.code_, v.code_);

  NcaResult out;
  if (d == u_len && d == v_len) {
    out.rel = NcaResult::Rel::kEqual;
    out.lightdepth = u.lightdepth();
    return out;
  }
  if (d == u_len || d == v_len) {
    // One code area is a strict prefix of the other. By prefix-freeness of
    // the per-level codes this means the shorter label's terminal position
    // code equals the longer one's position code at the same level, i.e. the
    // shorter label's node lies on the other's root path: proper ancestor.
    const bool u_shorter = u_len < v_len;
    out.rel =
        u_shorter ? NcaResult::Rel::kUAncestor : NcaResult::Rel::kVAncestor;
    out.lightdepth = (u_shorter ? u : v).lightdepth();
    return out;
  }

  // Map the differing bit to a component index: the number of boundaries <= d
  // in either label (they agree on all boundaries before the divergence).
  const std::size_t comp = u.bounds_.successor(d + 1);
  const std::int32_t level = static_cast<std::int32_t>(comp / 2);
  const bool in_pos_code = (comp % 2) == 0;
  // Order-preserving codes: 0 sorts first.
  const bool u_first = !u.code_.get(d);

  // If the divergence is inside a position code and the smaller position is
  // a terminal component (last component of its label), that node lies on
  // the shared heavy path above the other's branch: proper ancestor.
  if (in_pos_code) {
    const bool u_terminal = u.bounds_.size() == comp + 1;
    const bool v_terminal = v.bounds_.size() == comp + 1;
    if (u_first && u_terminal) {
      out.rel = NcaResult::Rel::kUAncestor;
      out.lightdepth = level;
      return out;
    }
    if (!u_first && v_terminal) {
      out.rel = NcaResult::Rel::kVAncestor;
      out.lightdepth = level;
      return out;
    }
  }
  out.rel = NcaResult::Rel::kDiverge;
  out.lightdepth = level;
  out.u_first = u_first;
  out.same_branch_node = !in_pos_code;
  return out;
}

}  // namespace treelab::nca
