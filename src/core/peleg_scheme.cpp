#include "core/peleg_scheme.hpp"

#include <algorithm>

#include "bits/bitio.hpp"

namespace treelab::core {

using bits::BitReader;
using bits::BitSpan;
using bits::BitVec;
using bits::BitWriter;
using bits::LabelArena;
using tree::HeavyPathDecomposition;
using tree::kNoNode;
using tree::NodeId;
using tree::Tree;

namespace {

// Build-time entry triple (mirrors PelegAttachedLabel::Entry).
struct Entry {
  std::uint64_t head_pre;  // identifier of the heavy path
  std::uint64_t b_depth;   // depth of the branch node
  std::uint64_t b_rd;      // root distance of the branch node
};

}  // namespace

/// Query machinery, written once over the two forms of a label: an attached
/// label's decoded entries and a raw label read in place. Each form is a
/// cursor with the label's rd and depth and a next(e) that yields its
/// entries in order.
struct PelegQueryImpl {
  using Entry = PelegAttachedLabel::Entry;

  /// A raw label: the header is read on construction, each entry on its
  /// next() call.
  class RawEntries {
   public:
    explicit RawEntries(BitSpan l) : r_(l) {
      rd = r_.get_delta0();
      depth = r_.get_delta0();
      left_ = r_.get_delta0();
      // Each entry needs at least three code bits; a corrupt length field
      // must not drive a huge allocation or a long walk.
      if (left_ > l.size())
        throw bits::DecodeError("Peleg label: implausible entry count");
    }
    [[nodiscard]] std::size_t size() const noexcept {
      return static_cast<std::size_t>(left_);
    }
    bool next(Entry& e) {
      if (left_ == 0) return false;
      --left_;
      e.head_pre = r_.get_delta0();
      e.b_depth = r_.get_delta0();
      e.b_rd = r_.get_delta0();
      return true;
    }
    std::uint64_t rd = 0;
    std::uint64_t depth = 0;

   private:
    BitReader r_;
    std::uint64_t left_ = 0;
  };

  /// An attached label's decoded entries.
  class AttachedEntries {
   public:
    explicit AttachedEntries(const PelegAttachedLabel& l) noexcept
        : rd(l.rd_), depth(l.depth_), at_(l.entries_.data()),
          end_(at_ + l.entries_.size()) {}
    bool next(Entry& e) noexcept {
      if (at_ == end_) return false;
      e = *at_++;
      return true;
    }
    std::uint64_t rd = 0;
    std::uint64_t depth = 0;

   private:
    const Entry* at_;
    const Entry* end_;
  };

  /// Walks both entry lists in lockstep to the first differing head (or
  /// the end of either list): the deepest shared heavy path. Its branch
  /// candidates are the stopping entries' branch nodes, or a label's own
  /// node where its list ended; the NCA is the shallower candidate.
  template <typename L>
  static std::uint64_t distance(L u, L v) {
    Entry eu{}, ev{};
    bool hu = false, hv = false;
    do {
      hu = u.next(eu);
      hv = v.next(ev);
    } while (hu && hv && eu.head_pre == ev.head_pre);
    const std::uint64_t du = hu ? eu.b_depth : u.depth;
    const std::uint64_t ru = hu ? eu.b_rd : u.rd;
    const std::uint64_t dv = hv ? ev.b_depth : v.depth;
    const std::uint64_t rv = hv ? ev.b_rd : v.rd;
    const std::uint64_t rd_nca = du <= dv ? ru : rv;
    return u.rd + v.rd - 2 * rd_nca;
  }
};

PelegAttachedLabel PelegScheme::attach(BitSpan l) {
  PelegQueryImpl::RawEntries raw(l);
  PelegAttachedLabel p;
  p.rd_ = raw.rd;
  p.depth_ = raw.depth;
  p.entries_.resize(raw.size());
  for (auto& e : p.entries_) (void)raw.next(e);
  return p;
}

PelegScheme::PelegScheme(const Tree& t) : PelegScheme(TreeScaffold(t)) {}

PelegScheme::PelegScheme(const TreeScaffold& scaffold) {
  const Tree& t = scaffold.tree();
  const HeavyPathDecomposition& hpd = scaffold.hpd();
  // Preorder numbers for path-head identifiers.
  std::vector<std::uint32_t> pre(static_cast<std::size_t>(t.size()));
  {
    std::uint32_t c = 0;
    for (NodeId v : t.preorder()) pre[static_cast<std::size_t>(v)] = c++;
  }

  // Per heavy path, the entry list of its head (shared by all its nodes).
  const std::int32_t m = hpd.num_paths();
  std::vector<std::vector<Entry>> path_entries(static_cast<std::size_t>(m));
  std::vector<std::int32_t> order(static_cast<std::size_t>(m));
  for (std::int32_t p = 0; p < m; ++p) order[static_cast<std::size_t>(p)] = p;
  std::sort(order.begin(), order.end(), [&](std::int32_t a, std::int32_t b) {
    return hpd.light_depth(hpd.head(a)) < hpd.light_depth(hpd.head(b));
  });
  for (std::int32_t p : order) {
    const NodeId h = hpd.head(p);
    const NodeId b = t.parent(h);
    if (b == kNoNode) continue;  // root path
    auto es = path_entries[static_cast<std::size_t>(hpd.path_of(b))];
    es.push_back(Entry{pre[static_cast<std::size_t>(h)],
                       static_cast<std::uint64_t>(t.depth(b)),
                       t.root_distance(b)});
    path_entries[static_cast<std::size_t>(p)] = std::move(es);
  }

  labels_ = LabelArena::build(
      static_cast<std::size_t>(t.size()), scaffold.threads(),
      [&](std::size_t i, BitWriter& w) {
        const auto v = static_cast<NodeId>(i);
        const auto& es = path_entries[static_cast<std::size_t>(hpd.path_of(v))];
        w.put_delta0(t.root_distance(v));
        w.put_delta0(static_cast<std::uint64_t>(t.depth(v)));
        w.put_delta0(es.size());
        for (const Entry& e : es) {
          w.put_delta0(e.head_pre);
          w.put_delta0(e.b_depth);
          w.put_delta0(e.b_rd);
        }
      });
}

std::uint64_t PelegScheme::query(const PelegAttachedLabel& u,
                                 const PelegAttachedLabel& v) {
  return PelegQueryImpl::distance(PelegQueryImpl::AttachedEntries(u),
                                  PelegQueryImpl::AttachedEntries(v));
}

std::uint64_t PelegScheme::query(BitSpan lu, BitSpan lv) {
  return PelegQueryImpl::distance(PelegQueryImpl::RawEntries(lu),
                                  PelegQueryImpl::RawEntries(lv));
}

}  // namespace treelab::core
