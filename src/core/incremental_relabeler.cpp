#include "core/incremental_relabeler.hpp"

#include <algorithm>
#include <numeric>
#include <ostream>
#include <stdexcept>
#include <string>
#include <utility>

#include "bits/bitio.hpp"
#include "core/alstrup_scheme.hpp"
#include "nca/nca_labeling.hpp"
#include "tree/hpd.hpp"

namespace treelab::core {

using bits::BitWriter;
using bits::Codeword;
using nca::CodeWeights;
using tree::HeavyPathDecomposition;
using tree::kNoNode;
using tree::NodeId;
using tree::Tree;

namespace {

constexpr CodeWeights kPolicy = CodeWeights::kStablePow2;

}  // namespace

IncrementalRelabeler::IncrementalRelabeler(const Tree& initial,
                                           RelabelOptions opt)
    : opt_(opt) {
  const NodeId n = initial.size();
  parent_.resize(static_cast<std::size_t>(n));
  weight_.resize(static_cast<std::size_t>(n));
  children_.resize(static_cast<std::size_t>(n));
  subtree_size_.resize(static_cast<std::size_t>(n));
  root_dist_.resize(static_cast<std::size_t>(n));
  state_.assign(static_cast<std::size_t>(n), kLive);
  live_ = static_cast<std::size_t>(n);
  for (NodeId v = 0; v < n; ++v) {
    const auto i = static_cast<std::size_t>(v);
    parent_[i] = initial.parent(v);
    weight_[i] = parent_[i] == kNoNode ? 0 : initial.weight(v);
    const auto cs = initial.children(v);
    children_[i].assign(cs.begin(), cs.end());
    subtree_size_[i] = initial.subtree_size(v);
    root_dist_[i] = initial.root_distance(v);
  }
  full_rebuild();
  rebase_delta();
}

Tree IncrementalRelabeler::live_tree(std::vector<NodeId>* old_of_out) const {
  std::vector<NodeId> old_of;
  old_of.reserve(live_);
  for (std::size_t i = 0; i < size(); ++i)
    if (state_[i] == kLive) old_of.push_back(static_cast<NodeId>(i));
  std::vector<NodeId> new_of(size(), kNoNode);
  for (std::size_t j = 0; j < old_of.size(); ++j)
    new_of[static_cast<std::size_t>(old_of[j])] = static_cast<NodeId>(j);
  std::vector<NodeId> cparent;
  std::vector<std::uint32_t> cweight;
  cparent.reserve(old_of.size());
  cweight.reserve(old_of.size());
  for (const NodeId o : old_of) {
    const NodeId p = parent_[static_cast<std::size_t>(o)];
    cparent.push_back(p == kNoNode ? kNoNode
                                   : new_of[static_cast<std::size_t>(p)]);
    cweight.push_back(weight_[static_cast<std::size_t>(o)]);
  }
  if (old_of_out != nullptr) *old_of_out = std::move(old_of);
  return Tree(std::move(cparent), std::move(cweight));
}

void IncrementalRelabeler::full_rebuild() {
  const std::size_t ids = size();
  // Compacted live tree + the dense → current id map. Until the first
  // deletion/detach the map is the identity and this is exactly the dense
  // rebuild PR 4 shipped.
  std::vector<NodeId> old_of;
  const Tree t = live_tree(&old_of);
  const HeavyPathDecomposition hpd(t);
  const nca::HeavyPathCodes codes(hpd, kPolicy);
  const std::int32_t m = hpd.num_paths();

  heavy_.assign(ids, kNoNode);
  path_of_.assign(ids, -1);
  pos_in_path_.assign(ids, 0);
  light_depth_.assign(ids, 0);
  for (NodeId nv = 0; nv < t.size(); ++nv) {
    const auto o = static_cast<std::size_t>(old_of[static_cast<std::size_t>(nv)]);
    const NodeId hc = hpd.heavy_child(nv);
    heavy_[o] = hc == kNoNode ? kNoNode : old_of[static_cast<std::size_t>(hc)];
    path_of_[o] = hpd.path_of(nv);
    pos_in_path_[o] = hpd.pos_in_path(nv);
    light_depth_[o] = hpd.light_depth(nv);
  }
  // The rebuild compacts the path table to exactly m fresh slots — ids a
  // prior restructure recycled would now name live paths, so the free
  // list must not survive it.
  free_paths_.clear();
  path_nodes_.assign(static_cast<std::size_t>(m), {});
  head_.assign(static_cast<std::size_t>(m), kNoNode);
  pos_wts_.assign(static_cast<std::size_t>(m), {});
  pos_code_.assign(static_cast<std::size_t>(m), {});
  prefix_.assign(static_cast<std::size_t>(m), {});
  bounds_.assign(static_cast<std::size_t>(m), {});
  branch_rd_.assign(static_cast<std::size_t>(m), {});
  std::vector<std::int32_t> order(static_cast<std::size_t>(m));
  for (std::int32_t p = 0; p < m; ++p) {
    const auto i = static_cast<std::size_t>(p);
    order[i] = p;
    const auto nodes = hpd.path_nodes(p);
    path_nodes_[i].reserve(nodes.size());
    for (const NodeId nv : nodes)
      path_nodes_[i].push_back(old_of[static_cast<std::size_t>(nv)]);
    head_[i] = old_of[static_cast<std::size_t>(hpd.head(p))];
    pos_wts_[i] = position_weights(p);
    const auto pc = codes.position_codes(p);
    pos_code_[i].assign(pc.begin(), pc.end());
    prefix_[i] = codes.prefix(p);
    bounds_[i] = codes.prefix_bounds(p);
  }
  // Branch root distances, parents before children (same recurrence as
  // AlstrupScheme::build).
  order_paths(order);
  for (const std::int32_t p : order)
    step_branch_rd(static_cast<std::size_t>(p));

  labels_ = bits::LabelArena::build(
      ids, opt_.threads,
      [this, scratch = std::vector<std::uint64_t>{}](
          std::size_t i, BitWriter& w) mutable { emit_label(i, w, scratch); });
}

std::vector<std::uint64_t> IncrementalRelabeler::position_weights(
    std::int32_t p) const {
  const auto& nodes = path_nodes_[static_cast<std::size_t>(p)];
  std::vector<std::uint64_t> wts;
  wts.reserve(nodes.size());
  for (const NodeId v : nodes) {
    const auto i = static_cast<std::size_t>(v);
    std::uint64_t mass = 1;
    for (const NodeId c : children_[i])
      if (c != heavy_[i])
        mass += static_cast<std::uint64_t>(
            subtree_size_[static_cast<std::size_t>(c)]);
    wts.push_back(nca::code_weight(mass, kPolicy));
  }
  return wts;
}

void IncrementalRelabeler::order_paths(std::vector<std::int32_t>& paths) const {
  const auto key = [&](std::int32_t p) {
    const auto h = static_cast<std::size_t>(head_[static_cast<std::size_t>(p)]);
    return std::pair{light_depth_[h], parent_[h]};
  };
  std::sort(paths.begin(), paths.end(),
            [&](std::int32_t a, std::int32_t b) { return key(a) < key(b); });
}

void IncrementalRelabeler::step_branch_rd(std::size_t p) {
  const NodeId b = parent_[static_cast<std::size_t>(head_[p])];
  if (b == kNoNode) {  // root path: no branch above it
    branch_rd_[p].clear();
    return;
  }
  const auto bi = static_cast<std::size_t>(b);
  branch_rd_[p] = branch_rd_[static_cast<std::size_t>(path_of_[bi])];
  branch_rd_[p].push_back(root_dist_[bi]);
}

void IncrementalRelabeler::rebuild_prefixes(std::vector<std::int32_t> paths) {
  // Parents first, so every parent path's prefix is current when read; the
  // light paths of one branch node sit together, so its light-choice code
  // is built once, not once per light child (a fan of k dirty light
  // children would otherwise cost O(k²)).
  order_paths(paths);
  NodeId coded = kNoNode;  // the branch node `lcodes` belongs to
  std::vector<Codeword> lcodes;
  for (const std::int32_t p : paths) {
    const auto pi = static_cast<std::size_t>(p);
    step_branch_rd(pi);
    const NodeId h = head_[pi];
    const NodeId b = parent_[static_cast<std::size_t>(h)];
    if (b == kNoNode) {  // root path: empty prefix
      prefix_[pi] = {};
      bounds_[pi].clear();
      continue;
    }
    const auto bi = static_cast<std::size_t>(b);
    const auto& cs = children_[bi];
    if (b != coded) {
      std::vector<std::uint64_t> lw;
      for (const NodeId c : cs)
        if (c != heavy_[bi])
          lw.push_back(nca::code_weight(
              static_cast<std::uint64_t>(
                  subtree_size_[static_cast<std::size_t>(c)]),
              kPolicy));
      lcodes = bits::alphabetic_code(lw);
      coded = b;
    }
    // h's rank among b's light children: its slot in the id-ordered child
    // list, less one when the heavy child sorts before it.
    auto k = static_cast<std::size_t>(
        std::lower_bound(cs.begin(), cs.end(), h) - cs.begin());
    if (heavy_[bi] != kNoNode && heavy_[bi] < h) --k;
    const auto bp = static_cast<std::size_t>(path_of_[bi]);
    BitWriter w;
    w.append(prefix_[bp]);
    pos_code_[bp][static_cast<std::size_t>(pos_in_path_[bi])].write_to(w);
    std::vector<std::uint64_t> bs = bounds_[bp];
    bs.push_back(w.bit_count());
    lcodes[k].write_to(w);
    bs.push_back(w.bit_count());
    prefix_[pi] = w.take();
    bounds_[pi] = std::move(bs);
  }
}

void IncrementalRelabeler::emit_label(std::size_t i, BitWriter& w,
                                      std::vector<std::uint64_t>& scratch)
    const {
  if (state_[i] != kLive) return;  // tombstone/detached: zero-length label
  const auto p = static_cast<std::size_t>(path_of_[i]);
  BitWriter nca_bits;
  nca::emit_nca_label(nca_bits, prefix_[p], bounds_[p],
                      pos_code_[p][static_cast<std::size_t>(pos_in_path_[i])],
                      scratch);
  (void)emit_alstrup_label(w, root_dist_[i], nca_bits.bits(), branch_rd_[p]);
}

std::vector<NodeId> IncrementalRelabeler::chain_to(NodeId v) const {
  std::vector<NodeId> chain;
  for (NodeId a = v; a != kNoNode; a = parent_[static_cast<std::size_t>(a)])
    chain.push_back(a);
  std::reverse(chain.begin(), chain.end());
  return chain;
}

template <class Visit>
void IncrementalRelabeler::walk(NodeId r, Visit visit) const {
  if (!visit(r)) return;
  std::vector<NodeId> stack{r};
  while (!stack.empty()) {
    const NodeId x = stack.back();
    stack.pop_back();
    for (const NodeId c : children_[static_cast<std::size_t>(x)])
      if (visit(c)) stack.push_back(c);
  }
}

void IncrementalRelabeler::add_sizes(const std::vector<NodeId>& chain,
                                     std::int64_t delta) {
  for (const NodeId a : chain)
    subtree_size_[static_cast<std::size_t>(a)] = static_cast<NodeId>(
        static_cast<std::int64_t>(subtree_size_[static_cast<std::size_t>(a)]) +
        delta);
}

NodeId IncrementalRelabeler::heavy_pick(NodeId v, NodeId n_path) const {
  for (const NodeId c : children_[static_cast<std::size_t>(v)])
    if (2 * static_cast<std::int64_t>(
                subtree_size_[static_cast<std::size_t>(c)]) >=
        n_path)
      return c;
  return kNoNode;
}

NodeId IncrementalRelabeler::recheck_heavy(const std::vector<NodeId>& chain,
                                           NodeId leaf, bool* extends) const {
  std::int32_t prev = -1;
  for (const NodeId a : chain) {
    const std::int32_t p = path_of_[static_cast<std::size_t>(a)];
    if (p == prev) continue;
    prev = p;
    const NodeId h = head_[static_cast<std::size_t>(p)];
    const NodeId n_path = subtree_size_[static_cast<std::size_t>(h)];
    for (NodeId cur = h; cur != kNoNode;) {
      const NodeId next = heavy_pick(cur, n_path);
      const NodeId was = heavy_[static_cast<std::size_t>(cur)];
      if (next != was) {
        // The one allowed divergence: the fresh leaf continuing its
        // parent's path as the new bottom (a growth, not a flip).
        if (was == kNoNode && next == leaf) {
          *extends = true;
          break;
        }
        // A real flip. Everything it disturbs lives under this path's
        // head (deeper crossed paths included), so report the head and
        // stop — the tail re-decomposes that subtree.
        return h;
      }
      cur = next;
    }
  }
  return kNoNode;
}

std::int32_t IncrementalRelabeler::alloc_path() {
  if (!free_paths_.empty()) {
    const std::int32_t p = free_paths_.back();
    free_paths_.pop_back();
    return p;
  }
  const auto p = static_cast<std::int32_t>(path_nodes_.size());
  path_nodes_.emplace_back();
  head_.push_back(kNoNode);
  pos_wts_.emplace_back();
  pos_code_.emplace_back();
  prefix_.emplace_back();
  bounds_.emplace_back();
  branch_rd_.emplace_back();
  return p;
}

void IncrementalRelabeler::free_subtree_paths(NodeId h) {
  // All paths touching subtree(h) except the one entering it from above are
  // contained in it (heads hang by light edges), so freeing the path of
  // each node exactly when we stand on its head frees each id once.
  // path_of_ is cleared to -1 over the whole subtree so a later sweep (a
  // restructure after a detach, say) cannot double-free a recycled id.
  walk(h, [&](NodeId v) {
    const auto vi = static_cast<std::size_t>(v);
    const std::int32_t p = path_of_[vi];
    if (p >= 0 && head_[static_cast<std::size_t>(p)] == v) {
      head_[static_cast<std::size_t>(p)] = kNoNode;
      path_nodes_[static_cast<std::size_t>(p)].clear();
      free_paths_.push_back(p);
    }
    path_of_[vi] = -1;
    return true;
  });
}

void IncrementalRelabeler::decompose_subtree(NodeId h, std::int32_t ld0) {
  // The paper-half decomposition over subtree(h) — the same loop as
  // HeavyPathDecomposition's, seeded at h with the given light depth.
  std::vector<std::pair<NodeId, std::int32_t>> stack{{h, ld0}};
  while (!stack.empty()) {
    const auto [start, ld] = stack.back();
    stack.pop_back();
    const std::int32_t pid = alloc_path();
    const auto pi = static_cast<std::size_t>(pid);
    head_[pi] = start;
    path_nodes_[pi].clear();
    const NodeId n_path = subtree_size_[static_cast<std::size_t>(start)];
    std::int32_t pos = 0;
    for (NodeId cur = start; cur != kNoNode;) {
      const auto ci = static_cast<std::size_t>(cur);
      path_of_[ci] = pid;
      light_depth_[ci] = ld;
      pos_in_path_[ci] = pos++;
      path_nodes_[pi].push_back(cur);
      heavy_[ci] = heavy_pick(cur, n_path);
      for (const NodeId c : children_[ci])
        if (c != heavy_[ci]) stack.emplace_back(c, ld + 1);
      cur = heavy_[ci];
    }
    pos_wts_[pi] = position_weights(pid);
    pos_code_[pi] = bits::alphabetic_code(pos_wts_[pi]);
  }
}

std::size_t IncrementalRelabeler::dirty_limit() const {
  return opt_.max_dirty_fraction <= 0.0
             ? 0  // testing/ops escape hatch: rebuild on every edit
             : std::max<std::size_t>(
                   256, static_cast<std::size_t>(opt_.max_dirty_fraction *
                                                 static_cast<double>(size())));
}

void IncrementalRelabeler::record(RelabelOutcome o, std::size_t dirty) {
  std::uint64_t* const counters[] = {&stats_.incremental, &stats_.restructured,
                                     &stats_.full_heavy_flip,
                                     &stats_.full_dirty_cone};
  ++*counters[static_cast<std::size_t>(o)];
  last_outcome_ = o;
  last_dirty_ = dirty;
}

void IncrementalRelabeler::note_changed(const bits::LabelArena& old,
                                        const std::vector<NodeId>& ids) {
  for (const NodeId v : ids) {
    const auto i = static_cast<std::size_t>(v);
    if (delta_dirty_[i] == 0 &&
        (i >= old.size() || old.label_bits(i) != labels_.label_bits(i) ||
         !(old.view(i) == labels_.view(i))))
      delta_dirty_[i] = 1;
  }
}

void IncrementalRelabeler::fall_back(bool flip) {
  const bits::LabelArena old = std::move(labels_);
  full_rebuild();
  record(flip ? RelabelOutcome::kFullHeavyFlip : RelabelOutcome::kFullDirtyCone,
         size());
  // Delta tracking: the rebuild replaced the arena wholesale, but most
  // labels usually come out bit-identical — diff against the old arena
  // (word compares) so shipped deltas stay proportional to the real
  // change, not to the fallback's bluntness.
  std::vector<NodeId> all(size());
  std::iota(all.begin(), all.end(), NodeId{0});
  note_changed(old, all);
}

void IncrementalRelabeler::mark_light_site(NodeId b,
                                           std::vector<NodeId>& roots) const {
  const auto bi = static_cast<std::size_t>(b);
  for (const NodeId c : children_[bi])
    if (c != heavy_[bi]) roots.push_back(c);
}

void IncrementalRelabeler::detect_table_changes(
    const std::vector<NodeId>& chain, NodeId flip_head,
    std::int64_t size_delta, std::vector<NodeId>& roots) {
  // Position-code tables whose quantized weights moved: only paths crossed
  // by the chain can change (all other paths see identical sizes). With a
  // flip, stop above the flip head — everything at or under it was just
  // re-decomposed with fresh tables.
  for (const NodeId a : chain) {
    if (a == flip_head) break;
    const std::int32_t p = path_of_[static_cast<std::size_t>(a)];
    const auto pi = static_cast<std::size_t>(p);
    if (a != head_[pi]) continue;  // the chain enters each path at its head
    std::vector<std::uint64_t> wts = position_weights(p);
    if (wts != pos_wts_[pi]) {
      pos_wts_[pi] = std::move(wts);
      pos_code_[pi] = bits::alphabetic_code(pos_wts_[pi]);
      roots.push_back(head_[pi]);
    }
  }
  // Light-choice tables: changed at a branch node when its light child on
  // the chain crossed a quantized-weight boundary (every chain node's size
  // moved by size_delta). A changed table re-codes every light sibling, so
  // their subtrees dirty. Membership changes (a light child appearing or
  // disappearing at the edit site) are the light site's.
  for (std::size_t i = 0; i + 1 < chain.size(); ++i) {
    const NodeId a = chain[i], c = chain[i + 1];
    if (a == flip_head) break;
    if (path_of_[static_cast<std::size_t>(a)] ==
        path_of_[static_cast<std::size_t>(c)])
      continue;  // heavy edge: no light table involved
    const auto now = static_cast<std::int64_t>(
        subtree_size_[static_cast<std::size_t>(c)]);
    const auto before = static_cast<std::uint64_t>(now - size_delta);
    if (nca::code_weight(before, kPolicy) !=
        nca::code_weight(static_cast<std::uint64_t>(now), kPolicy))
      mark_light_site(a, roots);
    if (c == flip_head) break;
  }
}

void IncrementalRelabeler::relabel(const std::vector<NodeId>& chain,
                                   std::int64_t size_delta, NodeId flip_head,
                                   NodeId seed, NodeId light_site) {
  const bool flipped = flip_head != kNoNode;
  if (flipped) {
    const auto fi = static_cast<std::size_t>(flip_head);
    if (static_cast<std::size_t>(subtree_size_[fi]) > dirty_limit())
      return fall_back(true);  // restructure region too big: don't start
    const std::int32_t ld = light_depth_[fi];
    free_subtree_paths(flip_head);
    decompose_subtree(flip_head, ld);
  }
  // Dirty roots: the seed; a flip's whole restructure region (which holds
  // the light site) or else the light site's light subtrees; then every
  // table change along the chain.
  std::vector<NodeId> roots{seed};
  if (flipped)
    roots.push_back(flip_head);
  else if (light_site != kNoNode)
    mark_light_site(light_site, roots);
  detect_table_changes(chain, flip_head, size_delta, roots);

  std::vector<std::uint8_t> dirty(size(), 0);
  std::vector<NodeId> marked;  // the dirty ids
  for (const NodeId r : roots)
    walk(r, [&](NodeId x) {  // dirty sets are whole cones: prune at one
      auto& d = dirty[static_cast<std::size_t>(x)];
      if (d != 0) return false;
      d = 1;
      marked.push_back(x);
      return true;
    });
  const std::size_t count = marked.size();
  if (count > dirty_limit()) return fall_back(flipped);

  // The paths a dirty node heads (non-live ids are on path -1).
  std::vector<std::int32_t> paths;
  for (const NodeId x : marked) {
    const std::int32_t p = path_of_[static_cast<std::size_t>(x)];
    if (p >= 0 && head_[static_cast<std::size_t>(p)] == x) paths.push_back(p);
  }
  rebuild_prefixes(std::move(paths));

  // Splice: clean labels ride over as word runs, dirty labels re-emit
  // (tombstoned/detached dirty ids re-emit as zero-length).
  std::vector<std::uint64_t> scratch;
  const bits::LabelArena old = std::move(labels_);
  labels_ = bits::LabelArena::patched(
      old, size(), dirty,
      [&](std::size_t i, BitWriter& w) { emit_label(i, w, scratch); });
  record(flipped ? RelabelOutcome::kRestructured : RelabelOutcome::kIncremental,
         count);
  stats_.labels_reemitted += count;
  stats_.labels_spliced += size() - count;
  // Delta tracking: a dirty-cone member whose re-emitted bits came out
  // identical (a sibling at the quantization boundary, say) need not ship.
  note_changed(old, marked);
}

void IncrementalRelabeler::log_edit(LabelEdit::Kind kind, std::uint64_t a,
                                    std::uint64_t b) {
  delta_edits_.push_back({kind, a, b});
}

bool IncrementalRelabeler::cut(NodeId v, const std::vector<NodeId>& chain) {
  const auto vi = static_cast<std::size_t>(v);
  const auto bi = static_cast<std::size_t>(parent_[vi]);
  auto& pc = children_[bi];
  pc.erase(std::find(pc.begin(), pc.end(), v));
  add_sizes(chain, -static_cast<std::int64_t>(subtree_size_[vi]));
  const bool was_heavy = heavy_[bi] == v;
  if (was_heavy) {
    // The path through v continues below the parent only inside
    // subtree(v): truncate it at the parent.
    path_nodes_[static_cast<std::size_t>(path_of_[bi])].resize(
        static_cast<std::size_t>(pos_in_path_[bi] + 1));
    heavy_[bi] = kNoNode;
  }
  free_subtree_paths(v);
  return was_heavy;
}

NodeId IncrementalRelabeler::insert_leaf(NodeId parent, std::uint32_t weight) {
  if (!alive(parent))
    throw std::out_of_range("IncrementalRelabeler: parent out of range");
  ++stats_.edits;
  log_edit(LabelEdit::Kind::kInsertLeaf, static_cast<std::uint64_t>(parent),
           weight);
  const auto pi = static_cast<std::size_t>(parent);
  const auto x = static_cast<NodeId>(size());
  const std::vector<NodeId> chain = chain_to(parent);  // every size grows

  children_[pi].push_back(x);  // x is the max id: ascending order holds
  children_.emplace_back();
  parent_.push_back(parent);
  weight_.push_back(weight);
  subtree_size_.push_back(1);
  root_dist_.push_back(root_dist_[pi] + weight);
  state_.push_back(kLive);
  ++live_;
  heavy_.push_back(kNoNode);  // placed below, or by the tail's restructure
  path_of_.push_back(-1);
  pos_in_path_.push_back(0);
  light_depth_.push_back(0);
  base_of_cur_.push_back(kNoNode);  // no base label: always ships in a delta
  delta_dirty_.push_back(0);
  add_sizes(chain, +1);

  bool extends = false;
  const NodeId flip_head = recheck_heavy(chain, x, &extends);
  if (flip_head == kNoNode && extends) {  // x is the parent path's new bottom
    const std::int32_t pp = path_of_[pi];
    path_nodes_[static_cast<std::size_t>(pp)].push_back(x);
    path_of_.back() = pp;
    pos_in_path_.back() = pos_in_path_[pi] + 1;
    light_depth_.back() = light_depth_[pi];
    heavy_[pi] = x;
  } else if (flip_head == kNoNode) {  // x heads a light path of its own
    decompose_subtree(x, light_depth_[pi] + 1);
  }
  relabel(chain, +1, flip_head, x, extends ? kNoNode : parent);
  return x;
}

void IncrementalRelabeler::delete_leaf(NodeId v) {
  if (!alive(v))
    throw std::out_of_range("IncrementalRelabeler: delete_leaf id not live");
  const auto vi = static_cast<std::size_t>(v);
  if (parent_[vi] == kNoNode)
    throw std::invalid_argument("IncrementalRelabeler: cannot delete the root");
  if (!children_[vi].empty())
    throw std::invalid_argument("IncrementalRelabeler: target is not a leaf");
  ++stats_.edits;
  log_edit(LabelEdit::Kind::kDeleteLeaf, static_cast<std::uint64_t>(v), 0);
  const NodeId parent = parent_[vi];
  const std::vector<NodeId> chain = chain_to(parent);

  // The id stays (a tombstone with a zero-length label until compact()),
  // the node leaves every live structure.
  const bool was_heavy = cut(v, chain);
  state_[vi] = kDead;
  --live_;
  relabel(chain, -1, recheck_heavy(chain), v, was_heavy ? kNoNode : parent);
}

void IncrementalRelabeler::detach_subtree(NodeId v) {
  if (!alive(v))
    throw std::out_of_range("IncrementalRelabeler: detach id not live");
  const auto vi = static_cast<std::size_t>(v);
  if (parent_[vi] == kNoNode)
    throw std::invalid_argument("IncrementalRelabeler: cannot detach the root");
  if (detached_root_ != kNoNode)
    throw std::logic_error("IncrementalRelabeler: a detach is already pending");
  ++stats_.edits;
  log_edit(LabelEdit::Kind::kDetach, static_cast<std::uint64_t>(v), 0);
  const NodeId parent = parent_[vi];
  const std::vector<NodeId> chain = chain_to(parent);
  const auto k = static_cast<std::int64_t>(subtree_size_[vi]);

  const bool was_heavy = cut(v, chain);
  walk(v, [&](NodeId x) {
    state_[static_cast<std::size_t>(x)] = kDetached;
    --live_;
    return true;
  });
  detached_root_ = v;
  parent_[vi] = kNoNode;
  relabel(chain, -k, recheck_heavy(chain), v, was_heavy ? kNoNode : parent);
}

void IncrementalRelabeler::attach_subtree(NodeId parent, std::uint32_t weight) {
  if (detached_root_ == kNoNode)
    throw std::logic_error("IncrementalRelabeler: no detach is pending");
  if (!alive(parent))
    throw std::out_of_range("IncrementalRelabeler: attach parent not live");
  ++stats_.edits;
  log_edit(LabelEdit::Kind::kAttach, static_cast<std::uint64_t>(parent),
           weight);
  const NodeId v = detached_root_;
  const auto vi = static_cast<std::size_t>(v);
  const std::vector<NodeId> chain = chain_to(parent);
  const auto k = static_cast<std::int64_t>(subtree_size_[vi]);

  // Structural graft (children stay in ascending-id order), then revive
  // the subtree and rebase its root distances under the new parent.
  auto& pc = children_[static_cast<std::size_t>(parent)];
  pc.insert(std::lower_bound(pc.begin(), pc.end(), v), v);
  parent_[vi] = parent;
  weight_[vi] = weight;
  add_sizes(chain, +k);
  walk(v, [&](NodeId x) {
    const auto xi = static_cast<std::size_t>(x);
    state_[xi] = kLive;
    ++live_;
    root_dist_[xi] =
        root_dist_[static_cast<std::size_t>(parent_[xi])] + weight_[xi];
    return true;
  });
  detached_root_ = kNoNode;

  const NodeId flip_head = recheck_heavy(chain);
  if (flip_head == kNoNode)  // v hangs by a light edge: decompose it there
    decompose_subtree(v, light_depth_[static_cast<std::size_t>(parent)] + 1);
  relabel(chain, +k, flip_head, v, parent);
}

void IncrementalRelabeler::set_edge_weight(NodeId v, std::uint32_t weight) {
  if (!alive(v))
    throw std::out_of_range("IncrementalRelabeler: weight id not live");
  const auto vi = static_cast<std::size_t>(v);
  if (parent_[vi] == kNoNode)
    throw std::invalid_argument(
        "IncrementalRelabeler: the root has no parent edge");
  ++stats_.edits;
  log_edit(LabelEdit::Kind::kSetWeight, static_cast<std::uint64_t>(v), weight);
  if (weight_[vi] == weight)  // no-op edit: nothing dirties
    return record(RelabelOutcome::kIncremental, 0);
  weight_[vi] = weight;

  // Sizes are untouched, so the decomposition and every code table stay
  // put; only the root distances over subtree(v) move (the tail's
  // prefix pass re-derives the branch distances of the paths inside).
  walk(v, [&](NodeId x) {
    const auto xi = static_cast<std::size_t>(x);
    root_dist_[xi] =
        root_dist_[static_cast<std::size_t>(parent_[xi])] + weight_[xi];
    return true;
  });
  relabel({}, 0, kNoNode, v, kNoNode);
}

std::vector<NodeId> IncrementalRelabeler::dense_map() const {
  std::vector<NodeId> map(size(), kNoNode);
  NodeId next = 0;
  for (std::size_t i = 0; i < size(); ++i)
    if (state_[i] == kLive) map[i] = next++;
  return map;
}

std::vector<NodeId> IncrementalRelabeler::compact() {
  if (detached_root_ != kNoNode)
    throw std::logic_error(
        "IncrementalRelabeler: compact with a detach pending");
  ++stats_.compactions;
  log_edit(LabelEdit::Kind::kCompact, 0, 0);
  const std::size_t n = size();
  std::vector<NodeId> map(n, kNoNode);
  std::vector<std::size_t> keep;
  keep.reserve(live_);
  for (std::size_t i = 0; i < n; ++i)
    if (state_[i] == kLive) {
      map[i] = static_cast<NodeId>(keep.size());
      keep.push_back(i);
    }
  if (keep.size() == n) return map;  // no tombstones: identity

  // Delta tracking: a dropped id that existed in the base epoch becomes a
  // dropped run in the next delta; ids born and killed since the base just
  // vanish.
  for (std::size_t i = 0; i < n; ++i)
    if (state_[i] != kLive && base_of_cur_[i] != kNoNode)
      delta_dropped_.push_back(
          static_cast<std::uint64_t>(base_of_cur_[i]));

  const auto m = keep.size();
  const auto take_id = [&](NodeId x) {
    return x == kNoNode ? kNoNode : map[static_cast<std::size_t>(x)];
  };
  const auto gather = [&](auto& vec) {
    std::remove_reference_t<decltype(vec)> out(m);
    for (std::size_t j = 0; j < m; ++j) out[j] = std::move(vec[keep[j]]);
    vec = std::move(out);
  };
  for (std::size_t j = 0; j < m; ++j) {
    const std::size_t o = keep[j];
    parent_[o] = take_id(parent_[o]);
    heavy_[o] = take_id(heavy_[o]);
    for (NodeId& c : children_[o]) c = take_id(c);  // monotone: order holds
  }
  gather(parent_);
  gather(weight_);
  gather(children_);
  gather(subtree_size_);
  gather(root_dist_);
  gather(heavy_);
  gather(path_of_);
  gather(pos_in_path_);
  gather(light_depth_);
  gather(base_of_cur_);
  gather(delta_dirty_);
  state_.assign(m, kLive);
  for (auto& pn : path_nodes_)
    for (NodeId& x : pn) x = take_id(x);
  for (NodeId& h : head_)
    if (h != kNoNode) h = take_id(h);
  labels_ = bits::LabelArena::gathered(labels_, keep);
  return map;
}

LabelDelta IncrementalRelabeler::make_delta() const {
  LabelDelta d;
  d.scheme = scheme_tag();
  d.base_count = delta_base_count_;
  d.new_count = size();
  d.base_lens_hash = delta_base_hash_;
  std::vector<std::uint64_t> dropped = delta_dropped_;
  std::sort(dropped.begin(), dropped.end());
  d.dropped = id_runs(dropped);
  std::vector<std::size_t> ids;
  for (std::size_t i = 0; i < size(); ++i)
    if (delta_dirty_[i] != 0 || base_of_cur_[i] == kNoNode) ids.push_back(i);
  d.dirty.assign(ids.begin(), ids.end());
  d.payload = bits::LabelArena::gathered(labels_, ids);
  d.edits = delta_edits_;
  d.base_chain = delta_chain_;
  d.new_chain = LabelStore::chain_hash(delta_chain_, d);
  return d;
}

void IncrementalRelabeler::rebase_delta() {
  delta_base_count_ = size();
  delta_base_hash_ = LabelStore::lens_hash(labels_);
  // A fresh base: the serving side derives the same chain start from the
  // full arena it just loaded.
  delta_chain_ = delta_base_hash_;
  base_of_cur_.resize(size());
  for (std::size_t i = 0; i < size(); ++i)
    base_of_cur_[i] = static_cast<NodeId>(i);
  delta_dropped_.clear();
  delta_dirty_.assign(size(), 0);
  delta_edits_.clear();
}

void IncrementalRelabeler::advance_delta(const LabelDelta& d) {
  if (d.base_chain != delta_chain_)
    throw std::logic_error(
        "IncrementalRelabeler: delta does not chain from the current epoch");
  rebase_delta();
  delta_chain_ = d.new_chain;  // continue the chain, don't restart it
}

void IncrementalRelabeler::ship_delta(std::ostream& os) {
  const LabelDelta d = make_delta();
  LabelStore::save_delta(os, d);
  advance_delta(d);
}

void IncrementalRelabeler::check_state() const {
  // Fresh pipeline on the compacted live tree, compared through the
  // (order-preserving) dense map.
  std::vector<NodeId> old_of;
  const Tree t = live_tree(&old_of);
  const HeavyPathDecomposition hpd(t);
  const nca::HeavyPathCodes codes(hpd, kPolicy);
  const auto fail = [](const char* what, NodeId v) {
    throw std::logic_error(std::string("IncrementalRelabeler state: ") +
                           what + " diverges at node " + std::to_string(v));
  };
  if (static_cast<std::size_t>(t.size()) != live_) fail("live count", -1);
  // Fresh branch-rd recurrence (same as full_rebuild's), in fresh ids.
  std::vector<std::vector<std::uint64_t>> want_rd(
      static_cast<std::size_t>(hpd.num_paths()));
  {
    std::vector<std::int32_t> order(want_rd.size());
    for (std::size_t p = 0; p < want_rd.size(); ++p)
      order[p] = static_cast<std::int32_t>(p);
    std::sort(order.begin(), order.end(),
              [&](std::int32_t a, std::int32_t b) {
                return hpd.light_depth(hpd.head(a)) <
                       hpd.light_depth(hpd.head(b));
              });
    for (const std::int32_t p : order) {
      const NodeId b = t.parent(hpd.head(p));
      if (b == kNoNode) continue;
      auto rs = want_rd[static_cast<std::size_t>(hpd.path_of(b))];
      rs.push_back(t.root_distance(b));
      want_rd[static_cast<std::size_t>(p)] = std::move(rs);
    }
  }
  for (NodeId nv = 0; nv < t.size(); ++nv) {
    const NodeId v = old_of[static_cast<std::size_t>(nv)];
    const auto i = static_cast<std::size_t>(v);
    const NodeId want_heavy =
        hpd.heavy_child(nv) == kNoNode
            ? kNoNode
            : old_of[static_cast<std::size_t>(hpd.heavy_child(nv))];
    if (heavy_[i] != want_heavy) fail("heavy_child", v);
    if (light_depth_[i] != hpd.light_depth(nv)) fail("light_depth", v);
    if (pos_in_path_[i] != hpd.pos_in_path(nv)) fail("pos_in_path", v);
    if (subtree_size_[i] != t.subtree_size(nv)) fail("subtree_size", v);
    if (root_dist_[i] != t.root_distance(nv)) fail("root_distance", v);
    const auto p = static_cast<std::size_t>(path_of_[i]);
    const std::int32_t fp = hpd.path_of(nv);
    if (head_[p] != old_of[static_cast<std::size_t>(hpd.head(fp))])
      fail("path head", v);
    const auto nodes = hpd.path_nodes(fp);
    std::vector<NodeId> want_nodes;
    want_nodes.reserve(nodes.size());
    for (const NodeId x : nodes)
      want_nodes.push_back(old_of[static_cast<std::size_t>(x)]);
    if (path_nodes_[p] != want_nodes) fail("path_nodes", v);
    const auto want_pc = codes.position_codes(fp);
    if (pos_code_[p].size() != want_pc.size()) fail("pos_code size", v);
    for (std::size_t q = 0; q < want_pc.size(); ++q)
      if (pos_code_[p][q].bits != want_pc[q].bits ||
          pos_code_[p][q].len != want_pc[q].len)
        fail("pos_code", v);
    if (!(prefix_[p] == codes.prefix(fp))) fail("prefix", v);
    if (bounds_[p] != codes.prefix_bounds(fp)) fail("bounds", v);
    if (branch_rd_[p] != want_rd[static_cast<std::size_t>(fp)])
      fail("branch_rd", v);
  }
  for (std::size_t i = 0; i < size(); ++i)
    if (state_[i] != kLive && path_of_[i] != -1)
      fail("non-live node still names a path", static_cast<NodeId>(i));
  for (const std::int32_t p : free_paths_)
    if (head_[static_cast<std::size_t>(p)] != kNoNode)
      fail("free list names a live path", head_[static_cast<std::size_t>(p)]);
}

LabelStore::LoadedArena IncrementalRelabeler::to_loaded() const {
  LabelStore::LoadedArena out;
  out.scheme = scheme_tag();
  out.labels = labels_;
  return out;
}

Tree IncrementalRelabeler::snapshot() const { return live_tree(nullptr); }

}  // namespace treelab::core
