// IncrementalRelabeler — the build-side half of the dynamic-forest story.
//
// The deployment model is "compute labels once centrally, ship them, answer
// locally" — but real forests change. A from-scratch relabel of an n-node
// tree costs the full pipeline (HPD, code tables, O(n log n) bits of
// emission) for every edit; this class maintains an Alstrup distance
// labeling under the full edit model —
//   * insert_leaf    — append a new leaf (PR 4's original edit),
//   * delete_leaf    — remove a leaf; its id becomes a tombstone (zero-length
//                      label) until an explicit compact(),
//   * detach_subtree / attach_subtree — cut a whole subtree out of the tree
//                      and graft it back elsewhere (a subtree move is a
//                      detach followed by an attach),
//   * set_edge_weight — change one parent-edge weight (the weighted-scheme
//                      scaffold: distances shift, structure does not),
//   * compact()      — drop tombstoned ids, renumber the survivors densely
//                      (order-preserving) and return the old-id → new-id
//                      remap so serving layers can translate
// — and re-emits only the labels an edit actually dirties, splicing the rest
// into the deterministic bits::LabelArena layout (LabelArena::patched). The
// result is *bit-identical* to AlstrupScheme(snapshot(), {kStablePow2})
// built from scratch on the edited (compacted) tree — asserted across
// randomized edit-sequence interleavings in tests/edit_fuzz_test and
// tests/incremental_relabel_test the same way parallel_build_test asserts
// thread-count parity.
//
// Why the stable weight policy: with the paper's exact Gilbert–Moore weights
// a single leaf insert bumps a subtree size on *every* heavy path up the
// root path, every cumulative weight sum shifts, and every label in the tree
// changes — there is nothing incremental to save. Under
// nca::CodeWeights::kStablePow2 (weights rounded up to powers of two,
// light children in node-id order) a code table changes only when a mass
// crosses a power of two or a path gains/loses a member, so a typical edit
// dirties one small cone instead of the world. The dirty set of an edit at
// node x is:
//   * x itself (the new leaf, the tombstone, or the moved subtree root),
//   * subtree(head(P)) for every heavy path P whose position-code table
//     changed (a crossed power of two at a branch node, or a path that
//     gained/lost a member),
//   * the light subtrees of every branch node whose light-choice table
//     changed (a light child added/removed, or a light child's quantized
//     size crossing),
//   * for weight edits: all of subtree(x) (every label in it stores a
//     root distance).
//
// One pipeline: every edit applies its shape change, re-runs the heavy-child
// rule along the root path, places a new leaf or grafted subtree locally
// when nothing flipped, and ends in one shared tail. The tail re-decomposes
// a flipped path head's subtree in place, marks the dirty cones, rebuilds
// the dirty paths' prefixes parents first — each branch node's light-choice
// code once, however many of its light children are dirty, as
// nca::HeavyPathCodes does — and splices the re-emitted labels. A flip whose
// subtree is past the dirty limit, or any edit whose dirty cone covers most
// of the tree, falls back to a full rebuild on HeavyPathDecomposition +
// nca::HeavyPathCodes. Both fallbacks are separately counted and exposed via
// stats() so operators can see how incremental their workload actually is.
// Fallbacks produce the same bits (the whole point), only slower.
//
// Delta shipping: the relabeler knows exactly which labels every edit
// changed, so it can hand the serving layer a *delta* instead of a whole
// file. make_delta()/ship_delta() package everything since the last
// rebase_delta() — dropped ids (from compact), dirty label payloads, and the
// tree-shape edit log — into core::LabelDelta / the LabelStore v3 container,
// which serve::ForestIndex::apply_delta() applies copy-on-write.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "bits/alphabetic.hpp"
#include "bits/label_arena.hpp"
#include "core/label_store.hpp"
#include "nca/heavy_path_codes.hpp"
#include "tree/tree.hpp"

namespace treelab::core {

struct RelabelOptions {
  /// Emission parallelism for full rebuilds (0 = TREELAB_THREADS / hw).
  /// Incremental re-emission is serial — dirty sets are small by design.
  int threads = 0;
  /// Fall back to a full rebuild when an edit dirties more than this
  /// fraction of the labels (past that point splicing saves nothing).
  /// Small trees always go incremental (the cutoff is floored at 256 dirty
  /// labels) so the incremental machinery stays exercised; <= 0 forces a
  /// full rebuild on every edit (testing/ops escape hatch).
  double max_dirty_fraction = 0.5;
};

/// How the last edit was applied.
enum class RelabelOutcome : std::uint8_t {
  kIncremental,    ///< dirty labels re-emitted, rest spliced
  kRestructured,   ///< a heavy-child flip, contained: the flipped path
                   ///< head's subtree was re-decomposed, then spliced
  kFullHeavyFlip,  ///< a flip whose subtree exceeded the limit: full rebuild
  kFullDirtyCone,  ///< dirty cone above max_dirty_fraction: full rebuild
};

struct RelabelStats {
  std::uint64_t edits = 0;         ///< inserts + deletes + detaches +
                                   ///< attaches + weight updates
  std::uint64_t incremental = 0;   ///< spliced, decomposition untouched
  std::uint64_t restructured = 0;  ///< spliced after a local re-decomposition
  std::uint64_t full_heavy_flip = 0;
  std::uint64_t full_dirty_cone = 0;
  std::uint64_t labels_reemitted = 0;  ///< over incremental + restructured
  std::uint64_t labels_spliced = 0;    ///< clean labels carried over
  std::uint64_t compactions = 0;       ///< compact() calls (not edits)
};

class IncrementalRelabeler {
 public:
  explicit IncrementalRelabeler(const tree::Tree& initial,
                                RelabelOptions opt = {});

  IncrementalRelabeler(const IncrementalRelabeler&) = delete;
  IncrementalRelabeler& operator=(const IncrementalRelabeler&) = delete;

  /// Appends a new leaf under `parent` (edge weight `weight`) and brings the
  /// labeling up to date. Returns the new node's id (the current size()).
  /// Throws std::out_of_range on a bad or non-live parent.
  tree::NodeId insert_leaf(tree::NodeId parent, std::uint32_t weight = 1);

  /// Removes leaf `v` (a live node with no attached children). Its id
  /// becomes a tombstone: the slot stays in the id space with a zero-length
  /// label until compact() drops it. Throws std::out_of_range on a bad or
  /// non-live id, std::invalid_argument if v is the root or not a leaf.
  void delete_leaf(tree::NodeId v);

  /// Cuts subtree(v) out of the tree. The subtree's nodes keep their ids
  /// but leave the labeling (zero-length labels) until attach_subtree()
  /// grafts the subtree back. At most one subtree may be detached at a
  /// time. Throws std::out_of_range on a bad or non-live id,
  /// std::invalid_argument if v is the root, std::logic_error if a detach
  /// is already pending.
  void detach_subtree(tree::NodeId v);

  /// Grafts the pending detached subtree back under `parent` with edge
  /// weight `weight` and relabels its cone. Throws std::logic_error if no
  /// detach is pending, std::out_of_range on a bad or non-live parent.
  void attach_subtree(tree::NodeId parent, std::uint32_t weight = 1);

  /// Changes the weight of the edge (v, parent(v)) — dirties exactly
  /// subtree(v) (every label in it stores a root distance; the
  /// decomposition and code tables are size-based and unaffected). Throws
  /// std::out_of_range on a bad or non-live id, std::invalid_argument at
  /// the root.
  void set_edge_weight(tree::NodeId v, std::uint32_t weight);

  /// Drops every tombstoned id, renumbering the survivors densely in the
  /// same relative order (label bits are invariant under this: codes are
  /// size- and order-based, not id-based). Returns the old-id → new-id
  /// remap, kNoNode for dropped ids, for the caller's own handles. The
  /// compaction ships as the next delta's dropped runs, which
  /// serve::ForestIndex::apply_delta composes into the tree's external-id
  /// map, so stale external ids fail deterministically instead of
  /// answering for the wrong node. Not an edit (no labels change). Throws
  /// std::logic_error while a detach is pending.
  std::vector<tree::NodeId> compact();

  /// Id-space size (live nodes + tombstones + detached); the labels()
  /// arena has exactly this many entries.
  [[nodiscard]] std::size_t size() const noexcept { return parent_.size(); }
  /// Nodes currently in the tree (excludes tombstones and the detached
  /// subtree).
  [[nodiscard]] std::size_t live_size() const noexcept { return live_; }
  /// True when id v currently names a node of the tree.
  [[nodiscard]] bool alive(tree::NodeId v) const noexcept {
    return v >= 0 && static_cast<std::size_t>(v) < size() &&
           state_[static_cast<std::size_t>(v)] == kLive;
  }
  /// Root of the pending detached subtree, or kNoNode.
  [[nodiscard]] tree::NodeId detached_root() const noexcept {
    return detached_root_;
  }

  /// The current labeling: label i is bit-identical to
  /// AlstrupScheme(snapshot(), {kStablePow2}).labels()[dense_map()[i]] for
  /// live i, and zero-length for tombstoned/detached i.
  [[nodiscard]] const bits::LabelArena& labels() const noexcept {
    return labels_;
  }

  /// The scheme tag / params the labels carry on the wire (LabelStore).
  [[nodiscard]] static const char* scheme_tag() noexcept { return "alstrup"; }

  /// A LoadedArena copy of the current labeling, ready for
  /// serve::ForestIndex::add / update — the hot-swap hand-off.
  [[nodiscard]] LabelStore::LoadedArena to_loaded() const;

  /// An immutable Tree snapshot of the current live tree, ids compacted by
  /// dense_map() — the from-scratch reference the parity tests rebuild
  /// schemes on. Identity-mapped until the first deletion/detach.
  [[nodiscard]] tree::Tree snapshot() const;

  /// Current-id → dense-id map (what compact() would return), kNoNode for
  /// tombstoned/detached ids.
  [[nodiscard]] std::vector<tree::NodeId> dense_map() const;

  // --- delta shipping -------------------------------------------------------

  /// Packages every label change since the last rebase_delta() (or
  /// construction) as a core::LabelDelta: dropped base ids (compactions),
  /// dirty label payloads, the tree-shape edit log, and the epoch-chain
  /// values (base_chain / new_chain) that let a serving node reject a
  /// skipped or reordered delta. Apply it to the base-epoch labeling with
  /// LabelStore::apply_delta / serve::ForestIndex::apply_delta.
  [[nodiscard]] LabelDelta make_delta() const;

  /// Restarts delta tracking from the current labeling as a *fresh base* —
  /// the serving side is assumed to (re)load the full arena, so the epoch
  /// chain restarts at lens_hash(labels()).
  void rebase_delta();

  /// Continues delta tracking after `d` (a make_delta() result) was
  /// successfully shipped: the chain advances to d.new_chain and tracking
  /// restarts from the current labeling. Throws std::logic_error if d does
  /// not chain from the current epoch.
  void advance_delta(const LabelDelta& d);

  /// make_delta() → LabelStore::save_delta(os) → advance_delta().
  void ship_delta(std::ostream& os);

  /// Debug/test hook: recomputes the decomposition and code state from
  /// scratch on the current live tree and throws std::logic_error naming
  /// the first divergence (path numbering aside, which is internal). O(n) —
  /// meant for tests, not production edits.
  void check_state() const;

  [[nodiscard]] const RelabelStats& stats() const noexcept { return stats_; }
  [[nodiscard]] RelabelOutcome last_outcome() const noexcept {
    return last_outcome_;
  }
  /// Labels re-emitted by the last edit (size() on a fallback).
  [[nodiscard]] std::size_t last_dirty_count() const noexcept {
    return last_dirty_;
  }

 private:
  using NodeId = tree::NodeId;

  enum NodeState : std::uint8_t { kLive = 0, kDead = 1, kDetached = 2 };

  void full_rebuild();
  /// The compacted live tree (what snapshot() returns); when `old_of_out`
  /// is given it receives the dense-id → current-id map (the inverse of
  /// dense_map() over live ids). One definition of the live/dense mapping,
  /// shared by full_rebuild, check_state and snapshot.
  [[nodiscard]] tree::Tree live_tree(std::vector<NodeId>* old_of_out) const;
  /// Root-to-v chain (inclusive).
  [[nodiscard]] std::vector<NodeId> chain_to(NodeId v) const;
  /// Parent-first walk of subtree(r) over children_ (a detached subtree
  /// walks too); `visit(x)` returns false to skip x's descendants.
  template <class Visit>
  void walk(NodeId r, Visit visit) const;
  /// The paper-half heavy-child rule: v's first child (id order) holding
  /// at least half of `n_path`, the size of its path head's subtree.
  [[nodiscard]] NodeId heavy_pick(NodeId v, NodeId n_path) const;
  /// Re-runs the heavy descent over every path crossed by the root-to-
  /// parent chain with the post-edit sizes. Returns the head of the topmost
  /// path with a heavy-child flip (kNoNode if none — flips are confined to
  /// that head's subtree, every deeper crossed path lies inside it). The
  /// one divergence that is not a flip: a fresh `leaf` (already appended)
  /// continuing its parent's path as the heavy child sets `extends`.
  [[nodiscard]] NodeId recheck_heavy(const std::vector<NodeId>& chain,
                                     NodeId leaf = tree::kNoNode,
                                     bool* extends = nullptr) const;
  /// Frees every path headed inside subtree(h) and clears path_of_ over it.
  void free_subtree_paths(NodeId h);
  /// Decomposes subtree(h) from scratch (heavy paths, position tables) at
  /// light depth `ld`, allocating fresh/recycled path ids. The
  /// decomposition above h must be current; the tail's prefix pass builds
  /// the new paths' prefixes and branch distances (all of subtree(h) is
  /// dirty by then).
  void decompose_subtree(NodeId h, std::int32_t ld);
  [[nodiscard]] std::int32_t alloc_path();
  [[nodiscard]] std::vector<std::uint64_t> position_weights(
      std::int32_t p) const;
  /// Sorts path ids parents first (by head light depth), the light paths
  /// of one branch node adjacent.
  void order_paths(std::vector<std::int32_t>& paths) const;
  /// branch_rd_[p] from its parent path's list plus the branch node's root
  /// distance (empty on the root path).
  void step_branch_rd(std::size_t p);
  /// Rebuilds prefix, bounds and branch distances of `paths` (whose parent
  /// paths are current or listed too), each branch node's light-choice
  /// code once.
  void rebuild_prefixes(std::vector<std::int32_t> paths);
  void emit_label(std::size_t i, bits::BitWriter& w,
                  std::vector<std::uint64_t>& scratch) const;

  /// Dirty-label count past which the edit falls back to a full rebuild.
  [[nodiscard]] std::size_t dirty_limit() const;
  /// Counts the edit under `o` and sets last_outcome()/last_dirty_count().
  void record(RelabelOutcome o, std::size_t dirty);
  /// Flags for the next delta each label among `ids` that differs from
  /// `old`.
  void note_changed(const bits::LabelArena& old,
                    const std::vector<NodeId>& ids);
  /// Full rebuild + fallback bookkeeping (outcome, stats, delta tracking).
  void fall_back(bool flip);
  /// Adds `delta` to subtree_size_ along the chain.
  void add_sizes(const std::vector<NodeId>& chain, std::int64_t delta);
  /// Light subtrees of b (a changed light-choice table re-codes them all).
  void mark_light_site(NodeId b, std::vector<NodeId>& roots) const;
  /// Dirty roots from table changes along the chain after sizes moved by
  /// `size_delta`: position-code tables whose quantized weights changed,
  /// and light-choice sites where a chain child's quantized weight crossed.
  /// Stops above `flip_head` (that subtree was just re-decomposed).
  void detect_table_changes(const std::vector<NodeId>& chain,
                            NodeId flip_head, std::int64_t size_delta,
                            std::vector<NodeId>& roots);
  /// The tail every edit ends in, after its shape change, recheck_heavy
  /// and local placement: re-decomposes subtree(flip_head) (or falls back
  /// when it alone passes dirty_limit()), marks the cones of `seed`, of
  /// `light_site`'s light subtrees (skipped on a flip, whose region holds
  /// them) and of every table change along `chain` (sizes moved by
  /// `size_delta`), then splices those labels — or falls back when the
  /// cones pass dirty_limit().
  void relabel(const std::vector<NodeId>& chain, std::int64_t size_delta,
               NodeId flip_head, NodeId seed, NodeId light_site);
  /// Unhooks subtree(v) from its parent, from the sizes along `chain` and
  /// from the decomposition (its paths freed; the parent's path truncated
  /// when v was its heavy child). Returns whether v was.
  [[nodiscard]] bool cut(NodeId v, const std::vector<NodeId>& chain);
  void log_edit(LabelEdit::Kind kind, std::uint64_t a, std::uint64_t b);

  RelabelOptions opt_;
  RelabelStats stats_;
  RelabelOutcome last_outcome_ = RelabelOutcome::kIncremental;
  std::size_t last_dirty_ = 0;

  // Dynamic tree state (children kept in ascending-id order — Tree's
  // ordering, which the stable policy's light-child order is defined by).
  // Ids are stable across edits; deletions tombstone, compact() renumbers.
  std::vector<NodeId> parent_;
  std::vector<std::uint32_t> weight_;
  std::vector<std::vector<NodeId>> children_;
  std::vector<NodeId> subtree_size_;
  std::vector<std::uint64_t> root_dist_;
  std::vector<std::uint8_t> state_;  // NodeState
  std::size_t live_ = 0;
  NodeId detached_root_ = tree::kNoNode;

  // Heavy path decomposition state (paper >= |T|/2 variant). Path ids are
  // internal bookkeeping — label bits never depend on the numbering, so
  // incremental numbering may differ from a fresh HPD's without breaking
  // parity. Tombstoned/detached nodes carry path_of_ == -1.
  std::vector<NodeId> heavy_;
  std::vector<std::int32_t> path_of_;
  std::vector<std::int32_t> pos_in_path_;
  std::vector<std::int32_t> light_depth_;
  std::vector<std::vector<NodeId>> path_nodes_;  // per path, top to bottom
  std::vector<NodeId> head_;  // per path; kNoNode = recycled slot
  std::vector<std::int32_t> free_paths_;  // recycled ids (restructure)

  // Stable-policy code state, per path.
  std::vector<std::vector<std::uint64_t>> pos_wts_;  // quantized weights
  std::vector<std::vector<bits::Codeword>> pos_code_;
  std::vector<bits::BitVec> prefix_;
  std::vector<std::vector<std::uint64_t>> bounds_;
  std::vector<std::vector<std::uint64_t>> branch_rd_;

  bits::LabelArena labels_;

  // Delta tracking since the last rebase_delta()/advance_delta().
  std::uint64_t delta_base_count_ = 0;
  std::uint64_t delta_base_hash_ = 0;
  std::uint64_t delta_chain_ = 0;
  std::vector<NodeId> base_of_cur_;           // cur id -> base id / kNoNode
  std::vector<std::uint64_t> delta_dropped_;  // base ids compacted away
  std::vector<std::uint8_t> delta_dirty_;     // cur-id space
  std::vector<LabelEdit> delta_edits_;
};

}  // namespace treelab::core
