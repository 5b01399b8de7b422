// ForestIndex — the local serving half of the paper's deployment story.
// Labels are computed once centrally and shipped (LabelStore); a node that
// received label files for many trees answers distance queries from labels
// alone. ForestIndex is that node's machinery:
//
//   * many labeled trees behind one API, heterogeneous schemes (AnyScheme
//     dispatches on the scheme tag in each LabelStore header),
//   * zero-copy label storage where possible (LabelStore::open_mapped
//     maps a version-2 file into a bits::LabelArena — one mmap, not a
//     copy; in-memory labelings are served from the same arena type),
//   * trees sharded by id across S shards, each shard owning a
//     byte-bounded cache of attached (pre-parsed) labels, so hot labels
//     are parsed once and queried many times. The cache (SlotCache) keeps
//     one dense array of attachment pointers per tree, indexed by external
//     node id, and a FIFO ring that owns the attachments and evicts the
//     oldest. Once the cache is full it admits only labels that recur
//     (SlotCache::admit: a label refused on one miss gets in on its next),
//     and a query with a refused side answers from the raw labels, as
//     every scheme can,
//   * one query entry point: query_batch() checks tree and node ids in a
//     serial pass, partitions the accepted requests by shard and fans the
//     shards out across threads (util/parallel), filling one typed result
//     per request in request order — deterministic for any thread count.
//     Each shard's loop prefetches the cache slots and attachments of the
//     requests a few places ahead, so their cache misses overlap.
//     A bad id or a quarantined tree costs only its own request's answer,
//   * one way to publish: a labeling reaches a live tree either whole
//     (update(): a snapshot, or an IncrementalRelabeler's refreshed
//     labels) or as a LabelStore v3 delta (apply_delta()). Both only build
//     the successor of the live entry; one private publish() swaps it in.
//     The successor is built outside the shard lock against the live
//     entry; under the lock, publish() swaps only if that entry is still
//     live (else it rebuilds against the newer one), then erases the
//     cached attachments the successor names as dead — every one for
//     update(), only the dirty and dropped ids for a delta, so clean hot
//     labels stay attached across a delta. A swap is safe under concurrent
//     query_batch(), which reads each tree's entry under the same lock.
//     A delta's entry is built copy-on-write next to the live one (the
//     mmap'ed base is never written),
//   * stable external ids: node ids in requests are *external* ids — the
//     ids clients learned when the tree was last fully loaded. A delta that
//     carries a compaction shifts the internal label indices; ForestIndex
//     composes its dropped runs into a per-tree external→internal map so
//     surviving nodes keep answering under their original ids and
//     deleted/compacted-away ids fail deterministically
//     (QueryStatus::kBadNode) instead of silently answering for whatever
//     node now occupies the slot.
//
//   * graceful degradation: every tree is live or quarantined. Integrity
//     failures of apply_delta() (corrupt deltas, deltas that do not chain)
//     are counted; after kQuarantineAfter consecutive ones the tree is
//     *quarantined*: its requests get QueryStatus::kQuarantined while
//     every other tree keeps serving. The next clean publish — update()
//     or apply_delta() — restores the tree to live. A caller that reloads
//     a file (update(tree, LabelStore::open_mapped(path))) owns its retry
//     policy, as net::Replicator does. cache_stats() exposes the failure
//     and health counters.
//
// Thread-safety: query_batch(), update(), apply_delta(),
// cache_stats() and the per-tree accessors may all run concurrently.
// add_file()/add() grow the tree table and must not race with anything —
// build the initial index first, then serve (updates of *existing* trees
// are the supported mutation on a live index).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "bits/label_arena.hpp"
#include "core/label_store.hpp"
#include "obs/metrics.hpp"
#include "serve/any_scheme.hpp"
#include "serve/slot_cache.hpp"
#include "tree/tree.hpp"
#include "util/thread_annotations.hpp"

namespace treelab::serve {

using TreeId = std::uint32_t;

/// One distance query against tree `tree` of the forest.
struct Request {
  TreeId tree = 0;
  tree::NodeId u = 0;
  tree::NodeId v = 0;
};

/// Per-tree serving health: a quarantined tree refuses queries with a
/// typed error until repaired by a clean update/delta.
enum class TreeHealth : std::uint8_t {
  kLive = 0,
  kQuarantined = 1,
};

/// Typed per-request outcome of ForestIndex::query_batch().
enum class QueryStatus : std::uint8_t {
  kOk = 0,
  kBadTree = 1,      ///< tree id out of range
  kBadNode = 2,      ///< node id out of range / deleted / compacted away
  kQuarantined = 3,  ///< tree is quarantined (rest of the forest serves)
};

struct QueryResult {
  Dist dist;  ///< valid only when status == kOk
  QueryStatus status = QueryStatus::kOk;
};

struct ForestOptions {
  /// Shard count (trees are assigned round-robin by id). 0 = one shard per
  /// hardware thread.
  std::size_t shards = 0;
  /// Attached-label cache budget per shard, in bytes as AnyScheme's
  /// attach estimate charges them. Real heap per charged byte is
  /// 0.9-1.65x depending on the scheme (fgnw most), so a full cache holds
  /// up to ~1.65x this much memory. Not charged: the dense slot arrays
  /// (8 bytes per external id of each tree with an attached label) and,
  /// within one batch, the attachments it evicted.
  std::size_t cache_bytes_per_shard = std::size_t{8} << 20;
  /// Threads for query_batch fan-out: at most one per shard is useful.
  /// 0 = TREELAB_THREADS / hardware default.
  int threads = 0;
};

class ForestIndex {
 public:
  explicit ForestIndex(ForestOptions opt = {});

  /// Registers the labeling stored at `path` (any LabelStore version;
  /// mappable containers are mmap'ed). Returns the new tree's id — ids are
  /// dense, assigned in add order. Throws what LabelStore::open_mapped and
  /// AnyScheme::make throw on malformed files or unknown schemes.
  TreeId add_file(const std::string& path);

  /// Registers an in-memory labeling (e.g. freshly built, or from a
  /// non-file stream via LabelStore::load_arena).
  TreeId add(core::LabelStore::LoadedArena loaded);

  /// Replaces tree `tree`'s labeling with `loaded` (same or different
  /// scheme: a grown tree's refreshed labels, a replication snapshot, or a
  /// reloaded file via LabelStore::open_mapped). The swap is atomic —
  /// concurrent queries see either the old or the new labeling, never a
  /// mix — and every cached attachment of the tree is invalidated. Resets
  /// the tree's external id space to the new labeling's (dense) ids and
  /// restores a quarantined tree to live. The entry's epoch-chain value is
  /// `chain` when given, else the arena's lens_hash. Pinning it is the
  /// snapshot hand-off of the replication protocol: a leader's journal
  /// *preserves* its chain across checkpoint folds, so a follower
  /// installing a full snapshot must adopt the leader's chain verbatim —
  /// re-deriving it from the bytes would diverge after the first fold and
  /// reject every subsequent delta. Bumps the tree's epoch and returns it.
  /// Throws std::out_of_range on a bad id, and what AnyScheme::make throws
  /// on a bad header.
  std::uint64_t update(TreeId tree, core::LabelStore::LoadedArena loaded,
                       std::optional<std::uint64_t> chain = {});

  /// Patches tree `tree`'s labeling with a v3 delta (typically shipped by
  /// IncrementalRelabeler::ship_delta): validates that the delta targets
  /// the live labeling (scheme, epoch chain, count + length-directory
  /// hash), materializes the patched arena copy-on-write, composes the
  /// delta's dropped runs (a compaction) into the tree's external-id map,
  /// and publishes the entry. Only the cached attachments whose labels
  /// changed — dirty ids and dropped ids — are invalidated; clean cached
  /// attachments survive. Returns the new epoch. Throws std::out_of_range
  /// on a bad id, std::invalid_argument on a scheme mismatch,
  /// std::runtime_error when the delta does not match the live labeling
  /// or is corrupt; each of those but the bad id counts toward the tree's
  /// quarantine. A std::bad_alloc propagates uncounted.
  std::uint64_t apply_delta(TreeId tree, const core::LabelDelta& delta);

  [[nodiscard]] std::size_t tree_count() const noexcept {
    return trees_.size();
  }
  [[nodiscard]] std::size_t shard_count() const noexcept {
    return shards_.size();
  }
  /// The tree's current scheme handle (a cheap shared handle — safe to keep
  /// across a concurrent update; it dispatches for the labeling it came
  /// from).
  [[nodiscard]] AnyScheme scheme(TreeId tree) const;
  [[nodiscard]] std::size_t label_count(TreeId tree) const;
  /// Upper bound of the tree's external node-id space. Equal to
  /// label_count() until a compaction flows through apply_delta(); after
  /// that it only grows — dropped external ids stay reserved (and fail
  /// deterministically) rather than being reused. update() resets it.
  [[nodiscard]] std::size_t id_bound(TreeId tree) const;
  /// True when the tree's labels are served zero-copy from an mmap'ed file.
  [[nodiscard]] bool mapped(TreeId tree) const;
  /// How many times update() or apply_delta() replaced this tree's
  /// labeling (0 = original).
  [[nodiscard]] std::uint64_t update_epoch(TreeId tree) const;

  /// Epoch-chain value the tree's live labeling sits at (what the next
  /// delta's base_chain must be — and what a follower reports to a leader
  /// when subscribing). Throws std::out_of_range on a bad id.
  [[nodiscard]] std::uint64_t chain(TreeId tree) const;

  /// The tree's live labeling in hand-off form. This is the leader side of
  /// snapshot catch-up (and the convergence probe of the replication
  /// tests): the arena is copied from one entry read, so it is internally
  /// consistent under concurrent updates. The copy shares the entry's
  /// immutable words (owned or mapped) and keeps them alive; it costs the
  /// O(n) directory, not the label bits.
  [[nodiscard]] core::LabelStore::LoadedArena snapshot_labels(
      TreeId tree) const;

  /// The thread fan-out query_batch() will use for a batch of `batch`
  /// requests: the configured thread count clamped to util::usable_cpus(),
  /// the shard count, and the batch size (one thread per
  /// kFanoutBatchPerThread requests, floor 1). A fan-out of 1 runs the
  /// whole batch serially inline — no pool, no synchronization.
  [[nodiscard]] int planned_fanout(std::size_t batch) const noexcept;

  /// Below this many requests per thread, fan-out overhead beats the win.
  static constexpr std::size_t kFanoutBatchPerThread = 256;

  /// Consecutive integrity failures (corrupt delta, broken epoch chain) on
  /// one tree before it is quarantined.
  static constexpr std::uint32_t kQuarantineAfter = 3;

  /// How many requests ahead a shard's batch loop prefetches attachments
  /// (and twice as far, their cache slots).
  static constexpr std::size_t kPrefetchDistance = 4;

  /// query_batch() records every this-many-th answered request's latency
  /// into `serve.query.latency_ns`, the histogram's only feed (sampling
  /// keeps the clock off the per-query hot path).
  static constexpr std::size_t kLatencySampleEvery = 64;

  /// The tree's current health. Throws std::out_of_range on a bad id.
  [[nodiscard]] TreeHealth health(TreeId tree) const;

  /// Answers every request: one typed QueryResult per request, in request
  /// order. A bad tree id (kBadTree), a bad, deleted or compacted-away node
  /// id (kBadNode) and a quarantined tree (kQuarantined) cost only their
  /// own request's answer, so one poisoned tree or one bad client id never
  /// takes down a batch that also touches healthy trees. Requests are
  /// checked in one serial pass and partitioned by shard (keeping request
  /// order); each shard attaches its recurring labels once via its cache
  /// (a full cache answers a label's first miss raw instead), and shards
  /// are fanned out across `opt.threads`. A shard's loop looks each label
  /// up in its tree's dense slot array (a hit reorders nothing; eviction
  /// is FIFO), and while it answers request k it prefetches the slots of
  /// request k + 2 * kPrefetchDistance and the attachments of request
  /// k + kPrefetchDistance of the same shard. The batch answers from the
  /// entries it checked against (one labeling per tree for the whole
  /// batch), so a publish landing mid-batch can never fail requests the
  /// pass accepted — those answers come from the replaced labeling,
  /// uncached. A label that fails to decode throws (bits::DecodeError),
  /// which fails the whole batch.
  [[nodiscard]] std::vector<QueryResult> query_batch(
      std::span<const Request> reqs) const;

  struct CacheStats {
    std::size_t hits = 0;
    std::size_t misses = 0;
    std::size_t evictions = 0;
    std::size_t refused = 0;  ///< misses a full cache answered raw
    std::size_t entries = 0;
    std::size_t bytes = 0;
    std::size_t invalidated = 0;  ///< attached labels dropped by publishes
    // Degradation counters (process-lifetime totals unless noted).
    std::size_t integrity_failures = 0;  ///< corrupt deltas, bad chains
    std::size_t quarantine_events = 0;   ///< live -> quarantined edges
    std::size_t quarantined = 0;         ///< trees currently quarantined
  };
  /// Aggregated over all shards. This struct is now a *view* of the same
  /// counters the metrics registry exposes: the registry's `serve.cache.*`
  /// / `serve.trees.*` / `serve.degradation.*` callbacks evaluate this
  /// very aggregation at snapshot time (per instance, latest-registered
  /// index wins), so nothing is double-counted and the struct API keeps
  /// its per-instance semantics for tests.
  [[nodiscard]] CacheStats cache_stats() const;

 private:
  struct TreeEntry {
    AnyScheme scheme;
    std::string scheme_name;  ///< LabelStore header tag (delta validation)
    std::string params;
    bits::LabelArena labels;
    std::uint64_t epoch = 0;
    /// Epoch-chain value this entry sits at: lens_hash of the arena for a
    /// fully loaded base, the applied delta's new_chain afterwards. A delta
    /// must present this as its base_chain — which rejects skipped or
    /// reordered deltas even when label lengths happen to collide.
    std::uint64_t chain = 0;
    /// External-id → internal label index; empty = identity. kNoNode marks
    /// an id whose node was deleted/compacted away (deterministic NotFound).
    std::vector<tree::NodeId> ext_to_int;

    [[nodiscard]] std::size_t ext_size() const noexcept {
      return ext_to_int.empty() ? labels.size() : ext_to_int.size();
    }
  };
  using EntryPtr = std::shared_ptr<const TreeEntry>;
  /// One tree's health word and integrity streak: lock-free atomics that
  /// live beside the entry (not inside TreeEntry), so quarantining or
  /// repairing a tree does not republish its labeling.
  struct Slot {
    std::atomic<std::uint8_t> health{
        static_cast<std::uint8_t>(TreeHealth::kLive)};
    /// Consecutive integrity failures; reset by any clean swap.
    std::atomic<std::uint32_t> integrity_fails{0};
  };
  struct Shard {
    explicit Shard(std::size_t capacity_bytes) : cache(capacity_bytes) {}
    mutable util::Mutex mu;
    /// The live entry of each tree in this shard, at index tree / shard
    /// count. Readers copy it and writers replace it, both under `mu`.
    std::vector<EntryPtr> entries TREELAB_GUARDED_BY(mu);
    /// Attached labels keyed by (tree / shard count, external id). Values
    /// it evicts stay allocated until the batch loop that evicted them
    /// ends.
    SlotCache<AnyScheme::Attached> cache TREELAB_GUARDED_BY(mu);
    std::size_t invalidated TREELAB_GUARDED_BY(mu) = 0;
  };

  /// The tree's current entry, copied under its shard lock. Throws
  /// std::out_of_range on a bad id.
  [[nodiscard]] EntryPtr entry(TreeId tree) const;
  [[nodiscard]] std::size_t shard_of(TreeId tree) const noexcept {
    return tree % shards_.size();
  }
  /// The tree's index within its shard (its entry and its slot array).
  [[nodiscard]] std::uint32_t local_of(TreeId tree) const noexcept {
    return static_cast<std::uint32_t>(tree / shards_.size());
  }
  /// The tree's live-entry cell in its shard `sh`.
  [[nodiscard]] EntryPtr& live_entry(Shard& sh, TreeId tree) const
      TREELAB_REQUIRES(sh.mu) {
    return sh.entries[local_of(tree)];
  }
  /// The entry of a fully loaded labeling: epoch 0, identity external
  /// ids, and `chain` when given, else the arena's lens_hash. Throws what
  /// AnyScheme::make throws on a bad header.
  [[nodiscard]] static std::shared_ptr<TreeEntry> make_entry(
      core::LabelStore::LoadedArena loaded,
      std::optional<std::uint64_t> chain);
  /// External → internal id; tree::kNoNode for an id out of range, a
  /// tombstone (zero-length label) or an id compacted away.
  [[nodiscard]] static tree::NodeId resolve(const TreeEntry& e,
                                            tree::NodeId ext);
  /// The next entry's ext_to_int after `old`'s labeling is replaced by
  /// one of dirty_int.size() labels under `remap` (old-internal →
  /// new-internal, kNoNode = dropped). New internal ids the remap does not
  /// reach get fresh external ids appended in internal order. Flags in
  /// `dead` (one byte per external id of `old`) the ids whose cached
  /// attachments must go: ids that died, and ids whose new internal index
  /// is flagged in `dirty_int`.
  [[nodiscard]] static std::vector<tree::NodeId> compose_ext_map(
      const TreeEntry& old, std::span<const tree::NodeId> remap,
      const std::vector<std::uint8_t>& dirty_int,
      std::vector<std::uint8_t>& dead);
  /// What publish()'s `next` returns: the successor of the live entry
  /// (its epoch one past the live one) and which of the tree's cached
  /// attachments die with the swap.
  struct Successor {
    EntryPtr entry;
    bool all_dead = false;           ///< every attachment dies (update())
    std::vector<std::uint8_t> dead;  ///< else, flags by external id
  };
  /// The one way a tree's entry changes after add(). Reads the live entry
  /// `old` and calls next(*old) outside the shard lock, so the O(n) build
  /// never stalls the shard's queries. Under the lock it swaps in the
  /// successor only if `old` is still live, else it rebuilds against the
  /// newer entry (a delta is then re-validated against it). After the swap
  /// it erases the dead attachments, counting them in `invalidated`, and
  /// marks the tree live. Returns the new epoch.
  template <typename Next>
  std::uint64_t publish(TreeId tree, Next&& next);
  /// A batch's accepted requests, partitioned by shard in request order,
  /// each with its node ids resolved exactly once against its tree's entry
  /// snapshot. `snaps` holds one snapshot per distinct tree: the "one
  /// labeling per tree per batch" guarantee.
  struct BatchPlan {
    struct Item {
      std::uint32_t req = 0;   ///< request index
      std::uint32_t snap = 0;  ///< index into `snaps`
      tree::NodeId iu = 0;     ///< resolved internal ids
      tree::NodeId iv = 0;
    };
    struct Snap {
      TreeId tree = 0;
      std::uint32_t local = 0;  ///< local_of(tree)
      EntryPtr entry;  ///< read under the tree's shard lock by plan_batch
      /// Whether `entry` is still the live one; set by execute_plan under
      /// the tree's shard lock.
      bool live = false;
    };
    std::vector<std::vector<Item>> by_shard;
    std::vector<Snap> snaps;
    std::uint64_t t0 = 0;  ///< planning start, for serve.batch.latency_ns
  };
  /// Validates every request in request order: a rejected one gets its
  /// typed status in `results` and stays out of the plan.
  [[nodiscard]] BatchPlan plan_batch(std::span<const Request> reqs,
                                     std::span<QueryResult> results) const;
  /// Answers a plan across shards (one lock hold per shard) into
  /// out[request index].dist, then records the batch metrics.
  void execute_plan(BatchPlan& plan, std::span<const Request> reqs,
                    std::span<QueryResult> out) const;
  /// A query through the shard cache, for ids already resolved against
  /// `e`, which must be the live entry of the tree at index `local` of
  /// shard `sh`. When the cache refuses either label it answers through
  /// query_resolved_uncached().
  [[nodiscard]] Dist query_resolved_locked(Shard& sh, std::uint32_t local,
                                           const Request& r, tree::NodeId iu,
                                           tree::NodeId iv,
                                           const TreeEntry& e) const
      TREELAB_REQUIRES(sh.mu);
  /// A cache miss on external id `ext` (internal `in`) of live entry `e`:
  /// attaches the label and inserts it when the cache admits it, else
  /// returns nullptr. The pointer is valid until the batch loop ends.
  [[nodiscard]] const AnyScheme::Attached* attach_locked(
      Shard& sh, std::uint32_t local, std::uint32_t ext, tree::NodeId in,
      const TreeEntry& e) const TREELAB_REQUIRES(sh.mu);
  /// The raw-label answer: serves a replaced snapshot and refused misses.
  /// Out of line: gcc 12 otherwise inlines it into execute_plan's
  /// per-request loop, which measured slower on perfbench hot.
  [[gnu::noinline]] [[nodiscard]] Dist query_resolved_uncached(
      tree::NodeId iu, tree::NodeId iv, const TreeEntry& e) const;

  [[nodiscard]] Slot& slot(TreeId tree) const;
  [[nodiscard]] static TreeHealth health_of(const Slot& s) noexcept {
    return static_cast<TreeHealth>(s.health.load(std::memory_order_acquire));
  }
  /// A clean swap landed: the tree is (back to) live, streaks reset.
  void note_success(Slot& s) const noexcept;
  /// Corrupt input / broken chain: bump the streak, maybe quarantine.
  void note_integrity_failure(Slot& s) noexcept;

  /// Registers this instance's `serve.*` callback metrics (cache, tree
  /// health, degradation counters) with the global registry.
  void register_metrics();

  ForestOptions opt_;
  // One health slot per tree; the entries live in the shards. Both only
  // grow in the (serialized) build phase.
  std::vector<std::unique_ptr<Slot>> trees_;
  std::vector<std::unique_ptr<Shard>> shards_;
  // RAII registrations; removed (and the `this` captures dropped) on
  // destruction, so short-lived indexes in tests never leave stale
  // callbacks behind.
  std::vector<obs::CallbackGuard> obs_guards_;
  // Degradation counters (see CacheStats).
  std::atomic<std::size_t> integrity_failures_{0};
  std::atomic<std::size_t> quarantine_events_{0};
};

}  // namespace treelab::serve
