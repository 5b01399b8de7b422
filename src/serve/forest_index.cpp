#include "serve/forest_index.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "util/failpoint.hpp"
#include "util/io_error.hpp"
#include "util/parallel.hpp"

namespace treelab::serve {

namespace {

std::uint64_t cache_key(TreeId tree, tree::NodeId u) noexcept {
  return (static_cast<std::uint64_t>(tree) << 32) |
         static_cast<std::uint32_t>(u);
}

// Latency/size metrics shared by every ForestIndex in the process;
// references resolved once so the batch hot path never touches the
// registry map. A batch reads the clock twice for its own latency and
// records a *sampled* per-query latency (every kLatencySampleEvery-th
// answered request) into `serve.query.latency_ns`, so that histogram sees
// batch traffic without paying two clock reads per query.
struct ServeMetrics {
  obs::Histogram& query_ns;
  obs::Histogram& batch_ns;
  obs::Histogram& batch_size;
  static ServeMetrics& get() {
    static ServeMetrics m = [] {
      obs::Registry& r = obs::Registry::global();
      return ServeMetrics{r.histogram("serve.query.latency_ns"),
                          r.histogram("serve.batch.latency_ns"),
                          r.histogram("serve.batch.size")};
    }();
    return m;
  }
};

}  // namespace

ForestIndex::ForestIndex(ForestOptions opt) : opt_(opt) {
  // Nothing may first touch the obs registry under a shard lock, since
  // Registry::snapshot() takes shard locks (cache_stats()) under its mutex:
  // resolve the lazy lookups a first query would make here.
  (void)ServeMetrics::get();
  const std::size_t shards =
      opt_.shards > 0 ? opt_.shards
                      : static_cast<std::size_t>(util::thread_count());
  shards_.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s)
    shards_.push_back(std::make_unique<Shard>(opt_.cache_bytes_per_shard));
  register_metrics();
}

void ForestIndex::register_metrics() {
  if constexpr (!obs::kEnabled) return;
  obs::Registry& reg = obs::Registry::global();
  // Callback metrics cost nothing until somebody snapshots the registry;
  // each one re-aggregates cache_stats() then (stats-path cost only).
  const auto stat = [&](const char* name, auto field) {
    obs_guards_.push_back(reg.set_callback(
        name, [this, field] { return static_cast<std::uint64_t>(
                                  cache_stats().*field); }));
  };
  stat("serve.cache.hits", &CacheStats::hits);
  stat("serve.cache.misses", &CacheStats::misses);
  stat("serve.cache.evictions", &CacheStats::evictions);
  stat("serve.cache.refused", &CacheStats::refused);
  stat("serve.cache.entries", &CacheStats::entries);
  stat("serve.cache.bytes", &CacheStats::bytes);
  stat("serve.cache.invalidated", &CacheStats::invalidated);
  stat("serve.degradation.retries", &CacheStats::retries);
  stat("serve.degradation.transient_failures",
       &CacheStats::transient_failures);
  stat("serve.degradation.integrity_failures",
       &CacheStats::integrity_failures);
  stat("serve.degradation.quarantine_events",
       &CacheStats::quarantine_events);
  stat("serve.trees.stale", &CacheStats::stale);
  stat("serve.trees.quarantined", &CacheStats::quarantined);
  obs_guards_.push_back(reg.set_callback("serve.trees.total", [this] {
    return static_cast<std::uint64_t>(trees_.size());
  }));
  obs_guards_.push_back(
      reg.set_callback("serve.cache.byte_budget", [this] {
        return static_cast<std::uint64_t>(opt_.cache_bytes_per_shard *
                                          shards_.size());
      }));
}

ForestIndex::Slot& ForestIndex::slot(TreeId tree) const {
  if (tree >= trees_.size())
    throw std::out_of_range("ForestIndex: tree id out of range");
  return *trees_[tree];
}

ForestIndex::EntryPtr ForestIndex::entry(TreeId tree) const {
  (void)slot(tree);  // the range check
  Shard& sh = *shards_[shard_of(tree)];
  const util::MutexLock lock(sh.mu);
  return live_entry(sh, tree);
}

TreeHealth ForestIndex::health(TreeId tree) const {
  return health_of(slot(tree));
}

void ForestIndex::note_success(Slot& s) const noexcept {
  s.integrity_fails.store(0, std::memory_order_relaxed);
  s.health.store(static_cast<std::uint8_t>(TreeHealth::kLive),
                 std::memory_order_release);
}

void ForestIndex::note_integrity_failure(Slot& s) noexcept {
  integrity_failures_.fetch_add(1, std::memory_order_relaxed);
  const std::uint32_t streak =
      s.integrity_fails.fetch_add(1, std::memory_order_relaxed) + 1;
  if (streak >= kQuarantineAfter &&
      health_of(s) != TreeHealth::kQuarantined) {
    s.health.store(static_cast<std::uint8_t>(TreeHealth::kQuarantined),
                   std::memory_order_release);
    quarantine_events_.fetch_add(1, std::memory_order_relaxed);
  }
}

void ForestIndex::note_stale(Slot& s) noexcept {
  std::uint8_t live = static_cast<std::uint8_t>(TreeHealth::kLive);
  // Only live -> stale; a quarantined tree must not look merely stale.
  s.health.compare_exchange_strong(
      live, static_cast<std::uint8_t>(TreeHealth::kStale),
      std::memory_order_acq_rel);
}

template <typename Read>
auto ForestIndex::with_retries(Slot& s, Read&& read) {
  for (int attempt = 0;; ++attempt) {
    try {
      return read();
    } catch (const util::IoError&) {
      transient_failures_.fetch_add(1, std::memory_order_relaxed);
      if (attempt >= kRetries) {
        // Persistent: the tree keeps serving its last good labeling,
        // flagged stale so operators can see the refresh is failing.
        note_stale(s);
        throw;
      }
      retries_.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::sleep_for(
          std::chrono::milliseconds(kRetryBackoffMs << attempt));
    }
  }
}

tree::NodeId ForestIndex::resolve(const TreeEntry& e, tree::NodeId ext) {
  if (ext < 0 || static_cast<std::size_t>(ext) >= e.ext_size())
    return tree::kNoNode;
  const tree::NodeId i =
      e.ext_to_int.empty() ? ext
                           : e.ext_to_int[static_cast<std::size_t>(ext)];
  // kNoNode: the id was compacted away. Zero-length label: the id is a
  // tombstone a delta shipped (deleted/detached node). Both must fail the
  // same deterministic way — never answer for whatever occupies the slot.
  if (i == tree::kNoNode ||
      e.labels.label_bits(static_cast<std::size_t>(i)) == 0)
    return tree::kNoNode;
  return i;
}

std::shared_ptr<ForestIndex::TreeEntry> ForestIndex::make_entry(
    AnyScheme handle, std::string_view scheme, std::string_view params,
    bits::LabelArena labels, std::uint64_t epoch,
    std::vector<tree::NodeId> ext_map) {
  auto e = std::make_shared<TreeEntry>();
  e->scheme = std::move(handle);
  e->scheme_name = scheme;
  e->params = params;
  e->labels = std::move(labels);
  e->epoch = epoch;
  e->chain = core::LabelStore::lens_hash(e->labels);
  e->ext_to_int = std::move(ext_map);
  return e;
}

TreeId ForestIndex::add_file(const std::string& path) {
  return add(core::LabelStore::open_mapped(path));
}

TreeId ForestIndex::add(core::LabelStore::LoadedArena loaded) {
  const auto tree = static_cast<TreeId>(trees_.size());
  EntryPtr e = make_entry(AnyScheme::make(loaded.scheme, loaded.params),
                          loaded.scheme, loaded.params,
                          std::move(loaded.labels), 0, {});
  Shard& sh = *shards_[shard_of(tree)];
  {
    // Indexed, not appended: if the push below throws, the next add of
    // this id overwrites the entry.
    const util::MutexLock lock(sh.mu);
    sh.entries.resize(tree / shards_.size() + 1);
    live_entry(sh, tree) = std::move(e);
  }
  trees_.push_back(std::make_unique<Slot>());
  return tree;
}

std::vector<tree::NodeId> ForestIndex::compose_ext_map(
    const TreeEntry& old, std::span<const tree::NodeId> remap,
    std::size_t new_int_count, const std::vector<std::uint8_t>* dirty_int,
    std::vector<tree::NodeId>* dead_or_dirty) {
  const std::size_t ext_size = old.ext_size();
  std::vector<tree::NodeId> out(ext_size, tree::kNoNode);
  std::vector<std::uint8_t> covered(new_int_count, 0);
  bool identity = true;
  for (std::size_t e = 0; e < ext_size; ++e) {
    const tree::NodeId old_int =
        old.ext_to_int.empty() ? static_cast<tree::NodeId>(e)
                               : old.ext_to_int[e];
    tree::NodeId ni = tree::kNoNode;
    if (old_int != tree::kNoNode)
      ni = remap[static_cast<std::size_t>(old_int)];
    out[e] = ni;
    if (ni == tree::kNoNode) {
      identity = false;
      if (old_int != tree::kNoNode && dead_or_dirty != nullptr)
        dead_or_dirty->push_back(static_cast<tree::NodeId>(e));
      continue;
    }
    covered[static_cast<std::size_t>(ni)] = 1;
    if (ni != static_cast<tree::NodeId>(e)) identity = false;
    if (dirty_int != nullptr &&
        (*dirty_int)[static_cast<std::size_t>(ni)] != 0 &&
        dead_or_dirty != nullptr)
      dead_or_dirty->push_back(static_cast<tree::NodeId>(e));
  }
  // Labels the remap does not reach were appended after the compaction:
  // give them fresh external ids at the top of the space, in internal
  // order. (They cannot have cached attachments yet.) An append-only delta
  // keeps ext == int throughout, so the identity fast path survives the
  // common grow-only workload.
  for (std::size_t ni = 0; ni < new_int_count; ++ni)
    if (covered[ni] == 0) {
      if (ni != out.size()) identity = false;
      out.push_back(static_cast<tree::NodeId>(ni));
    }
  if (identity && out.size() == new_int_count) return {};
  return out;
}

std::uint64_t ForestIndex::swap_entry(TreeId tree,
                                      core::LabelStore::LoadedArena loaded,
                                      const std::vector<tree::NodeId>* remap,
                                      const std::uint64_t* chain) {
  Slot& sl = slot(tree);
  if (auto fp = util::failpoint::check("forest.swap"))
    util::failpoint::raise(*fp, "forest.swap", "tree " + std::to_string(tree));
  Shard& sh = *shards_[shard_of(tree)];
  const AnyScheme handle = AnyScheme::make(loaded.scheme, loaded.params);
  for (;;) {
    // Entry construction (chain seed, ext-map composition — O(n) work)
    // runs OUTSIDE the shard lock against a snapshot; the lock covers only
    // the validate-and-swap plus the invalidation. A batch uses the cache
    // only after checking, under the same lock, that its snapshot is still
    // the tree's entry — so any section ordered after ours sees the new
    // entry, and no stale attachment can be re-inserted once the erase has
    // run.
    const EntryPtr old = entry(tree);
    std::vector<tree::NodeId> ext_map;
    if (remap != nullptr) {
      if (remap->size() != old->labels.size())
        throw std::invalid_argument(
            "ForestIndex: remap does not match the current labeling");
      ext_map = compose_ext_map(*old, *remap, loaded.labels.size(), nullptr,
                                nullptr);
    }
    std::shared_ptr<TreeEntry> fresh =
        make_entry(handle, loaded.scheme, loaded.params,
                   std::move(loaded.labels), old->epoch + 1,
                   std::move(ext_map));
    if (chain != nullptr) fresh->chain = *chain;
    {
      const util::MutexLock lock(sh.mu);
      EntryPtr& live = live_entry(sh, tree);
      if (live == old) {
        live = std::move(fresh);
        sh.invalidated += sh.cache.erase_if([tree](std::uint64_t key) {
          return static_cast<TreeId>(key >> 32) == tree;
        });
        // A clean full swap is the repair path: live again, streaks reset.
        note_success(sl);
        return old->epoch + 1;
      }
    }
    // Raced another writer: take the labels back and retry against the new
    // entry (epochs stay monotonic).
    loaded.labels = std::move(fresh->labels);
  }
}

std::uint64_t ForestIndex::update(TreeId tree,
                                  core::LabelStore::LoadedArena loaded) {
  return swap_entry(tree, std::move(loaded), nullptr);
}

std::uint64_t ForestIndex::update(TreeId tree,
                                  core::LabelStore::LoadedArena loaded,
                                  std::span<const tree::NodeId> remap) {
  const std::vector<tree::NodeId> r(remap.begin(), remap.end());
  return swap_entry(tree, std::move(loaded), &r);
}

std::uint64_t ForestIndex::update(TreeId tree,
                                  core::LabelStore::LoadedArena loaded,
                                  std::uint64_t chain) {
  return swap_entry(tree, std::move(loaded), nullptr, &chain);
}

std::uint64_t ForestIndex::update_file(TreeId tree, const std::string& path) {
  Slot& sl = slot(tree);
  try {
    auto loaded =
        with_retries(sl, [&] { return core::LabelStore::open_mapped(path); });
    return swap_entry(tree, std::move(loaded), nullptr);
  } catch (const util::IoError&) {
    throw;  // counted (and the tree marked stale) in with_retries
  } catch (const util::FailpointAbort&) {
    throw;  // a simulated crash is not a health event
  } catch (const std::bad_alloc&) {
    transient_failures_.fetch_add(1, std::memory_order_relaxed);
    throw;
  } catch (const std::exception&) {
    // The file was readable but wrong (corrupt container, unknown scheme):
    // an integrity failure of the shipped artifact, not of the transport.
    note_integrity_failure(sl);
    throw;
  }
}

std::uint64_t ForestIndex::apply_delta(TreeId tree,
                                       const core::LabelDelta& d) {
  Slot& sl = slot(tree);
  try {
    if (auto fp = util::failpoint::check("forest.apply_delta"))
      util::failpoint::raise(*fp, "forest.apply_delta",
                             "tree " + std::to_string(tree));
    const std::uint64_t e = apply_delta_impl(tree, d);
    note_success(sl);
    return e;
  } catch (const util::FailpointAbort&) {
    throw;  // a simulated crash is not a health event
  } catch (const std::bad_alloc&) {
    transient_failures_.fetch_add(1, std::memory_order_relaxed);
    throw;
  } catch (const std::exception&) {
    // Scheme mismatch, broken epoch chain, corrupt payload: the delta is
    // wrong for this tree, and retrying the same bytes cannot fix it.
    note_integrity_failure(sl);
    throw;
  }
}

std::uint64_t ForestIndex::apply_delta_impl(TreeId tree,
                                            const core::LabelDelta& d) {
  Shard& sh = *shards_[shard_of(tree)];
  for (;;) {
    // All the O(n) work — validation, the copy-on-write patch, the ext-map
    // composition — happens OUTSIDE the shard lock, against a snapshot of
    // the entry, so concurrent queries on this shard never stall behind a
    // large patch. The lock is only taken for the swap+invalidate; if
    // another writer replaced the entry meanwhile, start over (the delta
    // is then re-validated against the new epoch and rejected cleanly).
    const EntryPtr old = entry(tree);
    if (d.scheme != old->scheme_name || d.params != old->params)
      throw std::invalid_argument("ForestIndex: delta scheme mismatch");
    // The epoch chain is the strong ordering check: lens_hash alone could
    // collide across epochs whose label lengths happen to match.
    if (d.base_chain != old->chain)
      throw std::runtime_error(
          "ForestIndex: delta does not chain from the live epoch");
    // Copy-on-write: the patched arena is materialized while the old entry
    // — possibly a zero-copy mmap — keeps serving. apply_delta validates
    // the delta against the base (count + length-directory hash) first.
    bits::LabelArena patched = core::LabelStore::apply_delta(old->labels, d);

    // Internal remap implied by the delta's dropped runs (old → new int).
    std::vector<tree::NodeId> remap(old->labels.size());
    {
      std::size_t next_drop = 0;
      std::uint64_t dropped_before = 0;
      for (std::size_t b = 0; b < remap.size(); ++b) {
        while (next_drop < d.dropped.size() &&
               b >= d.dropped[next_drop].first + d.dropped[next_drop].count) {
          dropped_before += d.dropped[next_drop].count;
          ++next_drop;
        }
        const bool dropped = next_drop < d.dropped.size() &&
                             b >= d.dropped[next_drop].first;
        remap[b] = dropped ? tree::kNoNode
                           : static_cast<tree::NodeId>(b - dropped_before);
      }
    }
    std::vector<std::uint8_t> dirty_int(patched.size(), 0);
    for (const std::uint64_t id : d.dirty)
      dirty_int[static_cast<std::size_t>(id)] = 1;
    std::vector<tree::NodeId> stale_ext;
    std::vector<tree::NodeId> ext_map = compose_ext_map(
        *old, remap, patched.size(), &dirty_int, &stale_ext);

    std::shared_ptr<TreeEntry> fresh =
        make_entry(old->scheme, old->scheme_name, old->params,
                   std::move(patched), old->epoch + 1, std::move(ext_map));
    fresh->chain = d.new_chain;
    const std::unordered_set<tree::NodeId> stale(stale_ext.begin(),
                                                 stale_ext.end());

    const util::MutexLock lock(sh.mu);
    EntryPtr& live = live_entry(sh, tree);
    if (live != old)
      continue;  // raced another writer: re-validate against its epoch
    live = std::move(fresh);
    // Selective invalidation: only attachments whose labels changed (or
    // whose ids died) go; clean hot labels stay attached across the swap.
    sh.invalidated += sh.cache.erase_if([tree, &stale](std::uint64_t key) {
      return static_cast<TreeId>(key >> 32) == tree &&
             stale.count(static_cast<tree::NodeId>(
                 static_cast<std::uint32_t>(key))) != 0;
    });
    return old->epoch + 1;
  }
}

AnyScheme ForestIndex::scheme(TreeId tree) const { return entry(tree)->scheme; }

std::size_t ForestIndex::label_count(TreeId tree) const {
  return entry(tree)->labels.size();
}

std::size_t ForestIndex::id_bound(TreeId tree) const {
  return entry(tree)->ext_size();
}

bool ForestIndex::mapped(TreeId tree) const {
  return entry(tree)->labels.mapped();
}

std::uint64_t ForestIndex::update_epoch(TreeId tree) const {
  return entry(tree)->epoch;
}

std::uint64_t ForestIndex::chain(TreeId tree) const {
  return entry(tree)->chain;
}

core::LabelStore::LoadedArena ForestIndex::snapshot_labels(TreeId tree) const {
  const EntryPtr e = entry(tree);
  return {e->scheme_name, e->params, e->labels};
}

int ForestIndex::planned_fanout(std::size_t batch) const noexcept {
  // An explicitly configured thread count is taken as-is, so clamp it to
  // the CPUs this process may run on (thread_count() already is): more
  // threads than that only time-slice the same cores and lose to the
  // serial path. Then clamp to what the batch can feed: fewer than
  // kFanoutBatchPerThread requests per thread and the pool's startup +
  // synchronization costs more than the overlap buys.
  std::size_t t = static_cast<std::size_t>(
      opt_.threads > 0 ? std::min(opt_.threads, util::usable_cpus())
                       : util::thread_count());
  t = std::min(t, shards_.size());
  t = std::min(t, std::max<std::size_t>(batch / kFanoutBatchPerThread, 1));
  return static_cast<int>(std::max<std::size_t>(t, 1));
}

Dist ForestIndex::query_resolved_locked(Shard& sh, const Request& r,
                                        tree::NodeId iu, tree::NodeId iv,
                                        const TreeEntry& e) const {
  // Cache lookup for both labels, used in place on hits — no shared_ptr
  // refcount traffic on the all-hits fast path. A miss attaches and inserts
  // its label only when the cache admits it: a full cache refuses a label
  // on its first miss, since attaching pays only if the label is queried
  // again before eviction. A query left with either side unattached
  // answers from the raw labels. The only mutation between the u lookup
  // and the query is the v-side put(), whose eviction sweep may drop u's
  // entry: pin u with a strong reference before that one insert (the entry
  // just inserted — v itself — is never evicted by its own put).
  const std::uint64_t ku = cache_key(r.tree, r.u);
  const std::uint64_t kv = cache_key(r.tree, r.v);
  AnyScheme::AttachedPtr hold_u;
  AnyScheme::AttachedPtr hold_v;
  const AnyScheme::Attached* au = nullptr;
  AnyScheme::AttachedPtr* pu = sh.cache.get(ku);
  if (pu != nullptr) {
    au = pu->get();
  } else if (sh.cache.admit(ku)) {
    hold_u = e.scheme.attach(e.labels.view(static_cast<std::size_t>(iu)));
    au = hold_u.get();
    sh.cache.put(ku, hold_u, hold_u->cost_bytes());
  }
  const AnyScheme::Attached* av = nullptr;
  if (AnyScheme::AttachedPtr* pv = sh.cache.get(kv); pv != nullptr) {
    av = pv->get();
  } else if (sh.cache.admit(kv)) {
    hold_v = e.scheme.attach(e.labels.view(static_cast<std::size_t>(iv)));
    av = hold_v.get();
    if (pu != nullptr) hold_u = *pu;
    sh.cache.put(kv, hold_v, hold_v->cost_bytes());
  }
  if (au == nullptr || av == nullptr)
    return query_resolved_uncached(iu, iv, e);
  return e.scheme.query(*au, *av);
}

Dist ForestIndex::query_resolved_uncached(tree::NodeId iu, tree::NodeId iv,
                                          const TreeEntry& e) const {
  return e.scheme.query(e.labels.view(static_cast<std::size_t>(iu)),
                        e.labels.view(static_cast<std::size_t>(iv)));
}

ForestIndex::BatchPlan ForestIndex::plan_batch(
    std::span<const Request> reqs, std::span<QueryResult> results) const {
  BatchPlan plan;
  plan.t0 = obs::now_ns();
  plan.by_shard.resize(shards_.size());
  std::unordered_map<TreeId, std::uint32_t> snap_of;  // tree -> plan.snaps
  // One serial pass in request order. A tree's first request loads its
  // entry snapshot; the rest of the batch resolves against the same one.
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const Request& r = reqs[i];
    if (r.tree >= trees_.size()) {
      results[i].status = QueryStatus::kBadTree;
      continue;
    }
    if (health_of(*trees_[r.tree]) == TreeHealth::kQuarantined) {
      results[i].status = QueryStatus::kQuarantined;
      continue;
    }
    const auto [it, fresh] = snap_of.try_emplace(
        r.tree, static_cast<std::uint32_t>(plan.snaps.size()));
    if (fresh) plan.snaps.push_back({r.tree, entry(r.tree)});
    const TreeEntry& e = *plan.snaps[it->second].entry;
    const tree::NodeId iu = resolve(e, r.u);
    const tree::NodeId iv = resolve(e, r.v);
    if (iu == tree::kNoNode || iv == tree::kNoNode) {
      results[i].status = QueryStatus::kBadNode;
      continue;
    }
    plan.by_shard[shard_of(r.tree)].push_back(
        {static_cast<std::uint32_t>(i), it->second, iu, iv});
  }
  return plan;
}

void ForestIndex::execute_plan(BatchPlan& plan, std::span<const Request> reqs,
                               std::span<QueryResult> out) const {
  util::parallel_for_chunks(
      shards_.size(), shards_.size(), planned_fanout(reqs.size()),
      [&](std::size_t s, std::size_t, std::size_t) {
        if (plan.by_shard[s].empty()) return;
        Shard& sh = *shards_[s];
        const util::MutexLock lock(sh.mu);
        // Answers come from the planned snapshots, so the batch sees one
        // labeling per tree. The shard cache may only be used while a
        // snapshot still IS the live entry: if an update swapped the tree
        // after planning, finish its requests from the snapshot without
        // touching the cache — caching attachments of a replaced labeling
        // would undo the update's invalidation. Writers swap under this
        // lock, so one check per tree holds for the whole lock hold; a
        // tree lives in one shard, so no other worker touches its Snap.
        for (BatchPlan::Snap& sn : plan.snaps)
          if (shard_of(sn.tree) == s)
            sn.live = live_entry(sh, sn.tree) == sn.entry;
        std::size_t answered = 0;
        for (const BatchPlan::Item& it : plan.by_shard[s]) {
          const BatchPlan::Snap& sn = plan.snaps[it.snap];
          const bool sampled =
              obs::kEnabled && (answered++ % kLatencySampleEvery) == 0;
          const std::uint64_t q0 = sampled ? obs::now_ns() : 0;
          out[it.req].dist =
              sn.live ? query_resolved_locked(sh, reqs[it.req], it.iu, it.iv,
                                              *sn.entry)
                      : query_resolved_uncached(it.iu, it.iv, *sn.entry);
          if (sampled)
            ServeMetrics::get().query_ns.record(obs::now_ns() - q0);
        }
      });
  if constexpr (obs::kEnabled) {
    ServeMetrics& m = ServeMetrics::get();
    m.batch_ns.record(obs::now_ns() - plan.t0);
    m.batch_size.record(reqs.size());
  }
}

std::vector<QueryResult> ForestIndex::query_batch(
    std::span<const Request> reqs) const {
  std::vector<QueryResult> out(reqs.size());
  BatchPlan plan = plan_batch(reqs, out);
  execute_plan(plan, reqs, out);
  return out;
}

ForestIndex::CacheStats ForestIndex::cache_stats() const {
  CacheStats st;
  for (const auto& sh : shards_) {
    const util::MutexLock lock(sh->mu);
    st.hits += sh->cache.hits();
    st.misses += sh->cache.misses();
    st.evictions += sh->cache.evictions();
    st.refused += sh->cache.refused();
    st.entries += sh->cache.size();
    st.bytes += sh->cache.bytes();
    st.invalidated += sh->invalidated;
  }
  st.retries = retries_.load(std::memory_order_relaxed);
  st.transient_failures = transient_failures_.load(std::memory_order_relaxed);
  st.integrity_failures = integrity_failures_.load(std::memory_order_relaxed);
  st.quarantine_events = quarantine_events_.load(std::memory_order_relaxed);
  for (const auto& sl : trees_) {
    const TreeHealth h = health_of(*sl);
    if (h == TreeHealth::kStale) ++st.stale;
    if (h == TreeHealth::kQuarantined) ++st.quarantined;
  }
  return st;
}

}  // namespace treelab::serve
