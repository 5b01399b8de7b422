#include "serve/forest_index.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/failpoint.hpp"
#include "util/parallel.hpp"

namespace treelab::serve {

namespace {

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
  stat("serve.degradation.integrity_failures",
       &CacheStats::integrity_failures);
  stat("serve.degradation.quarantine_events",
       &CacheStats::quarantine_events);
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

tree::NodeId ForestIndex::resolve(const TreeEntry& e, tree::NodeId ext) {
  if (ext < 0 || static_cast<std::size_t>(ext) >= e.ext_size())
    return tree::kNoNode;
  // kNoNode in the map: the id was compacted away, and must fail
  // deterministically — never answer for whatever occupies the slot.
  return e.ext_to_int.empty() ? ext
                              : e.ext_to_int[static_cast<std::size_t>(ext)];
}

std::shared_ptr<ForestIndex::TreeEntry> ForestIndex::make_entry(
    core::LabelStore::LoadedArena loaded, std::optional<std::uint64_t> chain) {
  auto e = std::make_shared<TreeEntry>();
  e->scheme = AnyScheme::make(loaded.scheme, loaded.params);
  e->scheme_name = std::move(loaded.scheme);
  e->params = std::move(loaded.params);
  e->labels = std::move(loaded.labels);
  e->chain = chain ? *chain : core::LabelStore::lens_hash(e->labels);
  return e;
}

TreeId ForestIndex::add_file(const std::string& path) {
  return add(core::LabelStore::open_mapped(path));
}

TreeId ForestIndex::add(core::LabelStore::LoadedArena loaded) {
  const auto tree = static_cast<TreeId>(trees_.size());
  EntryPtr e = make_entry(std::move(loaded), {});
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
    const std::vector<std::uint8_t>& dirty_int,
    std::vector<std::uint8_t>& dead) {
  const std::size_t ext_size = old.ext_size();
  const std::size_t new_int_count = dirty_int.size();
  std::vector<tree::NodeId> out(ext_size, tree::kNoNode);
  std::vector<std::uint8_t> covered(new_int_count, 0);
  dead.assign(ext_size, 0);
  bool identity = true;
  for (std::size_t e = 0; e < ext_size; ++e) {
    const tree::NodeId old_int =
        old.ext_to_int.empty() ? static_cast<tree::NodeId>(e)
                               : old.ext_to_int[e];
    if (old_int == tree::kNoNode) {  // died in an earlier epoch
      identity = false;
      continue;
    }
    const tree::NodeId ni = remap[static_cast<std::size_t>(old_int)];
    out[e] = ni;
    if (ni == tree::kNoNode) {
      identity = false;
      dead[e] = 1;
      continue;
    }
    covered[static_cast<std::size_t>(ni)] = 1;
    if (ni != static_cast<tree::NodeId>(e)) identity = false;
    if (dirty_int[static_cast<std::size_t>(ni)] != 0) dead[e] = 1;
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

template <typename Next>
std::uint64_t ForestIndex::publish(TreeId tree, Next&& next) {
  Slot& sl = slot(tree);
  Shard& sh = *shards_[shard_of(tree)];
  for (;;) {
    // A batch uses the cache only after checking, under the same lock,
    // that its snapshot is still the tree's entry — so any section ordered
    // after the swap sees the new entry, and no attachment the erase drops
    // can be re-inserted.
    const EntryPtr old = entry(tree);
    const Successor s = next(*old);
    const util::MutexLock lock(sh.mu);
    EntryPtr& live = live_entry(sh, tree);
    if (live != old) continue;  // raced another writer: rebuild against it
    live = s.entry;
    sh.invalidated +=
        sh.cache.erase_if(local_of(tree), [&s](std::uint32_t ext) {
          return s.all_dead || (ext < s.dead.size() && s.dead[ext] != 0);
        });
    // A clean publish is the repair path: live again, streak reset.
    note_success(sl);
    return live->epoch;
  }
}

std::uint64_t ForestIndex::update(TreeId tree,
                                  core::LabelStore::LoadedArena loaded,
                                  std::optional<std::uint64_t> chain) {
  (void)slot(tree);  // the range check, before the O(n) build
  // The successor depends on the live entry only through its epoch, so it
  // is built once, however often publish() has to retry.
  const std::shared_ptr<TreeEntry> fresh = make_entry(std::move(loaded), chain);
  return publish(tree, [&fresh](const TreeEntry& old) {
    fresh->epoch = old.epoch + 1;
    return Successor{fresh, true, {}};
  });
}

std::uint64_t ForestIndex::apply_delta(TreeId tree,
                                       const core::LabelDelta& d) {
  Slot& sl = slot(tree);
  try {
    if (auto fp = util::failpoint::check("forest.apply_delta"))
      util::failpoint::raise(*fp, "forest.apply_delta",
                             "tree " + std::to_string(tree));
    return publish(tree, [&d](const TreeEntry& old) {
      if (d.scheme != old.scheme_name || d.params != old.params)
        throw std::invalid_argument("ForestIndex: delta scheme mismatch");
      // The epoch chain is the strong ordering check: lens_hash alone could
      // collide across epochs whose label lengths happen to match.
      if (d.base_chain != old.chain)
        throw std::runtime_error(
            "ForestIndex: delta does not chain from the live epoch");
      // Copy-on-write: the patched arena is materialized while the old
      // entry — possibly a zero-copy mmap — keeps serving. apply_delta
      // validates the delta against the base (count + length-directory
      // hash) first.
      bits::LabelArena patched = core::LabelStore::apply_delta(old.labels, d);

      // Internal remap implied by the delta's dropped runs (old → new int).
      std::vector<tree::NodeId> remap(old.labels.size());
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
      std::vector<std::uint8_t> dirty_int(patched.size(), 0);
      for (const std::uint64_t id : d.dirty)
        dirty_int[static_cast<std::size_t>(id)] = 1;

      // Only attachments whose labels changed, or whose ids died, go;
      // clean hot labels stay attached across the swap.
      Successor succ;
      std::vector<tree::NodeId> ext_map =
          compose_ext_map(old, remap, dirty_int, succ.dead);
      succ.entry = std::make_shared<const TreeEntry>(
          TreeEntry{.scheme = old.scheme,  // a delta cannot change it
                    .scheme_name = old.scheme_name,
                    .params = old.params,
                    .labels = std::move(patched),
                    .epoch = old.epoch + 1,
                    .chain = d.new_chain,
                    .ext_to_int = std::move(ext_map)});
      return succ;
    });
  } catch (const util::FailpointAbort&) {
    throw;  // a simulated crash is not a health event
  } catch (const std::bad_alloc&) {
    throw;  // running out of memory says nothing about the delta
  } catch (const std::exception&) {
    // Scheme mismatch, broken epoch chain, corrupt payload: the delta is
    // wrong for this tree, and retrying the same bytes cannot fix it.
    note_integrity_failure(sl);
    throw;
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

Dist ForestIndex::query_resolved_locked(Shard& sh, std::uint32_t local,
                                        const Request& r, tree::NodeId iu,
                                        tree::NodeId iv,
                                        const TreeEntry& e) const {
  // Both labels are used in place on hits. v's insert may evict u's
  // attachment, but an evicted attachment stays allocated until the batch
  // loop ends, so `au` stays valid through the query.
  const auto u = static_cast<std::uint32_t>(r.u);
  const auto v = static_cast<std::uint32_t>(r.v);
  const AnyScheme::Attached* au = sh.cache.get(local, u);
  if (au == nullptr) au = attach_locked(sh, local, u, iu, e);
  const AnyScheme::Attached* av = sh.cache.get(local, v);
  if (av == nullptr) av = attach_locked(sh, local, v, iv, e);
  if (au == nullptr || av == nullptr)
    return query_resolved_uncached(iu, iv, e);
  return e.scheme.query(*au, *av);
}

const AnyScheme::Attached* ForestIndex::attach_locked(
    Shard& sh, std::uint32_t local, std::uint32_t ext, tree::NodeId in,
    const TreeEntry& e) const {
  // A full cache refuses a label on its first miss, since attaching pays
  // only if the label is queried again before eviction; the query then
  // answers from the raw labels.
  if (!sh.cache.admit(local, ext)) return nullptr;
  AnyScheme::AttachedPtr a =
      e.scheme.attach(e.labels.view(static_cast<std::size_t>(in)));
  const AnyScheme::Attached* raw = a.get();
  sh.cache.put(local, ext, std::move(a), raw->cost_bytes(), e.ext_size());
  return raw;
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
  // Tree id -> index into plan.snaps, as a sparse set (Briggs and Torczon,
  // "An efficient representation for sparse sets", LOPLAS 1993): a cell
  // counts only when the snapshot it names is that tree's, so the array is
  // never cleared and each thread reuses its own across batches.
  thread_local std::vector<std::uint32_t> snap_of;
  if (snap_of.size() < trees_.size()) snap_of.resize(trees_.size());
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
    std::uint32_t& snap = snap_of[r.tree];
    if (snap >= plan.snaps.size() || plan.snaps[snap].tree != r.tree) {
      snap = static_cast<std::uint32_t>(plan.snaps.size());
      plan.snaps.push_back({r.tree, local_of(r.tree), entry(r.tree)});
    }
    const TreeEntry& e = *plan.snaps[snap].entry;
    const tree::NodeId iu = resolve(e, r.u);
    const tree::NodeId iv = resolve(e, r.v);
    if (iu == tree::kNoNode || iv == tree::kNoNode) {
      results[i].status = QueryStatus::kBadNode;
      continue;
    }
    plan.by_shard[shard_of(r.tree)].push_back(
        {static_cast<std::uint32_t>(i), snap, iu, iv});
  }
  return plan;
}

void ForestIndex::execute_plan(BatchPlan& plan, std::span<const Request> reqs,
                               std::span<QueryResult> out) const {
  util::parallel_for_chunks(
      shards_.size(), shards_.size(), planned_fanout(reqs.size()),
      [&](std::size_t s, std::size_t, std::size_t) {
        const std::vector<BatchPlan::Item>& items = plan.by_shard[s];
        if (items.empty()) return;
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
        // Software pipelining: a request's lookups are two dependent cache
        // misses per side (slot, then attachment; or directory entry, then
        // raw label), so while the loop answers request k it fetches the
        // slots and directory entries of request k + 2D, and the
        // attachments of request k + D, or the first label word of a side
        // with no attachment. The misses of consecutive requests then
        // overlap. A prefetch is only a hint: a slot that changes before
        // its use costs a wasted fetch, never a wrong answer.
        constexpr std::size_t kD = kPrefetchDistance;
        std::size_t answered = 0;
        for (std::size_t k = 0; k < items.size(); ++k) {
          if (k + 2 * kD < items.size()) {
            const BatchPlan::Item& ahead = items[k + 2 * kD];
            const Request& r = reqs[ahead.req];
            const BatchPlan::Snap& sa = plan.snaps[ahead.snap];
            sh.cache.prefetch_slot(sa.local, static_cast<std::uint32_t>(r.u));
            sh.cache.prefetch_slot(sa.local, static_cast<std::uint32_t>(r.v));
            sa.entry->labels.prefetch_directory(
                static_cast<std::size_t>(ahead.iu));
            sa.entry->labels.prefetch_directory(
                static_cast<std::size_t>(ahead.iv));
          }
          if (k + kD < items.size()) {
            const BatchPlan::Item& ahead = items[k + kD];
            const Request& r = reqs[ahead.req];
            const BatchPlan::Snap& sa = plan.snaps[ahead.snap];
            if (!sh.cache.prefetch_value(sa.local,
                                         static_cast<std::uint32_t>(r.u)))
              sa.entry->labels.prefetch_label(
                  static_cast<std::size_t>(ahead.iu));
            if (!sh.cache.prefetch_value(sa.local,
                                         static_cast<std::uint32_t>(r.v)))
              sa.entry->labels.prefetch_label(
                  static_cast<std::size_t>(ahead.iv));
          }
          const BatchPlan::Item& it = items[k];
          const BatchPlan::Snap& sn = plan.snaps[it.snap];
          // A zero-length label is a tombstone a delta shipped (a deleted
          // or detached node): its request fails as an unknown id does.
          const bits::LabelArena& labels = sn.entry->labels;
          if (labels.label_bits(static_cast<std::size_t>(it.iu)) == 0 ||
              labels.label_bits(static_cast<std::size_t>(it.iv)) == 0) {
            out[it.req].status = QueryStatus::kBadNode;
            continue;
          }
          const bool sampled =
              obs::kEnabled && (answered++ % kLatencySampleEvery) == 0;
          const std::uint64_t q0 = sampled ? obs::now_ns() : 0;
          out[it.req].dist =
              sn.live ? query_resolved_locked(sh, sn.local, reqs[it.req],
                                              it.iu, it.iv, *sn.entry)
                      : query_resolved_uncached(it.iu, it.iv, *sn.entry);
          if (sampled)
            ServeMetrics::get().query_ns.record(obs::now_ns() - q0);
        }
        // No answer holds an attachment past this point.
        sh.cache.release_retired();
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
  st.integrity_failures = integrity_failures_.load(std::memory_order_relaxed);
  st.quarantine_events = quarantine_events_.load(std::memory_order_relaxed);
  for (const auto& sl : trees_)
    if (health_of(*sl) == TreeHealth::kQuarantined) ++st.quarantined;
  return st;
}

}  // namespace treelab::serve
