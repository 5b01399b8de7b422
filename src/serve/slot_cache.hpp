// SlotCache — a byte-budgeted FIFO cache of shared values keyed by (tree,
// id), the building block of ForestIndex's per-shard attached-label caches.
// Each tree has a dense array of value pointers indexed by id, so a lookup
// is one bounds-checked load: no hashing, and no write on a hit. Since a
// key's slot address is known before the lookup, a batch loop can fetch
// the slots and values of later requests ahead of their use
// (prefetch_slot, prefetch_value; Chen, Ailamaki, Gibbons and Mowry,
// "Improving Hash Join Performance through Prefetching", ICDE 2004).
//
// A FIFO ring owns the values. Entries carry an explicit cost (bytes)
// charged against a fixed capacity; inserting past the budget evicts the
// oldest entries, but never the entry just inserted, so a single entry
// larger than the whole budget is held until the next insert pushes it out
// — the cache is bounded by max(capacity, largest entry). A hit does not
// move its entry (Yang et al., "FIFO queues are all you need for cache
// eviction", SOSP 2023). The slot arrays are not charged: 8 bytes per id
// of every tree that has had an insert.
//
// An evicted value is retired, not freed: a pointer from get() stays valid
// across later put()s until release_retired(), which the owner calls at a
// point where it holds none (ForestIndex: the end of a shard's batch loop).
//
// Admission: put() always inserts, but a caller that pays to build a value
// on a miss asks admit() first. While the cache has room for one more
// average-sized entry every key is admitted. Once an insert would evict, a
// key is admitted only if admit() already refused it within the current
// doorkeeper window — TinyLFU's doorkeeper (Einziger, Friedman and Manes,
// ACM TOS 2017): a bitset over a hash of the key, cleared after
// max(size(), 1024) refusals. A full cache then stops trading a resident
// entry for a key that is touched once and never again; a key that recurs
// gets in on its second miss.
//
// Not thread-safe: ForestIndex serializes access per shard.
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <utility>
#include <vector>

namespace treelab::serve {

template <typename V>
class SlotCache {
 public:
  using Ptr = std::shared_ptr<const V>;

  /// prefetch_value() fetches this many bytes from the value's start.
  static constexpr std::size_t kValuePrefetchBytes = 256;

  explicit SlotCache(std::size_t capacity_bytes) : capacity_(capacity_bytes) {}

  /// The value stored under (tree, id), or nullptr on a miss; an id past
  /// the tree's slot array is a miss. Counts a hit or a miss and reorders
  /// nothing. The pointer is valid until the entry is erased, or, once
  /// evicted, until release_retired().
  [[nodiscard]] const V* get(std::uint32_t tree, std::uint32_t id) noexcept {
    const V* v = tree < slots_.size() && id < slots_[tree].size()
                     ? slots_[tree][id]
                     : nullptr;
    ++(v != nullptr ? hits_ : misses_);
    return v;
  }

  // The two prefetch helpers are always_inline: gcc 12 infers a
  // prefetch-only function pure and deletes calls to it as dead.

  /// Starts loading the cache line of (tree, id)'s slot.
  [[gnu::always_inline]] void prefetch_slot(std::uint32_t tree,
                                            std::uint32_t id) const noexcept {
    if (tree < slots_.size() && id < slots_[tree].size())
      __builtin_prefetch(&slots_[tree][id]);
  }

  /// Starts loading the first kValuePrefetchBytes of the value stored under
  /// (tree, id), if any, and returns whether there is one. Reads the slot,
  /// so prefetch_slot() it earlier.
  [[gnu::always_inline]] bool prefetch_value(std::uint32_t tree,
                                             std::uint32_t id) const noexcept {
    if (tree >= slots_.size() || id >= slots_[tree].size()) return false;
    const auto at = reinterpret_cast<std::uintptr_t>(slots_[tree][id]);
    if (at == 0) return false;
    for (std::size_t off = 0; off < kValuePrefetchBytes; off += 64)
      __builtin_prefetch(reinterpret_cast<const void*>(at + off));
    return true;
  }

  /// Inserts `value` under (tree, id), which must be absent (put() follows
  /// a get() that missed), charging `cost` bytes, then evicts the oldest
  /// entries while over capacity. The tree's slot array grows to
  /// `id_bound` (> id) when it is shorter.
  void put(std::uint32_t tree, std::uint32_t id, Ptr value, std::size_t cost,
           std::size_t id_bound) {
    if (tree >= slots_.size()) slots_.resize(std::size_t{tree} + 1);
    std::vector<const V*>& slots = slots_[tree];
    if (id >= slots.size())
      slots.resize(std::max(id_bound, std::size_t{id} + 1), nullptr);
    assert(slots[id] == nullptr);
    slots[id] = value.get();
    ring_.push_back(Entry{tree, id, cost, std::move(value)});
    bytes_ += cost;
    while (bytes_ > capacity_ && ring_.size() > 1) {
      Entry& old = ring_.front();
      slots_[old.tree][old.id] = nullptr;
      bytes_ -= old.cost;
      retired_.push_back(std::move(old.value));
      ring_.pop_front();
      ++evictions_;
    }
  }

  /// Frees the values evicted since the last call.
  void release_retired() noexcept { retired_.clear(); }

  /// Whether a key that just missed should be built and put(): true while
  /// the cache has room for one more average-sized entry, and at budget
  /// true only for a key refused once already within the doorkeeper
  /// window. A refusal is remembered and counted in refused().
  [[nodiscard]] bool admit(std::uint32_t tree, std::uint32_t id) {
    const std::size_t n = ring_.size();
    if (n == 0 || bytes_ + bytes_ / n <= capacity_) return true;
    const std::uint64_t key = (std::uint64_t{tree} << 32) | id;
    if (!doorkeeper_.empty() && test_and_set(key)) return true;
    if (window_left_ == 0) {
      // The window is spent (or never opened): forget it, sized to the
      // entry count so a big cache remembers as many refusals as it holds.
      const std::size_t window = std::max<std::size_t>(n, 1024);
      doorkeeper_.assign(std::bit_ceil(window) * kDoorkeeperBitsPerKey / 64,
                         0);
      window_left_ = window;
      (void)test_and_set(key);
    }
    --window_left_;
    ++refused_;
    return false;
  }

  /// Removes every entry of `tree` whose id satisfies `pred`, releasing its
  /// cost, and frees its value at once. Returns the number removed. Not
  /// counted as evictions: the caller is invalidating, not budgeting.
  template <typename Pred>
  std::size_t erase_if(std::uint32_t tree, Pred&& pred) {
    const std::size_t before = ring_.size();
    std::erase_if(ring_, [&](const Entry& e) {
      if (e.tree != tree || !pred(e.id)) return false;
      slots_[tree][e.id] = nullptr;
      bytes_ -= e.cost;
      return true;
    });
    return before - ring_.size();
  }

  [[nodiscard]] std::size_t size() const noexcept { return ring_.size(); }
  [[nodiscard]] std::size_t bytes() const noexcept { return bytes_; }
  [[nodiscard]] std::size_t hits() const noexcept { return hits_; }
  [[nodiscard]] std::size_t misses() const noexcept { return misses_; }
  [[nodiscard]] std::size_t evictions() const noexcept { return evictions_; }
  [[nodiscard]] std::size_t refused() const noexcept { return refused_; }

 private:
  // Doorkeeper bits per key of its window: a full window leaves at most
  // 1/16 of the bits set, so few one-off keys pass on a collision.
  static constexpr std::size_t kDoorkeeperBitsPerKey = 16;

  struct Entry {
    std::uint32_t tree;
    std::uint32_t id;
    std::size_t cost;
    Ptr value;
  };

  /// Sets the key's doorkeeper bit; returns whether it was already set.
  /// Finalizer-mixed: keys are near-sequential (tree, id) pairs.
  bool test_and_set(std::uint64_t key) {
    std::uint64_t x = key * 0x9e3779b97f4a7c15ULL;
    x ^= x >> 31;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 29;
    const std::size_t bit =
        static_cast<std::size_t>(x) & (doorkeeper_.size() * 64 - 1);
    std::uint64_t& word = doorkeeper_[bit / 64];
    const std::uint64_t mask = std::uint64_t{1} << (bit % 64);
    const bool seen = (word & mask) != 0;
    word |= mask;
    return seen;
  }

  std::size_t capacity_;
  std::size_t bytes_ = 0;
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
  std::size_t evictions_ = 0;
  std::size_t refused_ = 0;
  std::size_t window_left_ = 0;  // refusals left in the doorkeeper window
  std::vector<std::vector<const V*>> slots_;  // [tree][id]; null = absent
  std::deque<Entry> ring_;                    // oldest at the front
  std::vector<Ptr> retired_;                  // evicted, not yet freed
  std::vector<std::uint64_t> doorkeeper_;     // bitset, see test_and_set()
};

}  // namespace treelab::serve
