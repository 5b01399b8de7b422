// LruCache — a byte-budgeted least-recently-used map, the building block of
// ForestIndex's per-shard attached-label caches. Entries carry an explicit
// cost (bytes) charged against a fixed capacity; inserting past the budget
// evicts from the cold end. The entry just inserted is never evicted, so a
// single entry larger than the whole budget is held until the next insert
// pushes it out — the cache is bounded by max(capacity, largest entry), and
// a query for an oversized label still gets its attach-once benefit within
// the batch that touched it.
//
// Admission: put() always inserts, but a caller that pays to build a value
// on a miss asks admit() first. While the cache has room for one more
// average-sized entry every key is admitted. Once an insert would evict, a
// key is admitted only if admit() already refused it within the current
// doorkeeper window — TinyLFU's doorkeeper (Einziger, Friedman and Manes,
// ACM TOS 2017): a bitset over a second hash of the key, cleared after
// max(size(), 1024) refusals. A full cache then stops trading a resident
// entry for a key that is touched once and never again; a key that recurs
// gets in on its second miss.
//
// Internals are built for the serving hot path, where get() runs twice per
// query: an open-addressing table (power-of-two, linear probing, tombstone
// deletion) holding indices into a node slab, and an intrusive index-linked
// recency list — one probe sequence and no pointer-chasing node
// allocations, where the previous std::list + std::unordered_map layout
// paid a bucket chase plus a list splice per hit.
//
// Not thread-safe: ForestIndex serializes access per shard.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

namespace treelab::serve {

template <typename K, typename V, typename Hash = std::hash<K>>
class LruCache {
 public:
  explicit LruCache(std::size_t capacity_bytes) : capacity_(capacity_bytes) {}

  /// The value stored under `key`, refreshed to most-recently-used; nullptr
  /// on a miss. The pointer is valid until the next put().
  [[nodiscard]] V* get(const K& key) {
    const std::uint32_t i = find(key);
    if (i == kNil) {
      ++misses_;
      return nullptr;
    }
    ++hits_;
    move_to_front(i);
    return &nodes_[i].value;
  }

  /// Inserts (or replaces) `key` at the hot end, charging `cost` bytes, then
  /// evicts least-recently-used entries while over capacity.
  void put(const K& key, V value, std::size_t cost) {
    maybe_rehash();
    std::uint32_t i = find(key);
    if (i != kNil) {
      bytes_ -= nodes_[i].cost;
      nodes_[i].value = std::move(value);
      nodes_[i].cost = cost;
      move_to_front(i);
    } else {
      i = alloc_node(key, std::move(value), cost);
      place(key, i);
      link_front(i);
      ++size_;
    }
    bytes_ += cost;
    while (bytes_ > capacity_ && size_ > 1) {
      const std::uint32_t victim = tail_;
      unplace(nodes_[victim].key);
      bytes_ -= nodes_[victim].cost;
      unlink(victim);
      free_node(victim);
      --size_;
      ++evictions_;
    }
  }

  /// Whether a key that just missed should be built and put(): true while
  /// the cache has room for one more average-sized entry, and at budget
  /// true only for a key refused once already within the doorkeeper
  /// window. A refusal is remembered and counted in refused().
  [[nodiscard]] bool admit(const K& key) {
    if (size_ == 0 || bytes_ + bytes_ / size_ <= capacity_) return true;
    if (!doorkeeper_.empty() && test_and_set(key)) return true;
    if (window_left_ == 0) {
      // The window is spent (or never opened): forget it, sized to the
      // entry count so a big cache remembers as many refusals as it holds.
      const std::size_t window = std::max<std::size_t>(size_, 1024);
      doorkeeper_.assign(std::bit_ceil(window) * kDoorkeeperBitsPerKey / 64,
                         0);
      window_left_ = window;
      (void)test_and_set(key);
    }
    --window_left_;
    ++refused_;
    return false;
  }

  /// Removes every entry whose key satisfies `pred`, releasing its cost.
  /// Returns the number of entries removed. Not counted as evictions (the
  /// caller is invalidating, not budgeting) — ForestIndex uses this to drop
  /// a tree's attached labels when its labeling is hot-swapped.
  template <typename Pred>
  std::size_t erase_if(Pred&& pred) {
    std::size_t removed = 0;
    for (std::uint32_t i = head_; i != kNil;) {
      const std::uint32_t next = nodes_[i].next;
      if (pred(nodes_[i].key)) {
        unplace(nodes_[i].key);
        bytes_ -= nodes_[i].cost;
        unlink(i);
        free_node(i);
        --size_;
        ++removed;
      }
      i = next;
    }
    return removed;
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t bytes() const noexcept { return bytes_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::size_t hits() const noexcept { return hits_; }
  [[nodiscard]] std::size_t misses() const noexcept { return misses_; }
  [[nodiscard]] std::size_t evictions() const noexcept { return evictions_; }
  [[nodiscard]] std::size_t refused() const noexcept { return refused_; }

 private:
  static constexpr std::uint32_t kNil = 0xffffffff;   // empty table slot
  static constexpr std::uint32_t kTomb = 0xfffffffe;  // deleted table slot
  // Doorkeeper bits per key of its window: a full window leaves at most
  // 1/16 of the bits set, so few one-off keys pass on a collision.
  static constexpr std::size_t kDoorkeeperBitsPerKey = 16;

  struct Node {
    K key;
    V value;
    std::size_t cost;
    std::uint32_t prev;
    std::uint32_t next;
  };

  /// Table index the probe sequence for `key` starts at. Finalizer-mixed:
  /// cache keys are often near-sequential (tree id | node id), and linear
  /// probing needs the high entropy spread across the low bits.
  [[nodiscard]] std::size_t home(const K& key) const {
    std::uint64_t x = Hash{}(key);
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ULL;
    x ^= x >> 33;
    return static_cast<std::size_t>(x) & (table_.size() - 1);
  }

  /// Sets the key's doorkeeper bit; returns whether it was already set.
  /// The bit index is a second hash of the key, mixed apart from home()'s.
  bool test_and_set(const K& key) {
    std::uint64_t x = Hash{}(key) * 0x9e3779b97f4a7c15ULL;
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

  [[nodiscard]] std::uint32_t find(const K& key) const {
    if (table_.empty()) return kNil;
    const std::size_t mask = table_.size() - 1;
    for (std::size_t s = home(key);; s = (s + 1) & mask) {
      const std::uint32_t i = table_[s];
      if (i == kNil) return kNil;
      if (i != kTomb && nodes_[i].key == key) return i;
    }
  }

  /// Stores node `i` under `key`; the key must not be present.
  void place(const K& key, std::uint32_t i) {
    const std::size_t mask = table_.size() - 1;
    for (std::size_t s = home(key);; s = (s + 1) & mask) {
      if (table_[s] == kNil || table_[s] == kTomb) {
        if (table_[s] == kTomb) --tombstones_;
        table_[s] = i;
        return;
      }
    }
  }

  /// Tombstones the slot holding `key`; the key must be present.
  void unplace(const K& key) {
    const std::size_t mask = table_.size() - 1;
    for (std::size_t s = home(key);; s = (s + 1) & mask) {
      const std::uint32_t i = table_[s];
      if (i != kNil && i != kTomb && nodes_[i].key == key) {
        table_[s] = kTomb;
        ++tombstones_;
        return;
      }
    }
  }

  /// Grows (or rebuilds, clearing tombstones) when live + dead slots pass
  /// 3/4 of the table, keeping probe runs short.
  void maybe_rehash() {
    if (!table_.empty() && (size_ + tombstones_ + 1) * 4 < table_.size() * 3)
      return;
    std::size_t cap = table_.empty() ? 16 : table_.size();
    while ((size_ + 1) * 4 >= cap * 3) cap *= 2;
    table_.assign(cap, kNil);
    tombstones_ = 0;
    for (std::uint32_t i = head_; i != kNil; i = nodes_[i].next)
      place(nodes_[i].key, i);
  }

  std::uint32_t alloc_node(const K& key, V value, std::size_t cost) {
    if (free_ != kNil) {
      const std::uint32_t i = free_;
      free_ = nodes_[i].next;
      nodes_[i].key = key;
      nodes_[i].value = std::move(value);
      nodes_[i].cost = cost;
      return i;
    }
    nodes_.push_back(Node{key, std::move(value), cost, kNil, kNil});
    return static_cast<std::uint32_t>(nodes_.size() - 1);
  }

  void free_node(std::uint32_t i) {
    nodes_[i].value = V{};  // release the payload now, not at reuse time
    nodes_[i].next = free_;
    free_ = i;
  }

  void link_front(std::uint32_t i) {
    nodes_[i].prev = kNil;
    nodes_[i].next = head_;
    if (head_ != kNil) nodes_[head_].prev = i;
    head_ = i;
    if (tail_ == kNil) tail_ = i;
  }

  void unlink(std::uint32_t i) {
    if (nodes_[i].prev != kNil)
      nodes_[nodes_[i].prev].next = nodes_[i].next;
    else
      head_ = nodes_[i].next;
    if (nodes_[i].next != kNil)
      nodes_[nodes_[i].next].prev = nodes_[i].prev;
    else
      tail_ = nodes_[i].prev;
  }

  void move_to_front(std::uint32_t i) {
    if (head_ == i) return;
    unlink(i);
    link_front(i);
  }

  std::size_t capacity_;
  std::size_t bytes_ = 0;
  std::size_t size_ = 0;
  std::size_t tombstones_ = 0;
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
  std::size_t evictions_ = 0;
  std::size_t refused_ = 0;
  std::size_t window_left_ = 0;  // refusals left in the doorkeeper window
  std::uint32_t head_ = kNil;  // most recently used
  std::uint32_t tail_ = kNil;  // least recently used
  std::uint32_t free_ = kNil;  // node-slab free list, linked through next
  std::vector<std::uint32_t> table_;  // open-addressing: node index per slot
  std::vector<Node> nodes_;
  std::vector<std::uint64_t> doorkeeper_;  // bitset, see test_and_set()
};

}  // namespace treelab::serve
