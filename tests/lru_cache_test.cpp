// SlotCache unit tests: FIFO eviction order under get/put interleavings
// (a hit never reorders), byte-budget accounting through inserts,
// evictions and erase_if, the never-evict-the-just-inserted-entry rule,
// the degenerate budgets (zero, and entries larger than the whole cache),
// ids past a tree's slot array, the lifetime of evicted values, and the
// admission contract (everything below budget; at budget, a key on its
// second miss within the doorkeeper window). ForestIndex relies on each of
// these when it serves attached labels out of its per-shard caches.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "serve/slot_cache.hpp"

namespace {

using Cache = treelab::serve::SlotCache<std::string>;

constexpr std::size_t kBound = 64;  // slot array size of every test tree

void put(Cache& c, std::uint32_t tree, std::uint32_t id, std::string v,
         std::size_t cost) {
  c.put(tree, id, std::make_shared<const std::string>(std::move(v)), cost,
        kBound);
}

// get() reorders nothing, so probing contents only moves the hit and miss
// counters.
bool contains(Cache& c, std::uint32_t tree, std::uint32_t id) {
  return c.get(tree, id) != nullptr;
}

TEST(SlotCache, GetMissThenHit) {
  Cache c(100);
  EXPECT_EQ(c.get(0, 1), nullptr);
  EXPECT_EQ(c.misses(), 1u);
  put(c, 0, 1, "one", 10);
  const std::string* v = c.get(0, 1);
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(*v, "one");
  EXPECT_EQ(c.hits(), 1u);
  EXPECT_EQ(c.size(), 1u);
  EXPECT_EQ(c.bytes(), 10u);
  EXPECT_EQ(c.get(1, 1), nullptr);  // same id, another tree
}

TEST(SlotCache, EvictsOldestFirst) {
  Cache c(30);
  put(c, 0, 1, "a", 10);
  put(c, 0, 2, "b", 10);
  put(c, 1, 3, "c", 10);  // full: insertion order 1, 2, 3
  put(c, 0, 4, "d", 10);  // evicts 1
  EXPECT_EQ(c.evictions(), 1u);
  EXPECT_FALSE(contains(c, 0, 1));
  EXPECT_TRUE(contains(c, 0, 2));
  put(c, 1, 5, "e", 10);  // evicts 2, the oldest, though it was just hit
  EXPECT_FALSE(contains(c, 0, 2));
  EXPECT_TRUE(contains(c, 1, 3));
  EXPECT_TRUE(contains(c, 0, 4));
  EXPECT_TRUE(contains(c, 1, 5));
  EXPECT_EQ(c.evictions(), 2u);
  EXPECT_EQ(c.bytes(), 30u);
}

TEST(SlotCache, HitDoesNotReorder) {
  Cache c(30);
  put(c, 0, 1, "a", 10);
  put(c, 0, 2, "b", 10);
  put(c, 0, 3, "c", 10);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(contains(c, 0, 1));
  put(c, 0, 4, "d", 10);  // evicts 1 all the same: FIFO, not LRU
  EXPECT_FALSE(contains(c, 0, 1));
  EXPECT_TRUE(contains(c, 0, 2));
  EXPECT_TRUE(contains(c, 0, 3));
  EXPECT_TRUE(contains(c, 0, 4));
}

TEST(SlotCache, OversizedEntrySurvivesUntilNextPut) {
  Cache c(10);
  put(c, 0, 1, "huge", 1000);  // larger than the whole budget
  // The just-inserted entry is never evicted: an oversized label still
  // gets its attach-once benefit for the batch that touched it.
  EXPECT_TRUE(contains(c, 0, 1));
  EXPECT_EQ(c.bytes(), 1000u);
  put(c, 0, 2, "next", 5);  // now the oversized one goes
  EXPECT_FALSE(contains(c, 0, 1));
  EXPECT_TRUE(contains(c, 0, 2));
  EXPECT_EQ(c.bytes(), 5u);
  EXPECT_EQ(c.evictions(), 1u);
}

TEST(SlotCache, ZeroBudgetHoldsExactlyTheLatest) {
  Cache c(0);
  put(c, 0, 1, "a", 1);
  EXPECT_TRUE(contains(c, 0, 1));  // never evict the newest, even at 0
  put(c, 0, 2, "b", 1);
  EXPECT_FALSE(contains(c, 0, 1));
  EXPECT_TRUE(contains(c, 0, 2));
  EXPECT_EQ(c.size(), 1u);
  // Inserting a zero-cost entry still evicts the charged one (the cache
  // is over its zero budget); zero-cost entries themselves accumulate.
  put(c, 0, 3, "c", 0);
  EXPECT_FALSE(contains(c, 0, 2));
  EXPECT_EQ(c.bytes(), 0u);
  put(c, 0, 4, "d", 0);
  EXPECT_TRUE(contains(c, 0, 3));
  EXPECT_TRUE(contains(c, 0, 4));
  EXPECT_EQ(c.size(), 2u);
}

TEST(SlotCache, IdPastTheSlotArrayIsAMiss) {
  Cache c(1000);
  // A tree's slot array is sized by its first insert's id bound.
  c.put(2, 3, std::make_shared<const std::string>("x"), 10, 8);
  EXPECT_EQ(c.get(2, 8), nullptr);     // one past the bound
  EXPECT_EQ(c.get(2, 1u << 30), nullptr);
  EXPECT_EQ(c.get(7, 0), nullptr);     // a tree with no array at all
  EXPECT_EQ(c.misses(), 3u);
  c.prefetch_slot(2, 1u << 30);  // out of range: a no-op, not a fault
  c.prefetch_value(7, 0);
  c.prefetch_value(2, 3);
  // A larger bound (appended ids) grows the array on the insert that
  // needs it; earlier entries keep their slots.
  c.put(2, 20, std::make_shared<const std::string>("y"), 10, 32);
  EXPECT_EQ(*c.get(2, 20), "y");
  EXPECT_EQ(*c.get(2, 3), "x");
  EXPECT_EQ(c.get(2, 31), nullptr);
  EXPECT_EQ(c.size(), 2u);
}

TEST(SlotCache, EvictedValueStaysReadableUntilReleased) {
  Cache c(10);
  auto first = std::make_shared<const std::string>("first value");
  const std::weak_ptr<const std::string> watch = first;
  c.put(0, 1, std::move(first), 10, kBound);
  const std::string* held = c.get(0, 1);
  ASSERT_NE(held, nullptr);
  // The next insert evicts it: the slot empties at once, but the value is
  // retired, not freed, so a pointer taken before the insert still reads.
  put(c, 0, 2, "second", 10);
  EXPECT_EQ(c.evictions(), 1u);
  EXPECT_FALSE(contains(c, 0, 1));
  ASSERT_FALSE(watch.expired());
  EXPECT_EQ(*held, "first value");
  EXPECT_EQ(c.bytes(), 10u);  // retired values are not charged
  c.release_retired();
  EXPECT_TRUE(watch.expired());
  EXPECT_TRUE(contains(c, 0, 2));
}

TEST(SlotCache, EraseIfReleasesCostWithoutCountingEvictions) {
  Cache c(1000);
  // ForestIndex keys attached labels by (tree, external id) and
  // invalidates one tree's entries, or a set of its ids, on a swap.
  for (std::uint32_t tree = 0; tree < 3; ++tree)
    for (std::uint32_t id = 0; id < 4; ++id)
      put(c, tree, id, std::to_string(tree * 100 + id), 10);
  EXPECT_EQ(c.size(), 12u);
  EXPECT_EQ(c.bytes(), 120u);
  EXPECT_EQ(c.erase_if(1, [](std::uint32_t) { return true; }), 4u);
  EXPECT_EQ(c.size(), 8u);
  EXPECT_EQ(c.bytes(), 80u);
  EXPECT_EQ(c.evictions(), 0u);  // invalidation, not budgeting
  EXPECT_EQ(c.get(1, 2), nullptr);
  ASSERT_NE(c.get(2, 3), nullptr);
  EXPECT_EQ(*c.get(2, 3), "203");
  // An id set: only the listed ids of that tree go.
  EXPECT_EQ(c.erase_if(2, [](std::uint32_t id) { return id % 2 == 1; }), 2u);
  EXPECT_FALSE(contains(c, 2, 1));
  EXPECT_TRUE(contains(c, 2, 2));
  EXPECT_TRUE(contains(c, 0, 1));
  EXPECT_EQ(c.bytes(), 60u);
  // Removing everything leaves a clean, reusable cache.
  for (std::uint32_t tree = 0; tree < 3; ++tree)
    (void)c.erase_if(tree, [](std::uint32_t) { return true; });
  EXPECT_EQ(c.size(), 0u);
  EXPECT_EQ(c.bytes(), 0u);
  put(c, 1, 2, "again", 10);
  EXPECT_TRUE(contains(c, 1, 2));
}

TEST(SlotCache, EraseIfOnEmptyAndNoMatch) {
  Cache c(100);
  EXPECT_EQ(c.erase_if(0, [](std::uint32_t) { return true; }), 0u);
  put(c, 0, 1, "a", 10);
  EXPECT_EQ(c.erase_if(0, [](std::uint32_t id) { return id == 42; }), 0u);
  EXPECT_EQ(c.erase_if(5, [](std::uint32_t) { return true; }), 0u);
  EXPECT_EQ(c.size(), 1u);
  EXPECT_EQ(c.bytes(), 10u);
}

TEST(SlotCache, StatsAccumulate) {
  Cache c(20);
  put(c, 0, 1, "a", 10);
  put(c, 0, 2, "b", 10);
  (void)contains(c, 0, 1);
  (void)contains(c, 0, 1);
  (void)contains(c, 0, 7);
  put(c, 0, 3, "c", 10);  // evicts 1, the oldest, hits or not
  EXPECT_EQ(c.hits(), 2u);
  EXPECT_EQ(c.misses(), 1u);
  EXPECT_EQ(c.evictions(), 1u);
  EXPECT_FALSE(contains(c, 0, 1));
  EXPECT_EQ(c.misses(), 2u);
}

TEST(SlotCache, BudgetInvariantUnderChurn) {
  // After any burst of puts, bytes() never exceeds max(capacity, cost of
  // the newest entry) — the documented bound.
  Cache c(64);
  std::size_t last_cost = 0;
  for (int i = 0; i < 500; ++i) {
    const auto id = static_cast<std::uint32_t>(i % 17);
    if (contains(c, 0, id)) continue;  // put() takes absent keys only
    last_cost = static_cast<std::size_t>((i * 7) % 40);
    put(c, 0, id, std::to_string(i), last_cost);
    EXPECT_LE(c.bytes(), std::max<std::size_t>(64, last_cost))
        << "after put " << i;
    EXPECT_GE(c.size(), 1u);
    c.release_retired();
  }
}

TEST(SlotCache, BelowBudgetAdmitsEveryKey) {
  Cache c(100);
  for (std::uint32_t k = 0; k < 9; ++k) {
    ASSERT_TRUE(c.admit(0, k)) << "key " << k;
    put(c, 0, k, "v", 10);
  }
  // 90 of 100 bytes: room for one more average-sized (10-byte) entry.
  EXPECT_TRUE(c.admit(0, 42));
  EXPECT_TRUE(c.admit(0, 42));
  EXPECT_EQ(c.refused(), 0u);
  EXPECT_EQ(c.evictions(), 0u);
}

TEST(SlotCache, AtBudgetRefusesAOneOffThenAdmitsItsNextMiss) {
  Cache c(30);
  put(c, 0, 1, "a", 10);
  put(c, 0, 2, "b", 10);
  put(c, 0, 3, "c", 10);  // full: one more entry would evict
  EXPECT_FALSE(c.admit(0, 4));
  EXPECT_EQ(c.refused(), 1u);
  EXPECT_EQ(c.evictions(), 0u);  // refusing leaves the residents alone
  EXPECT_TRUE(contains(c, 0, 1));
  EXPECT_TRUE(c.admit(0, 4));  // the key recurred: let it in
  EXPECT_EQ(c.refused(), 1u);
  put(c, 0, 4, "d", 10);
  EXPECT_EQ(c.evictions(), 1u);
  EXPECT_TRUE(contains(c, 0, 4));
  EXPECT_FALSE(c.admit(0, 5));
  EXPECT_EQ(c.refused(), 2u);
}

TEST(SlotCache, DoorkeeperForgetsAfterAFullWindowOfRefusals) {
  // The window is max(entries, 1024) refusals. A key refused at its start
  // is still remembered after 1023 further refusals, and forgotten once
  // the 1024th opens the next window.
  constexpr std::size_t kWindow = 1024;
  const auto refuse = [](Cache& c, std::size_t n) {
    std::uint32_t next = 1000;
    for (const std::size_t goal = c.refused() + n; c.refused() < goal;)
      (void)c.admit(0, next++);
  };
  for (const std::size_t further : {kWindow - 1, kWindow}) {
    Cache c(10);
    put(c, 0, 1, "a", 10);  // full from the first insert
    ASSERT_FALSE(c.admit(0, 7));
    refuse(c, further);
    EXPECT_EQ(c.refused(), further + 1);
    EXPECT_EQ(c.admit(0, 7), further < kWindow) << further << " refusals";
  }
}

}  // namespace
