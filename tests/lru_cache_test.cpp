// LruCache unit tests: recency order under get/put interleavings,
// byte-budget accounting through inserts, replacements, evictions and
// erase_if, the never-evict-the-just-inserted-entry rule, the degenerate
// budgets (zero, and entries larger than the whole cache), and the
// admission contract (everything below budget; at budget, a key on its
// second miss within the doorkeeper window). ForestIndex relies on each of
// these when it serves attached labels out of its per-shard caches.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "serve/lru_cache.hpp"

namespace {

using treelab::serve::LruCache;

using Cache = LruCache<int, std::string>;

// The cache has no iteration API (ForestIndex never needs one); contents
// are observed through get(), which also refreshes recency — tests that
// probe without wanting the refresh say so explicitly.
bool contains(Cache& c, int key) { return c.get(key) != nullptr; }

TEST(LruCache, GetMissThenHit) {
  Cache c(100);
  EXPECT_EQ(c.get(1), nullptr);
  EXPECT_EQ(c.misses(), 1u);
  c.put(1, "one", 10);
  std::string* v = c.get(1);
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(*v, "one");
  EXPECT_EQ(c.hits(), 1u);
  EXPECT_EQ(c.size(), 1u);
  EXPECT_EQ(c.bytes(), 10u);
}

TEST(LruCache, EvictsColdEndInOrder) {
  Cache c(30);
  c.put(1, "a", 10);
  c.put(2, "b", 10);
  c.put(3, "c", 10);  // full: order hot→cold is 3, 2, 1
  c.put(4, "d", 10);  // evicts 1
  EXPECT_EQ(c.evictions(), 1u);
  EXPECT_FALSE(contains(c, 1));
  EXPECT_TRUE(contains(c, 2));  // probing 2 also re-heats it: order 2, 4, 3
  c.put(5, "e", 10);            // evicts 3, the coldest
  EXPECT_FALSE(contains(c, 3));
  EXPECT_TRUE(contains(c, 2));
  EXPECT_TRUE(contains(c, 4));
  EXPECT_TRUE(contains(c, 5));
  EXPECT_EQ(c.evictions(), 2u);
  EXPECT_EQ(c.bytes(), 30u);
}

TEST(LruCache, GetRefreshesRecency) {
  Cache c(30);
  c.put(1, "a", 10);
  c.put(2, "b", 10);
  c.put(3, "c", 10);
  ASSERT_TRUE(contains(c, 1));  // 1 is now the hottest
  c.put(4, "d", 10);            // evicts 2, not 1
  EXPECT_TRUE(contains(c, 1));
  EXPECT_FALSE(contains(c, 2));
  EXPECT_TRUE(contains(c, 3));
}

TEST(LruCache, ReplacementReleasesOldCost) {
  Cache c(100);
  c.put(1, "small", 10);
  c.put(1, "large", 60);  // same key: old cost released first
  EXPECT_EQ(c.size(), 1u);
  EXPECT_EQ(c.bytes(), 60u);
  EXPECT_EQ(*c.get(1), "large");
  c.put(1, "tiny", 1);
  EXPECT_EQ(c.bytes(), 1u);
  EXPECT_EQ(c.evictions(), 0u);  // replacements never counted as evictions
}

TEST(LruCache, OversizedEntrySurvivesUntilNextPut) {
  Cache c(10);
  c.put(1, "huge", 1000);  // larger than the whole budget
  // The just-inserted entry is never evicted: an oversized label still
  // gets its attach-once benefit for the batch that touched it.
  EXPECT_TRUE(contains(c, 1));
  EXPECT_EQ(c.bytes(), 1000u);
  c.put(2, "next", 5);  // now the oversized one goes
  EXPECT_FALSE(contains(c, 1));
  EXPECT_TRUE(contains(c, 2));
  EXPECT_EQ(c.bytes(), 5u);
  EXPECT_EQ(c.evictions(), 1u);
}

TEST(LruCache, ZeroBudgetHoldsExactlyTheLatest) {
  Cache c(0);
  c.put(1, "a", 1);
  EXPECT_TRUE(contains(c, 1));  // never evict the newest, even at budget 0
  c.put(2, "b", 1);
  EXPECT_FALSE(contains(c, 1));
  EXPECT_TRUE(contains(c, 2));
  EXPECT_EQ(c.size(), 1u);
  // Inserting a zero-cost entry still evicts the charged one (the cache
  // is over its zero budget); zero-cost entries themselves accumulate.
  c.put(3, "c", 0);
  EXPECT_FALSE(contains(c, 2));
  EXPECT_EQ(c.bytes(), 0u);
  c.put(4, "d", 0);
  EXPECT_TRUE(contains(c, 3));
  EXPECT_TRUE(contains(c, 4));
  EXPECT_EQ(c.size(), 2u);
}

TEST(LruCache, EraseIfReleasesCostWithoutCountingEvictions) {
  LruCache<std::pair<int, int>, int,
           decltype([](const std::pair<int, int>& k) {
             return std::hash<int>()(k.first * 31 + k.second);
           })>
      c(1000);
  // ForestIndex keys attached labels by (tree, node) and invalidates one
  // tree's entries on hot swap — model exactly that shape.
  for (int tree = 0; tree < 3; ++tree)
    for (int node = 0; node < 4; ++node)
      c.put({tree, node}, tree * 100 + node, 10);
  EXPECT_EQ(c.size(), 12u);
  EXPECT_EQ(c.bytes(), 120u);
  const std::size_t removed =
      c.erase_if([](const std::pair<int, int>& k) { return k.first == 1; });
  EXPECT_EQ(removed, 4u);
  EXPECT_EQ(c.size(), 8u);
  EXPECT_EQ(c.bytes(), 80u);
  EXPECT_EQ(c.evictions(), 0u);  // invalidation, not budgeting
  EXPECT_EQ(c.get({1, 2}), nullptr);
  ASSERT_NE(c.get({2, 3}), nullptr);
  EXPECT_EQ(*c.get({2, 3}), 203);
  // Removing everything leaves a clean, reusable cache.
  EXPECT_EQ(c.erase_if([](const std::pair<int, int>&) { return true; }), 8u);
  EXPECT_EQ(c.size(), 0u);
  EXPECT_EQ(c.bytes(), 0u);
  c.put({9, 9}, 999, 10);
  EXPECT_TRUE(c.get({9, 9}) != nullptr);
}

TEST(LruCache, EraseIfOnEmptyAndNoMatch) {
  Cache c(100);
  EXPECT_EQ(c.erase_if([](int) { return true; }), 0u);
  c.put(1, "a", 10);
  EXPECT_EQ(c.erase_if([](int k) { return k == 42; }), 0u);
  EXPECT_EQ(c.size(), 1u);
  EXPECT_EQ(c.bytes(), 10u);
}

TEST(LruCache, StatsAccumulate) {
  Cache c(20);
  c.put(1, "a", 10);
  c.put(2, "b", 10);
  (void)contains(c, 1);
  (void)contains(c, 1);
  (void)contains(c, 7);
  c.put(3, "c", 10);  // evicts 2 (1 was re-heated)
  EXPECT_EQ(c.hits(), 2u);
  EXPECT_EQ(c.misses(), 1u);
  EXPECT_EQ(c.evictions(), 1u);
  EXPECT_FALSE(contains(c, 2));
  EXPECT_EQ(c.misses(), 2u);
}

TEST(LruCache, BudgetInvariantUnderChurn) {
  // After any burst of puts, bytes() never exceeds max(capacity, cost of
  // the newest entry) — the documented bound.
  Cache c(64);
  std::size_t last_cost = 0;
  for (int i = 0; i < 500; ++i) {
    last_cost = static_cast<std::size_t>((i * 7) % 40);
    // += rather than `"v" + std::to_string(i)`: GCC 12's -Wrestrict
    // misfires on `const char* + std::string&&` at -O2 (upstream 105329).
    std::string val = "v";
    val += std::to_string(i);
    c.put(i % 17, val, last_cost);
    EXPECT_LE(c.bytes(), std::max<std::size_t>(64, last_cost))
        << "after put " << i;
    EXPECT_GE(c.size(), 1u);
  }
}

TEST(LruCache, BelowBudgetAdmitsEveryKey) {
  Cache c(100);
  for (int k = 0; k < 9; ++k) {
    ASSERT_TRUE(c.admit(k)) << "key " << k;
    c.put(k, "v", 10);
  }
  // 90 of 100 bytes: room for one more average-sized (10-byte) entry.
  EXPECT_TRUE(c.admit(42));
  EXPECT_TRUE(c.admit(42));
  EXPECT_EQ(c.refused(), 0u);
  EXPECT_EQ(c.evictions(), 0u);
}

TEST(LruCache, AtBudgetRefusesAOneOffThenAdmitsItsNextMiss) {
  Cache c(30);
  c.put(1, "a", 10);
  c.put(2, "b", 10);
  c.put(3, "c", 10);  // full: one more entry would evict
  EXPECT_FALSE(c.admit(4));
  EXPECT_EQ(c.refused(), 1u);
  EXPECT_EQ(c.evictions(), 0u);  // refusing leaves the residents alone
  EXPECT_TRUE(contains(c, 1));
  EXPECT_TRUE(c.admit(4));  // the key recurred: let it in
  EXPECT_EQ(c.refused(), 1u);
  c.put(4, "d", 10);
  EXPECT_EQ(c.evictions(), 1u);
  EXPECT_TRUE(contains(c, 4));
  EXPECT_FALSE(c.admit(5));
  EXPECT_EQ(c.refused(), 2u);
}

TEST(LruCache, DoorkeeperForgetsAfterAFullWindowOfRefusals) {
  // The window is max(entries, 1024) refusals. A key refused at its start
  // is still remembered after 1023 further refusals, and forgotten once
  // the 1024th opens the next window.
  constexpr std::size_t kWindow = 1024;
  const auto refuse = [](Cache& c, std::size_t n) {
    int next = 1000;
    for (const std::size_t goal = c.refused() + n; c.refused() < goal;)
      (void)c.admit(next++);
  };
  for (const std::size_t further : {kWindow - 1, kWindow}) {
    Cache c(10);
    c.put(1, "a", 10);  // full from the first insert
    ASSERT_FALSE(c.admit(7));
    refuse(c, further);
    EXPECT_EQ(c.refused(), further + 1);
    EXPECT_EQ(c.admit(7), further < kWindow) << further << " refusals";
  }
}

}  // namespace
