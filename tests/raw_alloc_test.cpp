// Raw queries read labels in place. Through AnyScheme, on views of the
// pooled LabelArena, no scheme's raw query makes a heap allocation (Peleg's
// walks both entry lists in place), and each attach makes a small fixed
// number (the attached form's one label copy, its decoded arrays and
// AnyScheme's holder).
//
// This binary replaces the global operator new with a counting one, which
// is why it is a suite of its own.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "bits/label_arena.hpp"
#include "core/alstrup_scheme.hpp"
#include "core/approx_scheme.hpp"
#include "core/fgnw_scheme.hpp"
#include "core/kdistance_scheme.hpp"
#include "core/peleg_scheme.hpp"
#include "serve/any_scheme.hpp"
#include "tree/generators.hpp"

namespace {

std::atomic<std::size_t> g_news{0};

void* counted_malloc(std::size_t n) noexcept {
  g_news.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}

void* counted_new(std::size_t n) {
  if (void* p = counted_malloc(n)) return p;
  throw std::bad_alloc();
}

}  // namespace

// Every unaligned form is replaced, so that each allocation is counted and
// freed by the same allocator (under ASan, a form left out would pair the
// sanitizer's operator new with this file's free).
void* operator new(std::size_t n) { return counted_new(n); }
void* operator new[](std::size_t n) { return counted_new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_malloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_malloc(n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace {

using namespace treelab;
using tree::NodeId;

/// Heap allocations made while `f` runs.
template <typename F>
std::size_t allocations(F&& f) {
  const std::size_t before = g_news.load(std::memory_order_relaxed);
  f();
  return g_news.load(std::memory_order_relaxed) - before;
}

struct Fixture {
  tree::Tree t = tree::random_tree(NodeId{1} << 12, 5);
  std::vector<std::pair<NodeId, NodeId>> pairs;

  Fixture() {
    std::mt19937_64 rng(17);
    std::uniform_int_distribution<NodeId> pick(0, t.size() - 1);
    pairs.resize(2000);
    for (auto& p : pairs) p = {pick(rng), pick(rng)};
  }
};

const Fixture& fixture() {
  static const Fixture f;
  return f;
}

/// The most allocations any one raw query over the fixture's pairs made.
std::size_t max_per_raw_query(const bits::LabelArena& labels,
                              const serve::AnyScheme& s) {
  // Warm-up: the first decode resolves the kernel dispatch table.
  (void)s.query(labels[0], labels[1]);
  std::size_t worst = 0;
  for (const auto& [u, v] : fixture().pairs)
    worst = std::max(worst, allocations([&] {
                       (void)s.query(labels[static_cast<std::size_t>(u)],
                                     labels[static_cast<std::size_t>(v)]);
                     }));
  return worst;
}

/// The most allocations any one AnyScheme::attach over the pairs' first
/// endpoints made, AnyScheme's holder included. The holder is always one,
/// which also shows the counter is live.
std::size_t max_per_attach(const bits::LabelArena& labels,
                           const serve::AnyScheme& s) {
  std::size_t worst = 0;
  for (const auto& [u, v] : fixture().pairs) {
    (void)v;
    serve::AnyScheme::AttachedPtr a;
    worst = std::max(worst, allocations([&] {
                       a = s.attach(labels[static_cast<std::size_t>(u)]);
                     }));
  }
  EXPECT_GE(worst, 1u);
  return worst;
}

TEST(RawAlloc, Fgnw) {
  const core::FgnwScheme s(fixture().t);
  const auto any = serve::AnyScheme::make("fgnw", "");
  EXPECT_EQ(max_per_raw_query(s.labels(), any), 0u);
  EXPECT_LE(max_per_attach(s.labels(), any), 3u);
}

TEST(RawAlloc, Alstrup) {
  const core::AlstrupScheme s(fixture().t);
  const auto any = serve::AnyScheme::make("alstrup", "");
  EXPECT_EQ(max_per_raw_query(s.labels(), any), 0u);
  EXPECT_LE(max_per_attach(s.labels(), any), 2u);
}

TEST(RawAlloc, Approx) {
  const core::ApproxScheme s(fixture().t, 1.0 / 8);
  const auto any = serve::AnyScheme::make("approx", "inv_eps=8");
  EXPECT_EQ(max_per_raw_query(s.labels(), any), 0u);
  EXPECT_LE(max_per_attach(s.labels(), any), 3u);
}

TEST(RawAlloc, KDistanceBothLayouts) {
  // k = 4 < log2 n stores the Lemma 4.5 sequences; k = 64 does not.
  for (const std::uint64_t k : {4u, 64u}) {
    const core::KDistanceScheme s(fixture().t, k);
    const auto any =
        serve::AnyScheme::make("kdist", "k=" + std::to_string(k));
    EXPECT_EQ(max_per_raw_query(s.labels(), any), 0u) << "k=" << k;
    EXPECT_LE(max_per_attach(s.labels(), any), 6u) << "k=" << k;
  }
}

TEST(RawAlloc, Peleg) {
  const core::PelegScheme s(fixture().t);
  const auto any = serve::AnyScheme::make("peleg", "");
  EXPECT_EQ(max_per_raw_query(s.labels(), any), 0u);
  EXPECT_LE(max_per_attach(s.labels(), any), 2u);
}

}  // namespace
