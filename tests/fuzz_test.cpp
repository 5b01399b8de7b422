// Failure-injection suite: decoders must be total. For every scheme, random
// bit flips, truncations, and random garbage fed to query() must either
// return a value or throw bits::DecodeError / std::out_of_range /
// std::runtime_error — never crash, hang, or read out of bounds. (Run
// under ASan/UBSan in CI builds for the memory-safety half of the claim.)
#include <gtest/gtest.h>

#include <random>

#include "bits/bitio.hpp"
#include "core/alstrup_scheme.hpp"
#include "core/approx_scheme.hpp"
#include "core/fgnw_scheme.hpp"
#include "core/kdistance_scheme.hpp"
#include "core/label_store.hpp"
#include "core/level_ancestor_scheme.hpp"
#include "core/peleg_scheme.hpp"
#include "serve/any_scheme.hpp"
#include "tree/generators.hpp"

namespace {

using namespace treelab;
using bits::BitVec;

/// Runs `f` and asserts it terminates in a controlled way.
template <typename F>
void must_not_crash(F&& f) {
  try {
    f();
  } catch (const bits::DecodeError&) {
  } catch (const std::out_of_range&) {
  } catch (const std::runtime_error&) {
  }
  // std::logic_error or UB would surface as a test crash / sanitizer abort.
}

BitVec flip_bits(const BitVec& l, int flips, std::mt19937_64& rng) {
  BitVec out = l;
  for (int i = 0; i < flips && out.size() > 0; ++i) {
    const std::size_t pos = rng() % out.size();
    out.set(pos, !out.get(pos));
  }
  return out;
}

BitVec random_garbage(std::size_t bits, std::mt19937_64& rng) {
  BitVec out;
  for (std::size_t i = 0; i < bits; i += 64)
    out.append_bits(rng(), static_cast<int>(std::min<std::size_t>(64, bits - i)));
  return out;
}

template <typename QueryFn>
void fuzz_labels(const bits::LabelArena& labels, QueryFn&& q,
                 std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::size_t> pick(0, labels.size() - 1);
  for (int trial = 0; trial < 400; ++trial) {
    const BitVec good = labels[pick(rng)];
    const BitVec other = labels[pick(rng)];
    // Bit flips.
    const BitVec flipped = flip_bits(good, 1 + static_cast<int>(rng() % 4), rng);
    must_not_crash([&] { (void)q(flipped, other); });
    must_not_crash([&] { (void)q(other, flipped); });
    // Truncations.
    if (good.size() > 1) {
      const BitVec cut = good.slice(0, rng() % good.size());
      must_not_crash([&] { (void)q(cut, other); });
    }
    // Pure garbage of assorted sizes.
    const BitVec junk = random_garbage(rng() % 300, rng);
    must_not_crash([&] { (void)q(junk, other); });
    must_not_crash([&] { (void)q(junk, junk); });
  }
}

TEST(Fuzz, FgnwQuery) {
  const auto t = tree::random_tree(300, 1);
  const core::FgnwScheme s(t);
  fuzz_labels(s.labels(),
              [](const BitVec& a, const BitVec& b) {
                return core::FgnwScheme::query(a, b);
              },
              11);
}

TEST(Fuzz, AlstrupQuery) {
  const auto t = tree::random_tree(300, 2);
  const core::AlstrupScheme s(t);
  fuzz_labels(s.labels(),
              [](const BitVec& a, const BitVec& b) {
                return core::AlstrupScheme::query(a, b);
              },
              12);
}

TEST(Fuzz, PelegQuery) {
  const auto t = tree::random_tree(300, 3);
  const core::PelegScheme s(t);
  fuzz_labels(s.labels(),
              [](const BitVec& a, const BitVec& b) {
                return core::PelegScheme::query(a, b);
              },
              13);
}

TEST(Fuzz, KDistanceQuery) {
  const auto t = tree::random_tree(300, 4);
  for (std::uint64_t k : {2, 64}) {
    const core::KDistanceScheme s(t, k);
    fuzz_labels(s.labels(),
                [k](const BitVec& a, const BitVec& b) {
                  return core::KDistanceScheme::query(k, a, b).distance;
                },
                14 + k);
  }
}

TEST(Fuzz, ApproxQuery) {
  const auto t = tree::random_tree(300, 5);
  const core::ApproxScheme s(t, 0.25);
  fuzz_labels(s.labels(),
              [](const BitVec& a, const BitVec& b) {
                return core::ApproxScheme::query(0.25, a, b);
              },
              15);
}

TEST(Fuzz, HugeLengthFieldDoesNotWrap) {
  // delta0(5), then delta0(2^64 - 2) where the NCA-label length goes, then
  // filler: the length must fail the bounds check, not wrap it.
  bits::BitWriter w;
  w.put_delta0(5);
  w.put_delta0(~std::uint64_t{0} - 1);
  for (int i = 0; i < 200; ++i) w.put_bit(i % 3 == 0);
  const BitVec l = w.take();
  for (const auto& [scheme, params] :
       {std::pair{"fgnw", ""}, {"alstrup", ""}, {"approx", "inv_eps=8"}}) {
    const auto s = serve::AnyScheme::make(scheme, params);
    must_not_crash([&] { (void)s.query(l, l); });
    must_not_crash([&] { (void)s.attach(l); });
  }
}

TEST(Fuzz, LevelAncestorParent) {
  const auto t = tree::random_tree(300, 6);
  const core::LevelAncestorScheme s(t);
  std::mt19937_64 rng(16);
  for (int trial = 0; trial < 400; ++trial) {
    const BitVec& good = s.label(static_cast<tree::NodeId>(rng() % 300));
    const BitVec flipped = flip_bits(good, 2, rng);
    must_not_crash([&] {
      // Walking to the root from a corrupt label must terminate: labels
      // carry a depth field, so parent() either throws or strictly
      // decreases it; cap the walk defensively anyway.
      BitVec cur = flipped;
      for (int step = 0; step < 1000; ++step) {
        auto p = core::LevelAncestorScheme::parent(cur);
        if (!p) break;
        cur = std::move(*p);
      }
    });
  }
}

TEST(Fuzz, LabelStoreLoad) {
  std::mt19937_64 rng(17);
  for (int trial = 0; trial < 300; ++trial) {
    std::string junk(static_cast<std::size_t>(rng() % 200), '\0');
    for (auto& c : junk) c = static_cast<char>(rng());
    // Start with valid magic half of the time to reach deeper code paths.
    if (trial % 2 == 0 && junk.size() >= 4) {
      junk[0] = 'T';
      junk[1] = 'L';
      junk[2] = 'A';
      junk[3] = 'B';
    }
    std::stringstream in(junk);
    must_not_crash([&] { (void)core::LabelStore::load_arena(in); });
  }
}

}  // namespace
