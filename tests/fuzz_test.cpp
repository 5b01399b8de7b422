// Failure-injection suite: decoders must be total. For every scheme, random
// bit flips, truncations, and random garbage fed to query() must either
// return a value or throw bits::DecodeError / std::out_of_range /
// std::runtime_error — never crash, hang, or read out of bounds. (Run
// under ASan/UBSan in CI builds for the memory-safety half of the claim.)
//
// Decoders read labels in place, as views that may start at any bit and
// be followed by other bits of the same buffer, so every label is also fed
// at a random bit offset with random bits after it. ASan cannot see a read
// past a view inside one buffer; a changed answer can.
#include <gtest/gtest.h>

#include <optional>
#include <random>
#include <utility>
#include <vector>

#include "bits/bitio.hpp"
#include "bits/monotone.hpp"
#include "core/alstrup_scheme.hpp"
#include "core/approx_scheme.hpp"
#include "core/fgnw_scheme.hpp"
#include "core/kdistance_scheme.hpp"
#include "core/label_store.hpp"
#include "core/level_ancestor_scheme.hpp"
#include "core/peleg_scheme.hpp"
#include "nca/nca_labeling.hpp"
#include "serve/any_scheme.hpp"
#include "tree/generators.hpp"
#include "tree/hpd.hpp"

namespace {

using namespace treelab;
using bits::BitSpan;
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

/// A label copied to a random bit offset 1-63 of a fresh buffer, with
/// random bits after it; `view` is the label's place in `buf`.
struct Misaligned {
  BitVec buf;
  BitSpan view;
};

Misaligned misalign(BitSpan l, std::mt19937_64& rng) {
  const std::size_t off = 1 + rng() % 63;
  Misaligned out{random_garbage(off, rng), {}};
  out.buf.append(l);
  out.buf.append(random_garbage(1 + rng() % 130, rng));
  out.view = BitSpan(out.buf).subspan(off, l.size());
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
    // Unmodified labels at random bit offsets answer as aligned ones do.
    const Misaligned good_m = misalign(good, rng);
    const Misaligned other_m = misalign(other, rng);
    ASSERT_EQ(q(good_m.view, other_m.view), q(good, other)) << trial;
    ASSERT_EQ(q(other_m.view, good), q(other, good)) << trial;
    // Bit flips.
    const BitVec flipped =
        flip_bits(good, 1 + static_cast<int>(rng() % 4), rng);
    const Misaligned flipped_m = misalign(flipped, rng);
    must_not_crash([&] { (void)q(flipped, other); });
    must_not_crash([&] { (void)q(other, flipped); });
    must_not_crash([&] { (void)q(flipped_m.view, other_m.view); });
    must_not_crash([&] { (void)q(other_m.view, flipped_m.view); });
    // Truncations.
    if (good.size() > 1) {
      const BitVec cut = good.slice(0, rng() % good.size());
      const Misaligned cut_m = misalign(cut, rng);
      must_not_crash([&] { (void)q(cut, other); });
      must_not_crash([&] { (void)q(cut_m.view, other_m.view); });
    }
    // Pure garbage of assorted sizes.
    const BitVec junk = random_garbage(rng() % 300, rng);
    const Misaligned junk_m = misalign(junk, rng);
    must_not_crash([&] { (void)q(junk, other); });
    must_not_crash([&] { (void)q(junk, junk); });
    must_not_crash([&] { (void)q(junk_m.view, junk_m.view); });
  }
}

TEST(Fuzz, FgnwQuery) {
  const auto t = tree::random_tree(300, 1);
  const core::FgnwScheme s(t);
  fuzz_labels(s.labels(),
              [](BitSpan a, BitSpan b) {
                return core::FgnwScheme::query(a, b);
              },
              11);
}

TEST(Fuzz, AlstrupQuery) {
  const auto t = tree::random_tree(300, 2);
  const core::AlstrupScheme s(t);
  fuzz_labels(s.labels(),
              [](BitSpan a, BitSpan b) {
                return core::AlstrupScheme::query(a, b);
              },
              12);
}

TEST(Fuzz, PelegQuery) {
  const auto t = tree::random_tree(300, 3);
  const core::PelegScheme s(t);
  fuzz_labels(s.labels(),
              [](BitSpan a, BitSpan b) {
                return core::PelegScheme::query(a, b);
              },
              13);
}

TEST(Fuzz, KDistanceQuery) {
  const auto t = tree::random_tree(300, 4);
  for (std::uint64_t k : {2, 64}) {
    const core::KDistanceScheme s(t, k);
    fuzz_labels(s.labels(),
                [k](BitSpan a, BitSpan b) {
                  return core::KDistanceScheme::query(k, a, b).distance;
                },
                14 + k);
  }
}

TEST(Fuzz, ApproxQuery) {
  const auto t = tree::random_tree(300, 5);
  const core::ApproxScheme s(t, 0.25);
  fuzz_labels(s.labels(),
              [&s](BitSpan a, BitSpan b) {
                return core::ApproxScheme::query(s.powers(), a, b);
              },
              15);
}

/// An approx label rebuilt around another one's NCA label: root distance
/// `rd`, then either the original exponent field or, when `exps` is given,
/// that sequence in the monotone encoding.
BitVec approx_label(BitSpan l, std::uint64_t rd,
                    const std::vector<std::uint64_t>* exps = nullptr) {
  bits::BitReader r(l);
  (void)r.get_delta0();
  const std::uint64_t nca_len = r.get_delta0();
  const BitSpan nca = r.get_span(static_cast<std::size_t>(nca_len));
  const bool unary = r.get_bit();
  bits::BitWriter w;
  w.put_delta0(rd);
  w.put_delta0(nca_len);
  w.append(nca);
  w.put_bit(unary);
  if (exps != nullptr)
    (void)bits::MonotoneSeq::encode_to(w, *exps, exps->back());
  else
    w.append(l.subspan(r.pos(), l.size() - r.pos()));
  return w.take();
}

TEST(Fuzz, ApproxEstimateOutsideUint64Throws) {
  // Nodes 1 and 7 are siblings and 7, the light one, dominates their
  // query: the answer is 2 d(7, w) + rd(1) - rd(7), rounded up. A root
  // distance of 2^62 on 7's label puts that near -2^62, a float-to-integer
  // conversion out of range unless the estimate is checked first.
  const auto t = tree::random_tree(512, 7);
  const core::ApproxScheme s(t, 0.125);
  const BitSpan l1 = s.label(1);
  ASSERT_EQ(approx_label(s.label(7), t.root_distance(7)), BitVec(s.label(7)));
  ASSERT_EQ(core::ApproxScheme::query(s.powers(), s.label(7), l1), 2u);
  const BitVec crafted = approx_label(s.label(7), std::uint64_t{1} << 62);
  EXPECT_THROW((void)core::ApproxScheme::query(s.powers(), crafted, l1),
               bits::DecodeError);
  EXPECT_THROW((void)core::ApproxScheme::query(s.powers(), l1, crafted),
               bits::DecodeError);
  const auto a7 = core::ApproxScheme::attach(crafted);
  const auto a1 = core::ApproxScheme::attach(l1);
  EXPECT_THROW((void)core::ApproxScheme::query(s.powers(), a7, a1),
               bits::DecodeError);
  EXPECT_THROW((void)core::ApproxScheme::query(s.powers(), a1, a7),
               bits::DecodeError);
}

TEST(Fuzz, ApproxExponentPast32BitsThrows) {
  // The same pair, with node 7's exponents all 2^32: the attached form
  // keeps 32-bit exponents, so the decoders must reject it, not truncate
  // it to 0.
  const auto t = tree::random_tree(512, 7);
  const core::ApproxScheme s(t, 0.125);
  bits::BitReader r(s.label(7));
  (void)r.get_delta0();
  r.skip(static_cast<std::size_t>(r.get_delta0()));
  ASSERT_FALSE(r.get_bit());
  const std::vector<std::uint64_t> exps(
      bits::MonotoneSeq::read_from(r).size(), std::uint64_t{1} << 32);
  ASSERT_FALSE(exps.empty());
  const BitVec crafted =
      approx_label(s.label(7), t.root_distance(7), &exps);
  const BitSpan l1 = s.label(1);
  EXPECT_THROW((void)core::ApproxScheme::query(s.powers(), crafted, l1),
               bits::DecodeError);
  EXPECT_THROW((void)core::ApproxScheme::query(s.powers(), l1, crafted),
               bits::DecodeError);
  EXPECT_THROW((void)core::ApproxScheme::attach(crafted), bits::DecodeError);
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

TEST(Fuzz, NcaCodeLengthDoesNotWrap) {
  // An NCA label whose boundary sequence decodes its code length as
  // 2^64 - 8: s = 1, M = 0, b = 2^63, a 63-bit low part of 2^63 - 8 and a
  // high part of 1. Its 173-bit host label must fail the bounds check, not
  // wrap it (both sides of l x l then share one buffer, and the code scan
  // would never stop).
  bits::BitWriter nca;
  nca.put_delta0(1);
  nca.put_delta0(0);
  nca.put_delta0(std::uint64_t{1} << 63);
  nca.put_bits((std::uint64_t{1} << 63) - 8, 63);
  nca.put_unary(1);
  nca.put_bits(0xA5, 8);
  bits::BitWriter w;
  w.put_delta0(5);
  w.put_delta0(nca.bit_count());
  w.append(nca.bits());
  const BitVec l = w.take();
  ASSERT_EQ(l.size(), 173u);
  for (const auto& [scheme, params] :
       {std::pair{"fgnw", ""}, {"alstrup", ""}, {"approx", "inv_eps=8"}}) {
    const auto s = serve::AnyScheme::make(scheme, params);
    EXPECT_THROW((void)s.query(l, l), bits::DecodeError) << scheme;
    EXPECT_THROW((void)s.query(*s.attach(l), *s.attach(l)), bits::DecodeError)
        << scheme;
  }
}

/// An FGNW label hand-assembled around a real NCA label: a root distance,
/// the NCA label, an empty fragment array, then one record per light level,
/// all empty except level `j`, which gets the given split counts (kept bits
/// all zero) and an accumulator of `acc` one bits.
BitVec fgnw_label(BitSpan nca_label, std::int32_t levels, std::int32_t j,
                  std::uint64_t pushed, std::uint64_t kept, std::size_t acc) {
  bits::BitWriter w;
  w.put_delta0(1000);
  w.put_delta0(nca_label.size());
  w.append(nca_label);
  (void)bits::MonotoneSeq::encode_to(w, {}, 1000);
  for (std::int32_t lvl = 1; lvl <= levels; ++lvl) {
    const bool here = lvl == j;
    w.put_bit(false);  // not exceptional
    w.put_gamma0(0);   // fragment 0
    w.put_gamma0(here ? pushed : 0);
    w.put_gamma0(here ? kept : 0);
    w.put_bits(0, here ? static_cast<int>(std::min<std::uint64_t>(kept, 64))
                       : 0);
    const std::size_t n = here ? acc : 0;
    w.put_gamma0(n);
    for (std::size_t i = 0; i < n; ++i) w.put_bit(true);
  }
  return w.take();
}

TEST(Fuzz, FgnwSplitCountsStayBelowWordWidth) {
  // Two real NCA labels that diverge below both nodes' own light levels:
  // the dominating label's level-j record claims a 64-bit push, which the
  // query would apply as a shift by 64.
  const auto t = tree::random_tree(400, 9);
  const tree::HeavyPathDecomposition hpd(t);
  const nca::NcaLabeling nl(hpd);
  std::optional<std::pair<tree::NodeId, tree::NodeId>> pair;
  for (tree::NodeId a = 0; a < t.size() && !pair; ++a)
    for (tree::NodeId b = 0; b < t.size() && !pair; ++b) {
      const auto r = nca::NcaLabeling::query(nl.label(a), nl.label(b));
      if (r.rel == nca::NcaResult::Rel::kDiverge &&
          hpd.light_depth(a) > r.lightdepth &&
          hpd.light_depth(b) > r.lightdepth)
        pair = {a, b};
    }
  ASSERT_TRUE(pair);
  const auto [u, v] = *pair;
  const nca::NcaResult res =
      nca::NcaLabeling::query(nl.label(u), nl.label(v));
  const std::int32_t j = res.lightdepth + 1;
  const tree::NodeId dom = res.u_first ? u : v;
  const tree::NodeId sub = res.u_first ? v : u;
  const auto label = [&](tree::NodeId x, std::uint64_t pushed,
                         std::uint64_t kept, std::size_t acc) {
    return fgnw_label(nl.label(x), hpd.light_depth(x), j, pushed, kept, acc);
  };
  const BitVec sub_l = label(sub, 0, 0, 64);
  const auto s = serve::AnyScheme::make("fgnw", "");
  const auto run = [&](const BitVec& dom_l) {
    const BitVec& lu = res.u_first ? dom_l : sub_l;
    const BitVec& lv = res.u_first ? sub_l : dom_l;
    (void)s.query(lu, lv);
    (void)s.query(*s.attach(lu), *s.attach(lv));
  };
  // The widest real split decodes: 63 pushed bits under one kept bit.
  EXPECT_NO_THROW(run(label(dom, 63, 1, 0)));
  EXPECT_THROW(run(label(dom, 64, 0, 0)), bits::DecodeError);
  EXPECT_THROW(run(label(dom, 10, 60, 0)), bits::DecodeError);
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
