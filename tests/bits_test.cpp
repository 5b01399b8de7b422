// Unit and property tests for the bits substrate: BitVec, BitReader/Writer,
// Elias codes, alphabetic codes, and the Lemma 2.2 monotone sequence
// codec.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <span>
#include <stdexcept>
#include <vector>

#include "bits/alphabetic.hpp"
#include "bits/bitio.hpp"
#include "bits/bitvec.hpp"
#include "bits/monotone.hpp"
#include "bits/wordops.hpp"

namespace {

using namespace treelab::bits;

/// An encoding of `xs` in its own buffer, and the MonotoneSeq view of it.
struct Encoded {
  BitVec bits;
  MonotoneSeq seq;
};

Encoded encode(std::span<const std::uint64_t> xs, std::uint64_t universe) {
  BitWriter w;
  (void)MonotoneSeq::encode_to(w, xs, universe);
  Encoded out{w.take(), {}};
  BitReader r(out.bits);
  out.seq = MonotoneSeq::read_from(r);
  return out;  // moving the BitVec keeps its words where the view reads them
}

/// `base` copied behind `off` random bits and followed by `tail` bits of
/// ones, so a read past the copy's end sees ones rather than zero padding.
BitVec embed(BitSpan base, std::size_t off, std::size_t tail,
             std::mt19937_64& rng) {
  BitVec out;
  for (std::size_t i = 0; i < off; ++i) out.push_back((rng() & 1) != 0);
  out.append(base);
  for (std::size_t i = 0; i < tail; ++i) out.push_back(true);
  return out;
}

/// Codes at the edge of BitReader's one 64-bit peek: unary runs of 63, 64
/// and 65 zeros; gamma codes of exactly 63 and 65 bits (x = 2^31, 2^32);
/// delta codes of 64 and 65 bits (x = 2^53, 2^54) and one whose length
/// field alone is 13 bits (x = 2^63).
struct PeekEdge {
  enum Kind { kUnary, kGamma, kDelta } kind;
  std::uint64_t x;
};
constexpr PeekEdge kPeekEdges[] = {
    {PeekEdge::kUnary, 63},         {PeekEdge::kUnary, 64},
    {PeekEdge::kUnary, 65},         {PeekEdge::kGamma, 1ull << 31},
    {PeekEdge::kGamma, 1ull << 32}, {PeekEdge::kDelta, 1ull << 53},
    {PeekEdge::kDelta, 1ull << 54}, {PeekEdge::kDelta, 1ull << 63},
};

void put_edge(BitWriter& w, PeekEdge c) {
  if (c.kind == PeekEdge::kUnary) w.put_unary(c.x);
  if (c.kind == PeekEdge::kGamma) w.put_gamma(c.x);
  if (c.kind == PeekEdge::kDelta) w.put_delta(c.x);
}

std::uint64_t get_edge(BitReader& r, PeekEdge c) {
  if (c.kind == PeekEdge::kUnary) return r.get_unary();
  return c.kind == PeekEdge::kGamma ? r.get_gamma() : r.get_delta();
}

/// Lengths whose view, starting at bit `off` of a word, crosses exactly
/// 1, 2 and 3 word boundaries.
std::vector<std::size_t> crossing_lengths(std::size_t off,
                                          std::mt19937_64& rng) {
  std::vector<std::size_t> out;
  for (std::size_t c = 1; c <= 3; ++c)
    out.push_back(64 * c - off + 1 + rng() % 64);
  return out;
}

TEST(WordOps, Basics) {
  EXPECT_EQ(bitwidth(0), 0);
  EXPECT_EQ(bitwidth(1), 1);
  EXPECT_EQ(bitwidth(255), 8);
  EXPECT_EQ(bitwidth(256), 9);
  EXPECT_EQ(msb(1), 0);
  EXPECT_EQ(msb(0x8000000000000000ull), 63);
  EXPECT_EQ(lsb(8), 3);
  EXPECT_EQ(ceil_log2(1), 0);
  EXPECT_EQ(ceil_log2(2), 1);
  EXPECT_EQ(ceil_log2(3), 2);
  EXPECT_EQ(pow2_floor(1), 1u);
  EXPECT_EQ(pow2_floor(100), 64u);
  EXPECT_EQ(low_mask(0), 0u);
  EXPECT_EQ(low_mask(3), 7u);
  EXPECT_EQ(low_mask(64), ~0ull);
}

TEST(WordOps, CommonPrefix) {
  EXPECT_EQ(common_prefix_len(0b1010, 0b1010, 4), 4);
  EXPECT_EQ(common_prefix_len(0b1010, 0b1011, 4), 3);
  EXPECT_EQ(common_prefix_len(0b1010, 0b0010, 4), 0);
}

TEST(BitVec, PushAndGet) {
  BitVec v;
  for (int i = 0; i < 200; ++i) v.push_back(i % 3 == 0);
  ASSERT_EQ(v.size(), 200u);
  for (int i = 0; i < 200; ++i) EXPECT_EQ(v.get(i), i % 3 == 0) << i;
  EXPECT_THROW((void)v.at(200), std::out_of_range);
}

TEST(BitVec, AppendReadBitsRoundtrip) {
  std::mt19937_64 rng(1);
  BitVec v;
  std::vector<std::pair<std::uint64_t, int>> fields;
  for (int i = 0; i < 500; ++i) {
    const int w = static_cast<int>(rng() % 65);
    const std::uint64_t x = rng() & low_mask(w);
    fields.emplace_back(x, w);
    v.append_bits(x, w);
  }
  std::size_t pos = 0;
  for (auto [x, w] : fields) {
    EXPECT_EQ(v.read_bits(pos, w), x);
    pos += static_cast<std::size_t>(w);
  }
  EXPECT_EQ(pos, v.size());
}

TEST(BitVec, SliceAndEquality) {
  std::mt19937_64 rng(2);
  BitVec v;
  for (int i = 0; i < 300; ++i) v.push_back(rng() & 1);
  const BitVec s = v.slice(67, 130);
  for (std::size_t i = 0; i < 130; ++i) EXPECT_EQ(s.get(i), v.get(67 + i));
  BitVec w = v.slice(0, v.size());
  EXPECT_TRUE(w == v);
  w.set(5, !w.get(5));
  EXPECT_FALSE(w == v);
}

TEST(BitIo, UnaryGammaDeltaRoundtrip) {
  BitWriter w;
  std::vector<std::uint64_t> xs;
  std::mt19937_64 rng(4);
  for (int i = 0; i < 300; ++i) {
    std::uint64_t x = rng() >> (rng() % 60);
    xs.push_back(x);
    w.put_unary(x % 17);
    w.put_gamma(x + 1);
    w.put_delta(x + 1);
    w.put_gamma0(x % 1000);
    w.put_delta0(x);
  }
  const BitVec enc = w.take();
  BitReader r(enc);
  for (std::uint64_t x : xs) {
    EXPECT_EQ(r.get_unary(), x % 17);
    EXPECT_EQ(r.get_gamma(), x + 1);
    EXPECT_EQ(r.get_delta(), x + 1);
    EXPECT_EQ(r.get_gamma0(), x % 1000);
    EXPECT_EQ(r.get_delta0(), x);
  }
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(BitIo, TruncatedInputThrows) {
  BitWriter w;
  w.put_delta(123456789);
  BitVec enc = w.take();
  const BitVec cut = enc.slice(0, enc.size() - 3);
  BitReader r(cut);
  EXPECT_THROW((void)r.get_delta(), DecodeError);
}

TEST(BitIo, HugeLengthsThrowInsteadOfWrapping) {
  // A decoded length near 2^64 must fail the bounds check, not wrap it.
  constexpr std::size_t kHuge = ~std::size_t{0} - 1;
  const BitVec v(100);
  BitReader r(v);
  (void)r.get_bits(7);
  EXPECT_THROW((void)r.get_span(kHuge), DecodeError);
  EXPECT_THROW((void)r.get_bits(-2), DecodeError);  // requires 2^64 - 2 bits
  EXPECT_THROW(r.skip(kHuge), DecodeError);
  EXPECT_EQ(r.pos(), 7u);

  // A MonotoneSeq header claiming more elements than bits remain.
  BitWriter w;
  w.put_delta0(kHuge);
  w.put_delta0(1000);
  w.put_delta0(4);
  for (int i = 0; i < 200; ++i) w.put_bit(i % 3 == 0);
  const BitVec seq = w.take();
  BitReader rs(seq);
  EXPECT_THROW((void)MonotoneSeq::read_from(rs), DecodeError);
}

TEST(BitIo, GammaCodeLengths) {
  // gamma(x) = 2 floor(log x) + 1 bits.
  for (std::uint64_t x : {1ull, 2ull, 3ull, 4ull, 100ull, 1ull << 40}) {
    BitWriter w;
    w.put_gamma(x);
    EXPECT_EQ(w.bit_count(), 2 * static_cast<std::size_t>(msb(x)) + 1) << x;
  }
}

TEST(BitVec, MoveLeavesSourceEmpty) {
  BitVec v;
  for (int i = 0; i < 200; ++i) v.push_back(i % 3 == 0);
  const BitVec copy = v;
  BitVec moved = std::move(v);
  EXPECT_EQ(moved, copy);
  EXPECT_TRUE(v.empty());  // NOLINT(bugprone-use-after-move): contract test
  EXPECT_EQ(v.size(), 0u);
  v = std::move(moved);
  EXPECT_EQ(v, copy);
  EXPECT_TRUE(moved.empty());  // NOLINT(bugprone-use-after-move)
}

class MonotoneSeqParamTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::uint64_t>> {
};

TEST_P(MonotoneSeqParamTest, RoundtripAccessSuccessor) {
  const auto [s, m] = GetParam();
  std::mt19937_64 rng(s * 1000003 + m);
  const auto check = [&](const std::vector<std::uint64_t>& xs) {
    const Encoded e = encode(xs, m);
    const MonotoneSeq& seq = e.seq;
    ASSERT_EQ(seq.size(), s);
    EXPECT_EQ(seq.bit_size(), e.bits.size());
    for (std::size_t i = 0; i < s; ++i) EXPECT_EQ(seq.get(i), xs[i]) << i;
    if (s > 0) {
      EXPECT_EQ(seq.back(), seq.get(s - 1));
    } else {
      EXPECT_THROW((void)seq.back(), std::out_of_range);
    }
    // The encoding ends at the high vector's s-th one (or, at s = 0, at
    // the last header bit): a view one bit short of it does not parse.
    {
      BitReader cut(BitSpan(e.bits).subspan(0, e.bits.size() - 1));
      EXPECT_THROW((void)MonotoneSeq::read_from(cut), DecodeError);
    }

    // get and successor against naive, probing values around every
    // element, on the aligned encoding and on copies of it at every bit
    // offset 1-63 (so the high vector's words straddle the buffer's).
    const auto naive_succ = [&](std::uint64_t x) {
      for (std::size_t i = 0; i < s; ++i)
        if (xs[i] >= x) return i;
      return s;
    };
    std::vector<std::uint64_t> probes{0, m / 2, m, m + 1, ~std::uint64_t{0}};
    for (const std::uint64_t x : xs) {
      probes.push_back(x);
      if (x > 0) probes.push_back(x - 1);
      probes.push_back(x + 1);
    }
    std::vector<std::size_t> want;
    for (const std::uint64_t x : probes) want.push_back(naive_succ(x));
    for (std::size_t p = 0; p < probes.size(); ++p)
      EXPECT_EQ(seq.successor(probes[p]), want[p]) << "x=" << probes[p];
    for (std::size_t off = 1; off < 64; ++off) {
      const BitVec buf = embed(e.bits, off, 130, rng);
      BitReader r(BitSpan(buf).subspan(off, e.bits.size()));
      const MonotoneSeq at = MonotoneSeq::read_from(r);
      for (std::size_t i = 0; i < s; ++i)
        ASSERT_EQ(at.get(i), xs[i]) << "off=" << off << " i=" << i;
      if (s > 0) {
        ASSERT_EQ(at.back(), xs[s - 1]) << "off=" << off;
      }
      for (std::size_t p = 0; p < probes.size(); ++p)
        ASSERT_EQ(at.successor(probes[p]), want[p])
            << "off=" << off << " x=" << probes[p];
      // The stored bit after the short view is the s-th one itself.
      BitReader cut(BitSpan(buf).subspan(off, e.bits.size() - 1));
      ASSERT_THROW((void)MonotoneSeq::read_from(cut), DecodeError)
          << "off=" << off;
    }

    // Serialization roundtrip via a surrounding stream.
    BitWriter w;
    w.put_delta0(42);
    const std::size_t written = MonotoneSeq::encode_to(w, xs, m);
    w.put_delta0(99);
    const BitVec enc = w.take();
    BitReader r(enc);
    EXPECT_EQ(r.get_delta0(), 42u);
    const MonotoneSeq back = MonotoneSeq::read_from(r);
    EXPECT_EQ(r.get_delta0(), 99u);
    ASSERT_EQ(back.size(), s);
    EXPECT_EQ(back.bit_size(), written);
    for (std::size_t i = 0; i < s; ++i) EXPECT_EQ(back.get(i), xs[i]);
    if (s > 0) {
      EXPECT_EQ(back.back(), xs[s - 1]);
    }
  };

  std::vector<std::uint64_t> random(s);
  for (auto& x : random) x = m == 0 ? 0 : rng() % (m + 1);
  std::sort(random.begin(), random.end());
  {
    SCOPED_TRACE("random");
    check(random);
  }
  // s-1 zeros, then M: the high vector is s-1 ones, one long gap, and a
  // last one. At s = 150 and 500 with M >= 1000 the gap covers at least
  // one whole word, so the walk crosses a word that holds no ones.
  std::vector<std::uint64_t> clustered(s, 0);
  if (s > 0) clustered.back() = m;
  {
    SCOPED_TRACE("clustered");
    check(clustered);
  }
}

// The high vector holds s to 2s bits: one word for s <= 31, exactly 64
// bits at s = 64, M = 0 (65 at M = 1), two words at s = 100, M = 0, three
// at s = 150, M = 0 and four at s = 200, M = 0, so the word walk and
// read_from's popcount pass meet 1, 2, 3 and 4 words.
INSTANTIATE_TEST_SUITE_P(
    Sweep, MonotoneSeqParamTest,
    ::testing::Combine(::testing::Values<std::size_t>(0, 1, 2, 7, 31, 64, 100,
                                                      150, 200, 500),
                       ::testing::Values<std::uint64_t>(0, 1, 5, 63, 1000,
                                                        1u << 20)));

TEST(MonotoneSeq, SpaceBound) {
  // O(s * max(1, log(M/s))) bits, with a modest constant.
  const std::size_t s = 256;
  for (std::uint64_t m : {std::uint64_t{256}, std::uint64_t{1} << 16,
                          std::uint64_t{1} << 30}) {
    std::vector<std::uint64_t> xs(s);
    std::mt19937_64 rng(m);
    for (auto& x : xs) x = rng() % (m + 1);
    std::sort(xs.begin(), xs.end());
    const Encoded e = encode(xs, m);
    const double per = static_cast<double>(e.seq.bit_size()) / s;
    const double bound =
        4.0 * std::max(1.0, std::log2(static_cast<double>(m) / s)) + 8;
    EXPECT_LE(per, bound) << "m=" << m;
  }
}

TEST(MonotoneSeq, LcsOfPrefixes) {
  const std::vector<std::uint64_t> a{1, 3, 3, 7, 9, 12};
  const std::vector<std::uint64_t> b{0, 3, 3, 7, 9, 12};
  const Encoded ea = encode(a, 20);
  const Encoded eb = encode(b, 20);
  const MonotoneSeq& sa = ea.seq;
  const MonotoneSeq& sb = eb.seq;
  // Full prefixes share suffix 3,3,7,9,12 (5 elements).
  EXPECT_EQ(lcs_of_prefixes(sa, 6, sb, 6), 5u);
  // Prefixes of length 4: a=1,3,3,7 b=0,3,3,7 -> common suffix 3.
  EXPECT_EQ(lcs_of_prefixes(sa, 4, sb, 4), 3u);
  EXPECT_EQ(lcs_of_prefixes(sa, 6, sa, 6), 6u);
  EXPECT_EQ(lcs_of_prefixes(sa, 0, sb, 3), 0u);
}

TEST(MonotoneSeq, RejectsBadInput) {
  BitWriter w;
  const std::vector<std::uint64_t> decreasing{3, 1};
  EXPECT_THROW((void)MonotoneSeq::encode_to(w, decreasing, 10),
               std::invalid_argument);
  const std::vector<std::uint64_t> above{3, 11};
  EXPECT_THROW((void)MonotoneSeq::encode_to(w, above, 10),
               std::invalid_argument);
}

TEST(MonotoneSeq, ParsesInPlaceAtAnyOffset) {
  // A sequence embedded at every bit offset reads the same as the aligned
  // one, and its reader stops exactly at the encoding's end. Over M = 5000
  // the high vector of s elements holds up to 2s bits: 20, 80, 180 and 240
  // at s = 10, 40, 90 and 120, one to four words' worth.
  std::mt19937_64 rng(21);
  for (const std::size_t s : {10u, 40u, 90u, 120u}) {
    std::vector<std::uint64_t> xs(s);
    for (auto& x : xs) x = rng() % 5000;
    std::sort(xs.begin(), xs.end());
    const Encoded e = encode(xs, 5000);
    for (std::size_t off = 0; off < 64; ++off) {
      const BitVec buf = embed(e.bits, off, 130, rng);
      BitReader r(BitSpan(buf).subspan(off, e.bits.size()));
      const MonotoneSeq seq = MonotoneSeq::read_from(r);
      EXPECT_EQ(r.remaining(), 0u) << off;
      ASSERT_EQ(seq.size(), xs.size());
      for (std::size_t i = 0; i < xs.size(); ++i)
        ASSERT_EQ(seq.get(i), xs[i]) << "off=" << off << " i=" << i;
      ASSERT_EQ(seq.back(), seq.get(s - 1)) << "off=" << off;
      // A view ending one bit before the s-th one, which the buffer still
      // holds right after it, does not parse.
      BitReader cut(BitSpan(buf).subspan(off, e.bits.size() - 1));
      EXPECT_THROW((void)MonotoneSeq::read_from(cut), DecodeError)
          << "s=" << s << " off=" << off;
    }
  }
}

TEST(BitSpan, SubspanReadsWhatSliceReads) {
  std::mt19937_64 rng(31);
  BitVec base;
  for (int i = 0; i < 64 * 6; ++i) base.push_back((rng() & 1) != 0);
  for (std::size_t off = 0; off < 64; ++off) {
    for (const std::size_t len : crossing_lengths(off, rng)) {
      const BitSpan view = BitSpan(base).subspan(off, len);
      const BitVec ref = base.slice(off, len);
      ASSERT_EQ(view.size(), len);
      EXPECT_EQ(view.offset(), off);
      for (std::size_t i = 0; i < len; ++i)
        ASSERT_EQ(view.get(i), base.get(off + i)) << off << " " << i;
      for (std::size_t pos = 0; pos < len; pos += 1 + rng() % 9) {
        const int w = static_cast<int>(
            std::min<std::size_t>(len - pos, 1 + rng() % 64));
        ASSERT_EQ(view.read_bits(pos, w), ref.read_bits(pos, w))
            << "off=" << off << " len=" << len << " pos=" << pos;
      }
      EXPECT_TRUE(view == ref);
      // A view of a view composes offsets.
      const BitSpan inner = view.subspan(len / 3, len / 3);
      EXPECT_TRUE(inner == base.slice(off + len / 3, len / 3));
    }
  }
}

TEST(BitSpan, ReaderWalksEliasCodesAtAnyOffset) {
  std::mt19937_64 rng(32);
  for (const std::size_t target : {70u, 140u, 200u}) {
    BitWriter w;
    std::vector<std::uint64_t> xs;
    while (w.bit_count() < target) {
      const std::uint64_t x = rng() >> (rng() % 62);
      xs.push_back(x);
      w.put_unary(x % 9);
      w.put_gamma0(x % 5000);
      w.put_delta0(x);
    }
    for (const PeekEdge c : kPeekEdges) put_edge(w, c);
    const BitVec codes = w.take();
    for (std::size_t off = 0; off < 64; ++off) {
      const BitVec buf = embed(codes, off, 70, rng);
      BitReader r(BitSpan(buf).subspan(off, codes.size()));
      for (const std::uint64_t x : xs) {
        ASSERT_EQ(r.get_unary(), x % 9) << off;
        ASSERT_EQ(r.get_gamma0(), x % 5000) << off;
        ASSERT_EQ(r.get_delta0(), x) << off;
      }
      for (const PeekEdge c : kPeekEdges)
        ASSERT_EQ(get_edge(r, c), c.x) << "off=" << off << " x=" << c.x;
      EXPECT_EQ(r.remaining(), 0u);
      EXPECT_THROW((void)r.get_bit(), DecodeError);
    }
  }
  // Each edge code alone decodes at every offset, and cut one bit short
  // it throws, although the bits after the view (its own last bit, then
  // ones) would complete it.
  for (const PeekEdge c : kPeekEdges) {
    BitWriter w;
    put_edge(w, c);
    const BitVec code = w.take();
    for (std::size_t off = 0; off < 64; ++off) {
      const BitVec buf = embed(code, off, 70, rng);
      BitReader whole(BitSpan(buf).subspan(off, code.size()));
      ASSERT_EQ(get_edge(whole, c), c.x) << "off=" << off;
      EXPECT_EQ(whole.remaining(), 0u);
      BitReader cut(BitSpan(buf).subspan(off, code.size() - 1));
      EXPECT_THROW((void)get_edge(cut, c), DecodeError)
          << "off=" << off << " x=" << c.x;
    }
  }
}

TEST(BitSpan, UnaryStopsAtViewEnd) {
  // The bit right after the view is a one; a unary run of zeros up to the
  // view's end is truncated input, not a code ending at that stored one.
  // Lengths 64-66 close runs of 63-65 zeros, at the edge of one peek;
  // 63-65 are those runs cut one bit short.
  std::mt19937_64 rng(33);
  for (std::size_t off = 0; off < 64; ++off) {
    std::vector<std::size_t> lens = crossing_lengths(off, rng);
    lens.insert(lens.end(), {63, 64, 65, 66});
    for (const std::size_t len : lens) {
      const BitVec zeros(len);
      const BitVec buf = embed(zeros, off, 64, rng);
      BitReader r(BitSpan(buf).subspan(off, len));
      EXPECT_THROW((void)r.get_unary(), DecodeError)
          << "off=" << off << " len=" << len;
      // The same run closed by the view's own last bit decodes.
      BitVec closed(len);
      closed.set(len - 1, true);
      const BitVec buf2 = embed(closed, off, 64, rng);
      BitReader r2(BitSpan(buf2).subspan(off, len));
      EXPECT_EQ(r2.get_unary(), len - 1);
    }
  }
}

TEST(BitSpan, OwningCopyOfUnalignedViewHasNoStrayBits) {
  std::mt19937_64 rng(34);
  BitVec base;
  for (int i = 0; i < 64 * 5; ++i) base.push_back((rng() & 1) != 0);
  for (std::size_t off = 0; off < 64; ++off) {
    for (const std::size_t len : crossing_lengths(off, rng)) {
      const BitVec buf = embed(base.slice(0, len), off, 128, rng);
      BitVec copy = BitSpan(buf).subspan(off, len);
      EXPECT_EQ(copy, base.slice(0, len)) << off;
      // The bits after the view were ones; none may leak into the copy.
      copy.append_bits(0, 64);
      copy.push_back(false);
      EXPECT_EQ(copy.size(), len + 65);
      EXPECT_EQ(copy.read_bits(len, 64), 0u) << "off=" << off;
      EXPECT_FALSE(copy.get(len + 64));
    }
  }
}

TEST(Alphabetic, PrefixFreeAndOrdered) {
  std::mt19937_64 rng(6);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t m = 1 + rng() % 40;
    std::vector<std::uint64_t> w(m);
    for (auto& x : w) x = 1 + rng() % 1000;
    const auto codes = alphabetic_code(w);
    ASSERT_EQ(codes.size(), m);
    std::uint64_t total = 0;
    for (auto x : w) total += x;
    for (std::size_t i = 0; i < m; ++i) {
      // Length bound: ceil(log2(W/w_i)) + 1.
      EXPECT_LE(codes[i].len,
                ceil_log2((total + w[i] - 1) / w[i]) + 1);
      for (std::size_t j = i + 1; j < m; ++j) {
        // Prefix-freeness and order preservation, via MSB-first strings.
        const auto str = [](const Codeword& c) {
          std::string s;
          for (int b = c.len - 1; b >= 0; --b)
            s.push_back(((c.bits >> b) & 1) ? '1' : '0');
          return s;
        };
        const std::string si = str(codes[i]), sj = str(codes[j]);
        EXPECT_NE(si.substr(0, std::min(si.size(), sj.size())),
                  sj.substr(0, std::min(si.size(), sj.size())))
            << "prefix collision " << i << "," << j;
        EXPECT_LT(si, sj) << "order violated";
      }
    }
  }
}

TEST(Alphabetic, SingleSymbol) {
  const std::vector<std::uint64_t> w{7};
  const auto codes = alphabetic_code(w);
  ASSERT_EQ(codes.size(), 1u);
  EXPECT_EQ(codes[0].len, 1);
}

TEST(Alphabetic, RejectsBadInput) {
  EXPECT_THROW((void)alphabetic_code({}), std::invalid_argument);
  const std::vector<std::uint64_t> zero{1, 0, 2};
  EXPECT_THROW((void)alphabetic_code(zero), std::invalid_argument);
}

}  // namespace
