// Unit and property tests for the bits substrate: BitVec, BitReader/Writer,
// Elias codes, alphabetic codes, in-word select, and the Lemma 2.2
// monotone sequence codec.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "bits/alphabetic.hpp"
#include "bits/bitio.hpp"
#include "bits/bitvec.hpp"
#include "bits/monotone.hpp"
#include "bits/wordops.hpp"

namespace {

using namespace treelab::bits;

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
  EXPECT_THROW((void)r.get_vec(kHuge), DecodeError);
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

TEST(WordOps, SelectInWord) {
  std::mt19937_64 rng(11);
  for (int trial = 0; trial < 200; ++trial) {
    const std::uint64_t w = rng() & rng();  // varied density
    int k = 0;
    for (int i = 0; i < 64; ++i) {
      if ((w >> i) & 1) {
        EXPECT_EQ(select_in_word(w, k++), i) << w;
      }
    }
  }
  EXPECT_EQ(select_in_word(1, 0), 0);
  EXPECT_EQ(select_in_word(std::uint64_t{1} << 63, 0), 63);
  EXPECT_EQ(select_in_word(~std::uint64_t{0}, 63), 63);
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
  std::vector<std::uint64_t> xs(s);
  for (auto& x : xs) x = m == 0 ? 0 : rng() % (m + 1);
  std::sort(xs.begin(), xs.end());

  const MonotoneSeq seq = MonotoneSeq::encode(xs, m);
  ASSERT_EQ(seq.size(), s);
  for (std::size_t i = 0; i < s; ++i) EXPECT_EQ(seq.get(i), xs[i]) << i;

  // Successor against naive, probing values around every element.
  const auto naive_succ = [&](std::uint64_t x) {
    for (std::size_t i = 0; i < s; ++i)
      if (xs[i] >= x) return i;
    return s;
  };
  for (std::uint64_t probe : {std::uint64_t{0}, m / 2, m}) {
    EXPECT_EQ(seq.successor(probe), naive_succ(probe));
  }
  for (std::size_t i = 0; i < s; ++i) {
    EXPECT_EQ(seq.successor(xs[i]), naive_succ(xs[i]));
    if (xs[i] > 0) {
      EXPECT_EQ(seq.successor(xs[i] - 1), naive_succ(xs[i] - 1));
    }
    EXPECT_EQ(seq.successor(xs[i] + 1), naive_succ(xs[i] + 1));
  }

  // Serialization roundtrip via a surrounding stream.
  BitWriter w;
  w.put_delta0(42);
  seq.write_to(w);
  w.put_delta0(99);
  const BitVec enc = w.take();
  BitReader r(enc);
  EXPECT_EQ(r.get_delta0(), 42u);
  const MonotoneSeq back = MonotoneSeq::read_from(r);
  EXPECT_EQ(r.get_delta0(), 99u);
  ASSERT_EQ(back.size(), s);
  for (std::size_t i = 0; i < s; ++i) EXPECT_EQ(back.get(i), xs[i]);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MonotoneSeqParamTest,
    ::testing::Combine(::testing::Values<std::size_t>(0, 1, 2, 7, 31, 100, 500),
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
    const MonotoneSeq seq = MonotoneSeq::encode(xs, m);
    const double per = static_cast<double>(seq.bit_size()) / s;
    const double bound =
        4.0 * std::max(1.0, std::log2(static_cast<double>(m) / s)) + 8;
    EXPECT_LE(per, bound) << "m=" << m;
  }
}

TEST(MonotoneSeq, LcsOfPrefixes) {
  const std::vector<std::uint64_t> a{1, 3, 3, 7, 9, 12};
  const std::vector<std::uint64_t> b{0, 3, 3, 7, 9, 12};
  const MonotoneSeq sa = MonotoneSeq::encode(a, 20);
  const MonotoneSeq sb = MonotoneSeq::encode(b, 20);
  // Full prefixes share suffix 3,3,7,9,12 (5 elements).
  EXPECT_EQ(MonotoneSeq::lcs_of_prefixes(sa, 6, sb, 6), 5u);
  // Prefixes of length 4: a=1,3,3,7 b=0,3,3,7 -> common suffix 3.
  EXPECT_EQ(MonotoneSeq::lcs_of_prefixes(sa, 4, sb, 4), 3u);
  EXPECT_EQ(MonotoneSeq::lcs_of_prefixes(sa, 6, sa, 6), 6u);
  EXPECT_EQ(MonotoneSeq::lcs_of_prefixes(sa, 0, sb, 3), 0u);
}

TEST(MonotoneSeq, RejectsBadInput) {
  const std::vector<std::uint64_t> decreasing{3, 1};
  EXPECT_THROW((void)MonotoneSeq::encode(decreasing, 10),
               std::invalid_argument);
  const std::vector<std::uint64_t> above{3, 11};
  EXPECT_THROW((void)MonotoneSeq::encode(above, 10), std::invalid_argument);
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
