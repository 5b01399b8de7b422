// Differential tests for the bits::kernels facade: every dispatch level the
// host supports must be bit-identical to the scalar reference on randomized
// and adversarial words (dense, sparse, single-bit, all-ones). The scalar
// level itself is checked against naive bit-by-bit oracles, and so is the
// one unary-run scanner (cross-word boundaries, all-zero/all-one runs,
// garbage bits past nbits), so a semantics drift cannot self-certify.
// These are the tests that must pass before any bench row attributed to
// the kernels is allowed to move.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <random>
#include <vector>

#include "bits/kernels.hpp"
#include "bits/wordops.hpp"

namespace {

namespace kernels = treelab::bits::kernels;
using kernels::Level;
using kernels::kNpos;

std::vector<Level> supported_levels() {
  std::vector<Level> out;
  for (const Level l : {Level::kScalar, Level::kPopcnt}) {
    if (kernels::supported(l)) out.push_back(l);
  }
  return out;
}

// Naive oracles: bit loops with no word-level tricks at all.
std::size_t naive_find_first_one(const std::vector<std::uint64_t>& words,
                                 std::size_t nbits, std::size_t from) {
  for (std::size_t i = from; i < nbits; ++i) {
    if ((words[i >> 6] >> (i & 63)) & 1u) return i;
  }
  return kNpos;
}

int naive_select_in_word(std::uint64_t w, int k) {
  for (int i = 0; i < 64; ++i) {
    if ((w >> i) & 1u) {
      if (k == 0) return i;
      --k;
    }
  }
  return -1;
}

int naive_popcount(std::uint64_t w) {
  int c = 0;
  for (int b = 0; b < 64; ++b) c += static_cast<int>((w >> b) & 1u);
  return c;
}

// Checks the scanner against the naive oracle on one input.
void check_find(const std::vector<std::uint64_t>& words, std::size_t nbits,
                std::size_t from) {
  EXPECT_EQ(kernels::find_first_one(words.data(), nbits, from),
            naive_find_first_one(words, nbits, from))
      << "nbits=" << nbits << " from=" << from;
}

TEST(Kernels, LevelReporting) {
  EXPECT_TRUE(kernels::supported(Level::kScalar));
  EXPECT_TRUE(kernels::supported(kernels::level()));
  EXPECT_STREQ(kernels::level_name(Level::kScalar), "scalar");
  EXPECT_STREQ(kernels::level_name(Level::kPopcnt), "popcnt");
  EXPECT_STREQ(kernels::level_name(), kernels::level_name(kernels::level()));
  EXPECT_EQ(kernels::ops().popcount(0xf0f0), 8);
  EXPECT_EQ(kernels::find_first_one(nullptr, 0, 0), kNpos);
}

TEST(Kernels, FindFirstOneSingleBitNearBoundaries) {
  // One set bit at p, probed from every interesting start position.
  for (const std::size_t p : {std::size_t{0}, std::size_t{1}, std::size_t{62},
                              std::size_t{63}, std::size_t{64}, std::size_t{65},
                              std::size_t{127}, std::size_t{128},
                              std::size_t{191}, std::size_t{255},
                              std::size_t{256}, std::size_t{319}}) {
    const std::size_t nbits = p + 7;
    std::vector<std::uint64_t> words((nbits + 63) / 64, 0);
    words[p >> 6] |= std::uint64_t{1} << (p & 63);
    for (std::size_t from = 0; from <= p + 2 && from <= nbits; ++from) {
      check_find(words, nbits, from);
    }
  }
}

TEST(Kernels, FindFirstOneZeroRunsAndEdges) {
  // Long all-zero runs, all-ones, and empty spans.
  for (const std::size_t nwords :
       {std::size_t{1}, std::size_t{2}, std::size_t{4}, std::size_t{5},
        std::size_t{9}, std::size_t{16}, std::size_t{33}}) {
    std::vector<std::uint64_t> zeros(nwords, 0);
    std::vector<std::uint64_t> ones(nwords, ~std::uint64_t{0});
    for (const std::size_t nbits :
         {nwords * 64, nwords * 64 - 1, nwords * 64 - 63}) {
      for (const std::size_t from :
           {std::size_t{0}, std::size_t{1}, std::size_t{63}, nbits / 2, nbits,
            nbits + 5}) {
        if (from > nbits && from != nbits + 5) continue;
        check_find(zeros, nbits, from);
        check_find(ones, nbits, from);
      }
      // A lone terminator in the very last live position.
      std::vector<std::uint64_t> tail(nwords, 0);
      tail[(nbits - 1) >> 6] |= std::uint64_t{1} << ((nbits - 1) & 63);
      check_find(tail, nbits, 0);
      check_find(tail, nbits, nbits - 1);
    }
  }
}

TEST(Kernels, FindFirstOneIgnoresBitsPastNbits) {
  // The contract masks the final word: set bits past nbits (a corrupt
  // mapping, or simply a caller handing a wider buffer) must not be found.
  for (const std::size_t nbits :
       {std::size_t{1}, std::size_t{5}, std::size_t{64}, std::size_t{65},
        std::size_t{130}, std::size_t{257}}) {
    std::vector<std::uint64_t> words((nbits + 63) / 64, 0);
    const std::size_t tail = nbits & 63;
    if (tail != 0) {
      // All garbage bits of the last word set, everything live zero.
      words.back() = ~treelab::bits::low_mask(static_cast<int>(tail));
    }
    for (std::size_t from = 0; from <= nbits; from += (nbits > 8 ? 7 : 1)) {
      check_find(words, nbits, from);
    }
  }
}

TEST(Kernels, FindFirstOneRandomDensities) {
  std::mt19937_64 rng(0x5eedULL);
  for (const double density : {0.5, 1.0 / 64, 1.0 / 512}) {
    std::bernoulli_distribution bit(density);
    for (int iter = 0; iter < 40; ++iter) {
      const std::size_t nbits = 1 + rng() % 2048;
      std::vector<std::uint64_t> words((nbits + 63) / 64, 0);
      for (std::size_t i = 0; i < nbits; ++i) {
        if (bit(rng)) words[i >> 6] |= std::uint64_t{1} << (i & 63);
      }
      for (int probes = 0; probes < 16; ++probes) {
        check_find(words, nbits, rng() % (nbits + 1));
      }
      check_find(words, nbits, 0);
    }
  }
}

TEST(Kernels, SelectInWordExhaustiveShapes) {
  // Single-bit words at every position, the all-ones word, and the
  // alternating patterns that stress the halving cascade.
  for (const Level l : supported_levels()) {
    for (int p = 0; p < 64; ++p) {
      EXPECT_EQ(kernels::select_in_word(l, std::uint64_t{1} << p, 0), p)
          << kernels::level_name(l);
    }
    for (int k = 0; k < 64; ++k) {
      EXPECT_EQ(kernels::select_in_word(l, ~std::uint64_t{0}, k), k)
          << kernels::level_name(l);
      EXPECT_EQ(kernels::select_in_word(l, 0x5555555555555555ull, k / 2),
                2 * (k / 2))
          << kernels::level_name(l);
    }
  }
}

TEST(Kernels, SelectInWordRandomDifferential) {
  std::mt19937_64 rng(0xfeedULL);
  for (int iter = 0; iter < 5000; ++iter) {
    // Mix dense and sparse words; skip zero (k < popcount precondition).
    std::uint64_t w = rng();
    if (iter % 3 == 1) w &= rng();
    if (iter % 3 == 2) w &= rng() & rng();
    if (w == 0) continue;
    const int pc = std::popcount(w);
    const int k = static_cast<int>(rng() % static_cast<unsigned>(pc));
    const int expect = naive_select_in_word(w, k);
    for (const Level l : supported_levels()) {
      EXPECT_EQ(kernels::select_in_word(l, w, k), expect)
          << kernels::level_name(l) << " w=" << w << " k=" << k;
    }
  }
}

TEST(Kernels, PopcountDifferential) {
  std::mt19937_64 rng(0xc0deULL);
  for (int iter = 0; iter < 5000; ++iter) {
    std::uint64_t w = rng();
    if (iter % 4 == 1) w &= rng() & rng();
    if (iter % 4 == 2) w = std::uint64_t{1} << (iter % 64);
    if (iter % 4 == 3) w = iter % 8 == 3 ? 0 : ~std::uint64_t{0};
    const int expect = naive_popcount(w);
    for (const Level l : supported_levels()) {
      EXPECT_EQ(kernels::popcount(l, w), expect)
          << kernels::level_name(l) << " w=" << w;
    }
  }
}

}  // namespace
