// Tests for the unary-run scanner bits::kernels::find_first_one against a
// naive bit-loop oracle: single bits near word boundaries, long all-zero
// and all-one runs, garbage bits past nbits, and random densities. Also
// pins the constant level the bench provenance reports.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "bits/kernels.hpp"
#include "bits/wordops.hpp"

namespace {

namespace kernels = treelab::bits::kernels;
using kernels::kNpos;

// Naive oracle: a bit loop with no word-level tricks at all.
std::size_t naive_find_first_one(const std::vector<std::uint64_t>& words,
                                 std::size_t nbits, std::size_t from) {
  for (std::size_t i = from; i < nbits; ++i) {
    if ((words[i >> 6] >> (i & 63)) & 1u) return i;
  }
  return kNpos;
}

// Checks the scanner against the naive oracle on one input.
void check_find(const std::vector<std::uint64_t>& words, std::size_t nbits,
                std::size_t from) {
  EXPECT_EQ(kernels::find_first_one(words.data(), nbits, from),
            naive_find_first_one(words, nbits, from))
      << "nbits=" << nbits << " from=" << from;
}

TEST(Kernels, LevelReporting) {
  EXPECT_EQ(kernels::level(), 0);
  EXPECT_STREQ(kernels::level_name(), "scalar");
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

}  // namespace
