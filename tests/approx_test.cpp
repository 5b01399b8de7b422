// ApproxScheme (Section 5): every answer must lie in [d, (1+eps) d], for
// both encodings, across eps values, shapes and weighted trees.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "core/approx_scheme.hpp"
#include "tree/generators.hpp"
#include "tree/nca_index.hpp"

namespace {

using namespace treelab;
using core::ApproxScheme;
using core::RoundUpTable;

void expect_approx(const tree::Tree& t, double eps,
                   ApproxScheme::Encoding enc) {
  const ApproxScheme s(t, eps, enc);
  const tree::NcaIndex oracle(t);
  for (tree::NodeId u = 0; u < t.size(); ++u)
    for (tree::NodeId v = 0; v < t.size(); ++v) {
      const std::uint64_t got =
          ApproxScheme::query(s.powers(), s.label(u), s.label(v));
      const std::uint64_t want = oracle.distance(u, v);
      ASSERT_GE(got, want) << "u=" << u << " v=" << v << " eps=" << eps;
      ASSERT_LE(static_cast<double>(got),
                (1.0 + eps) * static_cast<double>(want) + 1e-9)
          << "u=" << u << " v=" << v << " eps=" << eps << " d=" << want;
    }
}

TEST(Approx, RandomMonotone) {
  for (double eps : {1.0, 0.5, 0.25, 0.1, 0.03125})
    for (std::uint64_t seed = 0; seed < 3; ++seed)
      expect_approx(tree::random_tree(60, seed), eps,
                    ApproxScheme::Encoding::kMonotone);
}

TEST(Approx, RandomUnary) {
  for (double eps : {1.0, 0.5, 0.125})
    for (std::uint64_t seed = 0; seed < 3; ++seed)
      expect_approx(tree::random_tree(60, seed), eps,
                    ApproxScheme::Encoding::kUnary);
}

TEST(Approx, Shapes) {
  for (const auto& shape : tree::standard_shapes())
    expect_approx(shape.make(64, 5), 0.2, ApproxScheme::Encoding::kMonotone);
}

TEST(Approx, Weighted) {
  expect_approx(tree::hm_tree(4, 32, 11), 0.25,
                ApproxScheme::Encoding::kMonotone);
}

/// (1+eps/2)^e by the formula every table entry must equal.
long double pow_formula(double eps, std::uint32_t e) {
  return std::pow(1.0L + static_cast<long double>(eps / 2),
                  static_cast<long double>(e));
}

/// Smallest e with pow_formula(eps, e) >= x, by a plain upward walk.
std::uint32_t exp_formula(double eps, std::uint64_t x) {
  std::uint32_t e = 0;
  while (pow_formula(eps, e) < static_cast<long double>(x)) ++e;
  return e;
}

TEST(Approx, PowerTableHoldsThePowFormula) {
  // At eps = 1/8 the table runs to the first power >= 2^64 ...
  const RoundUpTable eighth(0.125);
  ASSERT_EQ(eighth.size(), 733u);
  EXPECT_LT(eighth.power(731), 0x1p64L);
  EXPECT_GE(eighth.power(732), 0x1p64L);
  // ... and tiny eps hits the cap (64 KB).
  EXPECT_EQ(RoundUpTable(1.0 / 128).size(), RoundUpTable::kMaxEntries);
  for (const double eps : {1.0, 0.125, 1.0 / 128, 1.0 / 1024}) {
    const RoundUpTable table(eps);
    ASSERT_LE(table.size(), RoundUpTable::kMaxEntries);
    const auto last = static_cast<std::uint32_t>(table.size() - 1);
    for (const std::uint32_t e : {0u, 1u, last - 1, last, last + 1,
                                  last + 1000, 100000u})
      EXPECT_EQ(table.power(e), pow_formula(eps, e)) << eps << " e=" << e;
  }
}

TEST(Approx, ExponentsAtAndPastTheTableCap) {
  // A light weighted path of reach D hangs off the root beside a heavier
  // unit path: the light bottom node x dominates every query with a heavy
  // path node y, so the answer is 2 (1+eps/2)^e + rd(y) - D with e the
  // rounding exponent of D. At eps = 1/128 the table is capped, so D can
  // round to its last entry or past it.
  const double eps = 1.0 / 128;
  const RoundUpTable table(eps);
  const auto last = static_cast<std::uint32_t>(table.size() - 1);
  const auto floor_power = [&](std::uint32_t e) {
    return static_cast<std::uint64_t>(std::floor(pow_formula(eps, e)));
  };
  const std::uint64_t kMaxW = std::numeric_limits<std::uint32_t>::max();
  for (const std::uint64_t reach :
       {floor_power(last), floor_power(last + 40), 3 * kMaxW}) {
    const std::uint32_t e = exp_formula(eps, reach);
    if (reach == floor_power(last)) {
      ASSERT_EQ(e, last);
    } else {
      ASSERT_GT(e, last);
    }
    EXPECT_EQ(table.round_up_exp(reach), e);
    // Light path: edges of at most 2^32 - 1 summing to `reach`.
    std::vector<std::uint64_t> light;
    for (std::uint64_t left = reach; left > 0; left -= light.back())
      light.push_back(std::min(left, kMaxW));
    const auto heavy = static_cast<tree::NodeId>(light.size() + 1);
    std::vector<tree::NodeId> parent{tree::kNoNode};
    std::vector<std::uint32_t> weight{0};
    for (tree::NodeId i = 0; i < heavy; ++i) {
      parent.push_back(i);  // heavy path 1..heavy under the root
      weight.push_back(1);
    }
    for (std::size_t i = 0; i < light.size(); ++i) {
      const auto prev = static_cast<tree::NodeId>(parent.size() - 1);
      parent.push_back(i == 0 ? 0 : prev);
      weight.push_back(static_cast<std::uint32_t>(light[i]));
    }
    const tree::Tree t(parent, weight);
    const auto x = static_cast<tree::NodeId>(t.size() - 1);
    ASSERT_EQ(t.root_distance(x), reach);
    const tree::NcaIndex oracle(t);
    for (const auto enc :
         {ApproxScheme::Encoding::kMonotone, ApproxScheme::Encoding::kUnary}) {
      const ApproxScheme s(t, eps, enc);
      const auto ax = ApproxScheme::attach(s.label(x));
      for (tree::NodeId y = 1; y <= heavy; ++y) {
        const std::uint64_t want = static_cast<std::uint64_t>(std::floor(
            2.0L * pow_formula(eps, e) +
            (static_cast<long double>(t.root_distance(y)) -
             static_cast<long double>(reach))));
        const std::uint64_t d = oracle.distance(x, y);
        EXPECT_EQ(ApproxScheme::query(s.powers(), s.label(x), s.label(y)),
                  want);
        EXPECT_EQ(ApproxScheme::query(s.powers(), s.label(y), s.label(x)),
                  want);
        EXPECT_EQ(ApproxScheme::query(s.powers(), ax,
                                      ApproxScheme::attach(s.label(y))),
                  want);
        EXPECT_GE(want, d) << "reach=" << reach << " y=" << y;
        EXPECT_LE(static_cast<long double>(want),
                  (1.0L + eps) * static_cast<long double>(d))
            << "reach=" << reach << " y=" << y;
      }
    }
  }
}

TEST(Approx, MonotoneBeatsUnaryForSmallEps) {
  const auto t = tree::random_tree(4096, 7);
  const ApproxScheme mono(t, 1.0 / 64, ApproxScheme::Encoding::kMonotone);
  const ApproxScheme unary(t, 1.0 / 64, ApproxScheme::Encoding::kUnary);
  EXPECT_LT(mono.stats().max_bits, unary.stats().max_bits);
}

TEST(Approx, RejectsBadEps) {
  EXPECT_THROW(ApproxScheme(tree::path(4), 0.0), std::invalid_argument);
  EXPECT_THROW(ApproxScheme(tree::path(4), 1.5), std::invalid_argument);
}

}  // namespace
