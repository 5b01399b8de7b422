// approx_tradeoff — the (1+eps) size/accuracy frontier (Theorem 1.4).
//
// Scenario: a content hierarchy (deep category tree) where a recommender
// needs fast "semantic distance" between items but only approximately.
// Sweep eps, measure label size with both encodings (this paper's Lemma 2.2
// codes vs the prior unary codes) and the worst observed error, printing
// the frontier a practitioner would choose from.
#include <algorithm>
#include <cstdio>
#include <random>

#include "core/approx_scheme.hpp"
#include "core/fgnw_scheme.hpp"
#include "tree/generators.hpp"
#include "tree/nca_index.hpp"

using namespace treelab;
using core::ApproxScheme;

int main() {
  // A deep, skewed category tree: windowed random attachment.
  const tree::Tree t = tree::random_windowed_tree(1 << 15, 40, 99);
  const tree::NcaIndex oracle(t);
  std::printf("category tree: %d nodes\n\n", t.size());

  const core::FgnwScheme exact(t);
  std::printf("exact baseline: %zu bits/label (max)\n\n",
              exact.stats().max_bits);

  std::printf("%-10s %-12s %-12s %-12s %-12s\n", "eps", "mono_bits",
              "unary_bits", "saving", "worst_err");
  std::mt19937_64 rng(5);
  std::uniform_int_distribution<tree::NodeId> pick(0, t.size() - 1);
  for (double eps : {1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125, 0.015625}) {
    const ApproxScheme mono(t, eps, ApproxScheme::Encoding::kMonotone);
    const ApproxScheme unary(t, eps, ApproxScheme::Encoding::kUnary);
    double worst = 0;
    for (int i = 0; i < 30000; ++i) {
      const tree::NodeId u = pick(rng), v = pick(rng);
      const auto d = oracle.distance(u, v);
      if (d == 0) continue;
      const auto est = ApproxScheme::query(mono.powers(), mono.label(u),
                                           mono.label(v));
      worst = std::max(
          worst, static_cast<double>(est) / static_cast<double>(d) - 1.0);
    }
    std::printf("%-10.5f %-12zu %-12zu %-11.1f%% %-12.4f\n", eps,
                mono.stats().max_bits, unary.stats().max_bits,
                100.0 * (1.0 - static_cast<double>(mono.stats().max_bits) /
                                   static_cast<double>(exact.stats().max_bits)),
                worst);
  }
  std::printf(
      "\nmono_bits grows ~log(1/eps): halving eps costs a constant number "
      "of bits, while the unary encoding doubles. Every observed error is "
      "within its eps budget.\n");
  return 0;
}
