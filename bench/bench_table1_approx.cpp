// T1-approx — the "Approximate" row of the summary table:
// Theta(log(1/eps) * log n) with the Lemma 2.2 encoding, vs the
// Theta(1/eps * log n) unary encoding of [ICALP'16] (the paper's explicit
// improvement in Section 5.2). Also verifies measured approximation quality.
#include <algorithm>
#include <vector>

#include "bench_util.hpp"
#include "core/approx_scheme.hpp"
#include "tree/generators.hpp"
#include "tree/nca_index.hpp"

using namespace treelab;
using bench::num;
using bench::row;
using core::ApproxScheme;

int main() {
  std::printf("== T1-approx: (1+eps)-approximate labels (bits) ==\n");
  row({"workload", "eps^-1", "mono_max", "unary_max", "ratio",
       "lg(1/e)lgn", "(1/e)lgn", "worst_err"});
  for (int lg : {12, 15}) {
    const tree::NodeId n = tree::NodeId{1} << lg;
    const tree::Tree t = tree::random_tree(n, 7);
    const tree::NcaIndex oracle(t);
    for (int inv_eps : {1, 4, 16, 64, 256, 1024}) {
      const double eps = 1.0 / inv_eps;
      const ApproxScheme mono(t, eps, ApproxScheme::Encoding::kMonotone);
      const ApproxScheme unary(t, eps, ApproxScheme::Encoding::kUnary);
      // Measured worst-case relative error over a sample of pairs.
      double worst = 0;
      for (tree::NodeId u = 0; u < t.size(); u += 97)
        for (tree::NodeId v = 1; v < t.size(); v += 89) {
          const auto d = oracle.distance(u, v);
          if (d == 0) continue;
          const auto got =
              ApproxScheme::query(mono.powers(), mono.label(u), mono.label(v));
          worst = std::max(worst, static_cast<double>(got) /
                                      static_cast<double>(d) - 1.0);
        }
      const double lgn = bench::log2d(static_cast<double>(n));
      row({"random/n=2^" + std::to_string(lg), num(inv_eps),
           num(mono.stats().max_bits), num(unary.stats().max_bits),
           num(static_cast<double>(unary.stats().max_bits) /
                   static_cast<double>(mono.stats().max_bits),
               2),
           num(std::log2(1.0 + inv_eps) * lgn, 0),
           num(inv_eps * lgn, 0), num(worst, 4)});
    }
  }
  // Section 5.1 lower-bound instance: on the eps-stretched subdivision of
  // an (h,M)-tree, leaf distances are spread so that (1+eps)-approximate
  // answers determine the exact (h,M)-tree distance — we verify that the
  // scheme's answers, snapped to the nearest realizable distance, are exact.
  std::printf("\n-- S5.1 stretched instances: approximate answers recover "
              "exact distances --\n");
  row({"instance", "n_stretched", "leaf_dists", "recovered"});
  for (const auto& [h, m, eps] :
       std::vector<std::tuple<int, std::uint32_t, double>>{
           {2, 3, 0.5}, {3, 3, 0.5}, {3, 4, 0.25}}) {
    // Explicit split weights in [1, M) so no weight-0 edge contracts a leaf.
    std::vector<std::uint32_t> xs((std::size_t{1} << h) - 1);
    for (std::size_t i = 0; i < xs.size(); ++i)
      xs[i] = 1 + static_cast<std::uint32_t>(i % (m - 1));
    const tree::Tree base = tree::hm_tree_explicit(h, m, xs);
    const tree::Tree s = tree::stretch(base, eps);
    const tree::NcaIndex oracle(s);
    std::vector<tree::NodeId> leaves;
    for (tree::NodeId v = 0; v < s.size(); ++v)
      if (s.is_leaf(v)) leaves.push_back(v);
    std::vector<std::uint64_t> dists;  // realizable leaf distances
    for (auto a : leaves)
      for (auto b : leaves)
        if (a != b) dists.push_back(oracle.distance(a, b));
    std::sort(dists.begin(), dists.end());
    dists.erase(std::unique(dists.begin(), dists.end()), dists.end());
    const ApproxScheme scheme(s, eps);
    std::size_t ok = 0, total = 0;
    for (auto a : leaves)
      for (auto b : leaves) {
        if (a == b) continue;
        const auto est = ApproxScheme::query(scheme.powers(), scheme.label(a),
                                             scheme.label(b));
        // Snap: the unique realizable d with d <= est <= (1+eps) d.
        std::uint64_t snapped = 0;
        for (auto d : dists)
          if (d <= est &&
              static_cast<double>(est) <= (1 + eps) * static_cast<double>(d))
            snapped = d;
        ok += snapped == oracle.distance(a, b);
        ++total;
      }
    row({"(h=" + std::to_string(h) + ",M=" + std::to_string(m) +
             ",e=" + num(eps, 2) + ")",
         num(static_cast<std::size_t>(s.size())), num(dists.size()),
         num(ok) + "/" + num(total)});
  }
  std::printf(
      "\nshape check: mono_max grows ~log(1/eps) while unary_max grows "
      "~1/eps; worst_err <= eps everywhere; on stretched instances every "
      "approximate answer snaps back to the exact distance (the Section 5.1 "
      "reduction).\n");
  return 0;
}
