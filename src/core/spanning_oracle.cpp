#include "core/spanning_oracle.hpp"

#include <algorithm>
#include <numeric>
#include <optional>
#include <random>
#include <stdexcept>

#include "bits/bitio.hpp"
#include "core/fgnw_scheme.hpp"
#include "core/tree_scaffold.hpp"
#include "util/parallel.hpp"

namespace treelab::core {

using bits::BitReader;
using bits::BitSpan;
using bits::BitWriter;
using bits::LabelArena;
using tree::Graph;
using tree::NodeId;

SpanningOracle::SpanningOracle(const Graph& g, int landmarks,
                               LandmarkPolicy policy, std::uint64_t seed,
                               int threads)
    : landmarks_(landmarks) {
  if (landmarks < 1 || landmarks > g.size())
    throw std::invalid_argument("SpanningOracle: bad landmark count");
  if (!g.connected())
    throw std::invalid_argument("SpanningOracle: graph must be connected");

  std::vector<NodeId> order(static_cast<std::size_t>(g.size()));
  std::iota(order.begin(), order.end(), 0);
  if (policy == LandmarkPolicy::kHighestDegree) {
    std::stable_sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
      return g.neighbors(a).size() > g.neighbors(b).size();
    });
  } else {
    std::mt19937_64 rng(seed);
    std::shuffle(order.begin(), order.end(), rng);
  }

  // Per-landmark tree labelings are independent builds: fan them out over
  // the thread budget, giving each build the leftover threads for its own
  // label emission. Each landmark's scheme is deterministic, so the states
  // do not depend on how the budget is split.
  const int total_threads = util::resolve_threads(threads);
  const int outer = std::max(1, std::min(total_threads, landmarks));
  const int inner = std::max(1, total_threads / outer);
  std::vector<std::optional<FgnwScheme>> schemes(
      static_cast<std::size_t>(landmarks));
  util::parallel_for_chunks(
      static_cast<std::size_t>(landmarks), static_cast<std::size_t>(outer),
      outer, [&](std::size_t, std::size_t begin, std::size_t end) {
        for (std::size_t l = begin; l < end; ++l) {
          const tree::Tree bfs = g.bfs_tree(order[l]);
          const TreeScaffold scaffold(bfs, inner);
          schemes[l].emplace(scaffold);
        }
      });

  // State of v: count, then length-prefixed per-tree labels.
  states_ = LabelArena::build(
      static_cast<std::size_t>(g.size()), total_threads,
      [&](std::size_t i, BitWriter& w) {
        const auto v = static_cast<NodeId>(i);
        w.put_delta0(static_cast<std::uint64_t>(landmarks_));
        for (const auto& s : schemes) {
          const BitSpan l = s->label(v);
          w.put_delta0(l.size());
          w.append(l);
        }
      });
}

OracleAttachedState SpanningOracle::attach(BitSpan state) {
  BitReader r(state);
  const std::uint64_t c = r.get_delta0();
  if (c == 0 || c > state.size())
    throw bits::DecodeError("SpanningOracle: implausible tree count");
  OracleAttachedState out;
  out.labels_.reserve(static_cast<std::size_t>(c));
  for (std::uint64_t i = 0; i < c; ++i) {
    const BitSpan l = r.get_span(static_cast<std::size_t>(r.get_delta0()));
    out.labels_.push_back(FgnwScheme::attach(l));
  }
  return out;
}

std::uint64_t SpanningOracle::query(const OracleAttachedState& su,
                                    const OracleAttachedState& sv) {
  if (su.labels_.size() != sv.labels_.size() || su.labels_.empty())
    throw bits::DecodeError("SpanningOracle: state mismatch");
  std::uint64_t best = ~std::uint64_t{0};
  for (std::size_t i = 0; i < su.labels_.size(); ++i)
    best = std::min(best, FgnwScheme::query(su.labels_[i], sv.labels_[i]));
  return best;
}

std::vector<std::uint64_t> SpanningOracle::query_many(
    const OracleAttachedState& su,
    std::span<const OracleAttachedState> targets) {
  std::vector<std::uint64_t> out;
  out.reserve(targets.size());
  for (const OracleAttachedState& sv : targets) out.push_back(query(su, sv));
  return out;
}

std::vector<OracleAttachedState> SpanningOracle::attach_all() const {
  std::vector<OracleAttachedState> out;
  out.reserve(states_.size());
  for (std::size_t i = 0; i < states_.size(); ++i)
    out.push_back(attach(states_[i]));
  return out;
}

std::uint64_t SpanningOracle::query(BitSpan su, BitSpan sv) {
  BitReader ru(su), rv(sv);
  const std::uint64_t cu = ru.get_delta0();
  const std::uint64_t cv = rv.get_delta0();
  if (cu != cv || cu == 0)
    throw bits::DecodeError("SpanningOracle: state mismatch");
  std::uint64_t best = ~std::uint64_t{0};
  for (std::uint64_t i = 0; i < cu; ++i) {
    const BitSpan lu = ru.get_span(static_cast<std::size_t>(ru.get_delta0()));
    const BitSpan lv = rv.get_span(static_cast<std::size_t>(rv.get_delta0()));
    best = std::min(best, FgnwScheme::query(lu, lv));
  }
  return best;
}

}  // namespace treelab::core
