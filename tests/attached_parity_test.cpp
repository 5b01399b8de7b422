// Attached/raw parity: for every scheme, the attach-once/query-many fast
// path must return exactly what the raw-BitVec path returns, across the
// standard shape extremes; and truncated/corrupt labels must fail loudly
// with DecodeError on either path, never crash or read out of bounds.
#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "bits/bitio.hpp"
#include "core/alstrup_scheme.hpp"
#include "core/approx_scheme.hpp"
#include "core/fgnw_scheme.hpp"
#include "core/kdistance_scheme.hpp"
#include "core/peleg_scheme.hpp"
#include "core/spanning_oracle.hpp"
#include "nca/nca_labeling.hpp"
#include "tree/generators.hpp"
#include "tree/graph.hpp"
#include "tree/hpd.hpp"

namespace {

using namespace treelab;
using bits::BitVec;
using tree::NodeId;
using tree::Tree;

std::vector<Tree> parity_trees() {
  std::vector<Tree> out;
  for (std::uint64_t seed = 0; seed < 3; ++seed)
    out.push_back(tree::random_tree(220, seed));
  out.push_back(tree::path(160));
  out.push_back(tree::star(160));
  out.push_back(tree::caterpillar(40, 4));
  return out;
}

/// Random pair stream over [0, n) x [0, n), including the diagonal.
template <typename F>
void for_random_pairs(NodeId n, F&& f) {
  std::mt19937_64 rng(99);
  std::uniform_int_distribution<NodeId> pick(0, n - 1);
  for (int i = 0; i < 400; ++i) f(pick(rng), pick(rng));
  f(0, 0);  // equal labels
}

template <typename Scheme>
void expect_parity(const Tree& t) {
  const Scheme s(t);
  std::vector<typename Scheme::Attached> att;
  att.reserve(static_cast<std::size_t>(t.size()));
  for (NodeId v = 0; v < t.size(); ++v)
    att.push_back(Scheme::attach(s.label(v)));
  for_random_pairs(t.size(), [&](NodeId u, NodeId v) {
    ASSERT_EQ(Scheme::query(att[u], att[v]),
              Scheme::query(s.label(u), s.label(v)))
        << "u=" << u << " v=" << v << " n=" << t.size();
  });
}

TEST(AttachedParity, Fgnw) {
  for (const Tree& t : parity_trees()) expect_parity<core::FgnwScheme>(t);
}

TEST(AttachedParity, Alstrup) {
  for (const Tree& t : parity_trees()) expect_parity<core::AlstrupScheme>(t);
}

TEST(AttachedParity, Peleg) {
  for (const Tree& t : parity_trees()) expect_parity<core::PelegScheme>(t);
}

TEST(AttachedParity, Approx) {
  for (const double eps : {1.0, 0.25}) {
    for (const auto enc : {core::ApproxScheme::Encoding::kMonotone,
                           core::ApproxScheme::Encoding::kUnary}) {
      for (const Tree& t : parity_trees()) {
        const core::ApproxScheme s(t, eps, enc);
        std::vector<core::ApproxAttachedLabel> att;
        for (NodeId v = 0; v < t.size(); ++v)
          att.push_back(core::ApproxScheme::attach(s.label(v)));
        for_random_pairs(t.size(), [&](NodeId u, NodeId v) {
          ASSERT_EQ(
              core::ApproxScheme::query(s.powers(), att[u], att[v]),
              core::ApproxScheme::query(s.powers(), s.label(u), s.label(v)))
              << "u=" << u << " v=" << v << " eps=" << eps;
        });
      }
    }
  }
}

TEST(AttachedParity, KDistance) {
  for (const std::uint64_t k : {std::uint64_t{4}, std::uint64_t{64}}) {
    for (const Tree& t : parity_trees()) {
      const core::KDistanceScheme s(t, k);
      std::vector<core::KDistanceAttachedLabel> att;
      for (NodeId v = 0; v < t.size(); ++v)
        att.push_back(core::KDistanceScheme::attach(k, s.label(v)));
      for_random_pairs(t.size(), [&](NodeId u, NodeId v) {
        const auto fast = core::KDistanceScheme::query(k, att[u], att[v]);
        const auto raw =
            core::KDistanceScheme::query(k, s.label(u), s.label(v));
        ASSERT_EQ(fast.within, raw.within) << "u=" << u << " v=" << v;
        if (raw.within) {
          ASSERT_EQ(fast.distance, raw.distance);
        }
        const auto lin =
            core::KDistanceScheme::query_linear(k, att[u], att[v]);
        ASSERT_EQ(lin.within, raw.within);
        if (raw.within) {
          ASSERT_EQ(lin.distance, raw.distance);
        }
      });
    }
  }
}

TEST(AttachedParity, Nca) {
  for (const Tree& t : parity_trees()) {
    const tree::HeavyPathDecomposition hpd(t);
    const nca::NcaLabeling nl(hpd);
    std::vector<nca::AttachedNcaLabel> att;
    for (NodeId v = 0; v < t.size(); ++v)
      att.push_back(nca::NcaLabeling::attach(nl.label(v)));
    for_random_pairs(t.size(), [&](NodeId u, NodeId v) {
      const auto fast = nca::NcaLabeling::query(att[u], att[v]);
      const auto raw = nca::NcaLabeling::query(nl.label(u), nl.label(v));
      ASSERT_EQ(fast.rel, raw.rel) << "u=" << u << " v=" << v;
      ASSERT_EQ(fast.lightdepth, raw.lightdepth);
      ASSERT_EQ(fast.u_first, raw.u_first);
      ASSERT_EQ(fast.same_branch_node, raw.same_branch_node);
    });
  }
}

TEST(AttachedParity, OracleAndBatch) {
  const tree::Graph g = tree::Graph::random_connected(250, 400, 13);
  const core::SpanningOracle o(g, 3);
  const std::vector<core::OracleAttachedState> att = o.attach_all();
  ASSERT_EQ(att.size(), static_cast<std::size_t>(g.size()));
  EXPECT_EQ(att[0].trees(), 3u);
  for_random_pairs(g.size(), [&](NodeId u, NodeId v) {
    ASSERT_EQ(core::SpanningOracle::query(att[u], att[v]),
              core::SpanningOracle::query(o.state(u), o.state(v)));
  });
  // Batch: one source node answering a stream against its cached state.
  const auto batch = core::SpanningOracle::query_many(att[7], att);
  ASSERT_EQ(batch.size(), att.size());
  for (NodeId v = 0; v < g.size(); ++v)
    ASSERT_EQ(batch[v], core::SpanningOracle::query(o.state(7), o.state(v)));
  EXPECT_EQ(batch[7], 0u);
}

/// Every strict prefix of a label must either attach cleanly (parse happens
/// to end early) or throw DecodeError — nothing else, and never a crash.
template <typename Attach>
void expect_fails_loudly(const BitVec& label, Attach&& attach) {
  int threw = 0;
  for (std::size_t len = 0; len < label.size();
       len += 1 + len / 7) {  // denser probing near the header
    const BitVec prefix = label.slice(0, len);
    try {
      (void)attach(prefix);
    } catch (const bits::DecodeError&) {
      ++threw;
    }
    // Any other exception type escapes and fails the test.
  }
  EXPECT_GT(threw, 0) << "no truncation ever failed?";
}

TEST(AttachedCorruption, TruncatedLabels) {
  const Tree t = tree::random_tree(300, 42);
  expect_fails_loudly(core::FgnwScheme(t).label(123), [](const BitVec& l) {
    return core::FgnwScheme::attach(l);
  });
  expect_fails_loudly(core::AlstrupScheme(t).label(123), [](const BitVec& l) {
    return core::AlstrupScheme::attach(l);
  });
  expect_fails_loudly(core::PelegScheme(t).label(123), [](const BitVec& l) {
    return core::PelegScheme::attach(l);
  });
  expect_fails_loudly(core::ApproxScheme(t, 0.5).label(123),
                      [](const BitVec& l) {
                        return core::ApproxScheme::attach(l);
                      });
  expect_fails_loudly(core::KDistanceScheme(t, 8).label(123),
                      [](const BitVec& l) {
                        return core::KDistanceScheme::attach(8, l);
                      });
  const tree::HeavyPathDecomposition hpd(t);
  expect_fails_loudly(nca::NcaLabeling(hpd).label(123), [](const BitVec& l) {
    return nca::NcaLabeling::attach(l);
  });
  tree::Graph g(t.size());
  for (NodeId v = 0; v < t.size(); ++v)
    if (t.parent(v) != tree::kNoNode) g.add_edge(v, t.parent(v));
  expect_fails_loudly(core::SpanningOracle(g, 2).state(123),
                      [](const BitVec& l) {
                        return core::SpanningOracle::attach(l);
                      });
}

TEST(AttachedCorruption, EmptyLabelThrows) {
  const BitVec empty;
  EXPECT_THROW((void)core::FgnwScheme::attach(empty), bits::DecodeError);
  EXPECT_THROW((void)core::AlstrupScheme::attach(empty), bits::DecodeError);
  EXPECT_THROW((void)core::PelegScheme::attach(empty), bits::DecodeError);
  EXPECT_THROW((void)core::ApproxScheme::attach(empty), bits::DecodeError);
  EXPECT_THROW((void)core::KDistanceScheme::attach(4, empty),
               bits::DecodeError);
  EXPECT_THROW((void)nca::NcaLabeling::attach(empty), bits::DecodeError);
  EXPECT_THROW((void)core::SpanningOracle::attach(empty), bits::DecodeError);
}

}  // namespace
