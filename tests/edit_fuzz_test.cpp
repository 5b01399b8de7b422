// Differential edit-sequence fuzzer — the lockdown for the full dynamic-
// forest edit model. Randomized interleavings of insert_leaf / delete_leaf /
// detach_subtree / attach_subtree / set_edge_weight / compact are driven
// against a from-scratch AlstrupScheme (kStablePow2) rebuild oracle; after
// EVERY edit the incremental arena must be bit-identical to the oracle's
// (through the dense id map — tombstoned/detached ids must hold zero-length
// labels), and check_state() must accept the internal decomposition. On top
// of the arena parity, the delta pipeline is chained through the same runs:
// every few edits the relabeler ships a v3 delta which is saved, re-loaded
// and applied to a shadow copy of the base arena — the applied result must
// equal the live arena bit for bit, edit after edit, compaction after
// compaction.
//
// Reproducibility: every failure prints the shape, seed and a replay file
// holding the exact edit sequence, so any red run is a one-line repro:
//
//   ./edit_fuzz_test --replay <file>          (or --seed N --edits K)
//
// Flags (also readable from the environment, for ctest-driven runs):
//   --seed N     / TREELAB_FUZZ_SEED      override the per-shape seed
//   --edits N    / TREELAB_FUZZ_EDITS     edit budget per shape (default
//                                         1000 — the acceptance budget)
//   --replay F   / TREELAB_FUZZ_REPLAY    re-run a recorded edit sequence
//   --artifact-dir D / TREELAB_FUZZ_ARTIFACT_DIR
//                                         where failing replays are written
//                                         (default: the test temp dir)
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "core/alstrup_scheme.hpp"
#include "core/delta_journal.hpp"
#include "core/incremental_relabeler.hpp"
#include "core/label_store.hpp"
#include "nca/nca_labeling.hpp"
#include "tree/generators.hpp"
#include "util/fs.hpp"

namespace {

using namespace treelab;
using core::AlstrupScheme;
using core::IncrementalRelabeler;
using core::LabelStore;
using tree::kNoNode;
using tree::NodeId;
using tree::Tree;

constexpr core::AlstrupOptions kStable{nca::CodeWeights::kStablePow2, 1};

struct FuzzConfig {
  std::uint64_t seed = 0;  // 0 = per-shape default
  int edits = 0;           // 0 = default budget (1000)
  std::string replay;
  std::string artifact_dir;
};
FuzzConfig g_cfg;

int edit_budget() { return g_cfg.edits > 0 ? g_cfg.edits : 1000; }

std::string artifact_dir() {
  return g_cfg.artifact_dir.empty() ? testing::TempDir()
                                    : g_cfg.artifact_dir + "/";
}

/// Drives one fuzz run: the relabeler, a structural mirror for picking
/// valid edits, the rebuild-oracle parity check, and the chained delta
/// shadow. Every applied edit is appended to a textual log so failures
/// replay from a file.
class FuzzDriver {
 public:
  FuzzDriver(const std::string& shape, NodeId n, std::uint64_t gen_seed,
             std::uint64_t rng_seed, const Tree& base)
      : shape_(shape), rng_(rng_seed), r_(base) {
    log_.push_back("base " + shape + " " + std::to_string(n) + " " +
                   std::to_string(gen_seed));
    parent_.resize(static_cast<std::size_t>(base.size()));
    state_.assign(static_cast<std::size_t>(base.size()), 0);
    kids_.assign(static_cast<std::size_t>(base.size()), 0);
    for (NodeId v = 0; v < base.size(); ++v) {
      parent_[static_cast<std::size_t>(v)] = base.parent(v);
      if (base.parent(v) != kNoNode) ++kids_[static_cast<std::size_t>(
          base.parent(v))];
    }
    shadow_ = r_.labels();
    // Every shipped delta also rides through a DeltaJournal, so the fuzz
    // run doubles as a journal append/replay differential (fsync off: the
    // recovery rules under crashes are crash_recovery_fuzz_test's job).
    journal_base_ = artifact_dir() + "treelab_edit_fuzz_" + shape + "_" +
                    std::to_string(rng_seed) + ".lbl";
    cleanup_journal();
    core::JournalOptions jopt;
    jopt.sync = false;
    jopt.checkpoint_records = 4;  // fold often: replay crosses checkpoints
    journal_.emplace(core::DeltaJournal::create(journal_base_, r_.to_loaded(),
                                                jopt));
  }

  ~FuzzDriver() { cleanup_journal(); }

  IncrementalRelabeler& relabeler() { return r_; }

  /// Applies one textual edit line (the replay path). Returns false on an
  /// unparseable line.
  bool apply_line(const std::string& line) {
    std::istringstream is(line);
    std::string op;
    is >> op;
    long long a = 0, b = 0;
    if (op == "I") {
      is >> a >> b;
      apply_insert(static_cast<NodeId>(a), static_cast<std::uint32_t>(b));
    } else if (op == "D") {
      is >> a;
      apply_delete(static_cast<NodeId>(a));
    } else if (op == "X") {
      is >> a;
      apply_detach(static_cast<NodeId>(a));
    } else if (op == "A") {
      is >> a >> b;
      apply_attach(static_cast<NodeId>(a), static_cast<std::uint32_t>(b));
    } else if (op == "W") {
      is >> a >> b;
      apply_weight(static_cast<NodeId>(a), static_cast<std::uint32_t>(b));
    } else if (op == "C") {
      apply_compact();
    } else {
      return false;
    }
    return !is.fail();
  }

  /// Picks and applies one random edit (always finds one: inserts are
  /// always possible).
  void step() {
    // When a detach is pending, mostly attach it back (the tree must keep
    // making progress); otherwise weight the mix toward inserts so trees
    // grow past their starting size while every kind stays hot.
    if (detached_ != kNoNode && rng_() % 4 != 0) {
      apply_attach(pick_live(), static_cast<std::uint32_t>(rng_() % 4));
      return;
    }
    for (;;) {
      switch (rng_() % 16) {
        case 0: case 1: case 2: case 3: case 4: case 5:
          apply_insert(pick_live(), static_cast<std::uint32_t>(rng_() % 4));
          return;
        case 6: case 7: case 8: {
          const NodeId v = pick_live_leaf();
          if (v == kNoNode) break;
          apply_delete(v);
          return;
        }
        case 9: case 10: {
          const NodeId v = pick_live_nonroot();
          if (v == kNoNode) break;
          apply_weight(v, static_cast<std::uint32_t>(rng_() % 5));
          return;
        }
        case 11: case 12: {
          if (detached_ != kNoNode) break;
          const NodeId v = pick_live_nonroot();
          if (v == kNoNode) break;
          apply_detach(v);
          return;
        }
        case 13: {
          if (detached_ == kNoNode) break;
          apply_attach(pick_live(), static_cast<std::uint32_t>(rng_() % 4));
          return;
        }
        default: {
          if (detached_ != kNoNode) break;
          apply_compact();
          return;
        }
      }
    }
  }

  /// The differential check: bit-identical to a from-scratch stable-weight
  /// Alstrup build on the compacted live tree, zero-length labels on every
  /// non-live id, and an internally consistent decomposition. Appends a
  /// gtest failure (with the replay recipe) on the first divergence;
  /// returns false so callers can stop early.
  [[nodiscard]] bool verify() {
    try {
      r_.check_state();
    } catch (const std::logic_error& e) {
      fail(std::string("check_state: ") + e.what());
      return false;
    }
    const Tree now = r_.snapshot();
    const AlstrupScheme fresh(now, kStable);
    const std::vector<NodeId> map = r_.dense_map();
    const auto& got = r_.labels();
    if (got.size() != map.size()) {
      fail("arena size != id-space size");
      return false;
    }
    for (std::size_t i = 0; i < map.size(); ++i) {
      if (map[i] == kNoNode) {
        if (got.label_bits(i) != 0) {
          fail("non-live id " + std::to_string(i) +
               " holds a non-empty label");
          return false;
        }
        continue;
      }
      const auto j = static_cast<std::size_t>(map[i]);
      if (got.label_bits(i) != fresh.labels().label_bits(j) ||
          !(got.view(i) == fresh.labels()[j])) {
        fail("label mismatch at id " + std::to_string(i) + " (dense " +
             std::to_string(j) + ")");
        return false;
      }
    }
    return true;
  }

  /// Ships a delta, reloads it through the wire format, applies it to the
  /// shadow base and checks the result equals the live arena. The applied
  /// arena becomes the next shadow base, so successive calls exercise
  /// chained deltas across compactions.
  [[nodiscard]] bool verify_delta_chain() {
    std::stringstream ss;
    r_.ship_delta(ss);
    bits::LabelArena applied;
    core::LabelDelta d;
    try {
      d = LabelStore::load_delta(ss);
      applied = LabelStore::apply_delta(shadow_, d);
    } catch (const std::exception& e) {
      fail(std::string("delta round-trip: ") + e.what());
      return false;
    }
    const auto& want = r_.labels();
    if (applied.size() != want.size()) {
      fail("delta-applied arena size mismatch");
      return false;
    }
    for (std::size_t i = 0; i < want.size(); ++i)
      if (applied.label_bits(i) != want.label_bits(i) ||
          !(applied.view(i) == want.view(i))) {
        fail("delta-applied label mismatch at id " + std::to_string(i));
        return false;
      }
    shadow_ = std::move(applied);
    // The same delta goes through the journal; its folded/replayed state
    // must track the live arena epoch for epoch.
    try {
      journal_->append(d);
      if (++chained_ % 4 == 0) {
        core::JournalOptions jopt;
        jopt.sync = false;
        jopt.checkpoint_records = 4;
        journal_.emplace(core::DeltaJournal::open(journal_base_, jopt));
      }
    } catch (const std::exception& e) {
      fail(std::string("journal append/replay: ") + e.what());
      return false;
    }
    const auto& jgot = journal_->labels();
    if (jgot.size() != want.size()) {
      fail("journal arena size mismatch");
      return false;
    }
    for (std::size_t i = 0; i < want.size(); ++i)
      if (jgot.label_bits(i) != want.label_bits(i) ||
          !(jgot.view(i) == want.view(i))) {
        fail("journal label mismatch at id " + std::to_string(i));
        return false;
      }
    return true;
  }

 private:
  void apply_insert(NodeId parent, std::uint32_t w) {
    log_.push_back("I " + std::to_string(parent) + " " + std::to_string(w));
    (void)r_.insert_leaf(parent, w);
    parent_.push_back(parent);
    state_.push_back(0);
    kids_.push_back(0);
    ++kids_[static_cast<std::size_t>(parent)];
  }
  void apply_delete(NodeId v) {
    log_.push_back("D " + std::to_string(v));
    r_.delete_leaf(v);
    state_[static_cast<std::size_t>(v)] = 1;
    --kids_[static_cast<std::size_t>(parent_[static_cast<std::size_t>(v)])];
  }
  void apply_detach(NodeId v) {
    log_.push_back("X " + std::to_string(v));
    r_.detach_subtree(v);
    --kids_[static_cast<std::size_t>(parent_[static_cast<std::size_t>(v)])];
    mark_subtree(v, 2);
    detached_ = v;
  }
  void apply_attach(NodeId parent, std::uint32_t w) {
    log_.push_back("A " + std::to_string(parent) + " " + std::to_string(w));
    r_.attach_subtree(parent, w);
    parent_[static_cast<std::size_t>(detached_)] = parent;
    ++kids_[static_cast<std::size_t>(parent)];
    mark_subtree(detached_, 0);
    detached_ = kNoNode;
  }
  void apply_weight(NodeId v, std::uint32_t w) {
    log_.push_back("W " + std::to_string(v) + " " + std::to_string(w));
    r_.set_edge_weight(v, w);
  }
  void apply_compact() {
    log_.push_back("C");
    const std::vector<NodeId> map = r_.compact();
    std::vector<NodeId> parent;
    std::vector<int> kids;
    for (std::size_t i = 0; i < map.size(); ++i) {
      if (map[i] == kNoNode) continue;
      const NodeId p = parent_[i];
      parent.push_back(p == kNoNode ? kNoNode
                                    : map[static_cast<std::size_t>(p)]);
      kids.push_back(kids_[i]);
    }
    parent_ = std::move(parent);
    kids_ = std::move(kids);
    state_.assign(parent_.size(), 0);
  }

  void mark_subtree(NodeId v, std::uint8_t s) {
    // The mirror keeps no child lists; an O(ids * depth) ancestor sweep is
    // plenty at fuzz sizes. Dead ids never change state.
    for (std::size_t i = 0; i < parent_.size(); ++i) {
      if (state_[i] == 1) continue;
      for (NodeId a = static_cast<NodeId>(i); a != kNoNode;
           a = parent_[static_cast<std::size_t>(a)])
        if (a == v) {
          state_[i] = s;
          break;
        }
    }
  }

  [[nodiscard]] NodeId pick_live() {
    for (;;) {
      const auto i = static_cast<std::size_t>(rng_() % parent_.size());
      if (state_[i] == 0) return static_cast<NodeId>(i);
    }
  }
  [[nodiscard]] NodeId pick_live_leaf() {
    for (int tries = 0; tries < 64; ++tries) {
      const auto i = static_cast<std::size_t>(rng_() % parent_.size());
      if (state_[i] == 0 && kids_[i] == 0 && parent_[i] != kNoNode)
        return static_cast<NodeId>(i);
    }
    return kNoNode;
  }
  [[nodiscard]] NodeId pick_live_nonroot() {
    for (int tries = 0; tries < 64; ++tries) {
      const auto i = static_cast<std::size_t>(rng_() % parent_.size());
      if (state_[i] == 0 && parent_[i] != kNoNode)
        return static_cast<NodeId>(i);
    }
    return kNoNode;
  }

  void fail(const std::string& what) {
    const std::string path = artifact_dir() + "edit_fuzz_" + shape_ + "_" +
                             std::to_string(seed_used_) + ".replay";
    std::ofstream out(path);
    for (const std::string& l : log_) out << l << "\n";
    out.close();
    ADD_FAILURE() << "edit fuzz divergence on shape '" << shape_
                  << "' after edit " << log_.size() - 1 << ": " << what
                  << "\n  replay: ./edit_fuzz_test --replay " << path
                  << "\n  (or: --seed " << seed_used_ << " --edits "
                  << edit_budget() << ")";
  }

 public:
  std::uint64_t seed_used_ = 0;

 private:
  std::string shape_;
  std::mt19937_64 rng_;
  IncrementalRelabeler r_;
  // Structural mirror, id-space aligned with the relabeler's.
  std::vector<NodeId> parent_;
  std::vector<std::uint8_t> state_;  // 0 live, 1 dead, 2 detached
  std::vector<int> kids_;            // live-child counts
  NodeId detached_ = kNoNode;
  std::vector<std::string> log_;
  bits::LabelArena shadow_;  // delta-chain base (last shipped epoch)
  std::string journal_base_;
  std::optional<core::DeltaJournal> journal_;
  int chained_ = 0;

  void cleanup_journal() {
    util::remove_file(journal_base_);
    util::remove_file(journal_base_ + ".tmp");
    util::remove_file(core::DeltaJournal::journal_path(journal_base_));
    util::remove_file(core::DeltaJournal::journal_path(journal_base_) +
                      ".tmp");
  }
};

Tree make_base(const std::string& shape, NodeId n, std::uint64_t gen_seed) {
  if (shape == "path") return tree::path(n);
  if (shape == "star") return tree::star(n);
  if (shape == "caterpillar") return tree::caterpillar(n / 6, 5);
  if (shape == "random") return tree::random_tree(n, gen_seed);
  // Past the 256-label floor, so a fan of n/3 bristles splices instead of
  // falling back when a bristle's quantized weight crosses.
  if (shape == "broom") return tree::broom(2 * n / 3, n / 3);
  ADD_FAILURE() << "unknown shape " << shape;
  return tree::path(2);
}

void run_shape(const std::string& shape, NodeId n, std::uint64_t gen_seed,
               std::uint64_t default_seed) {
  const std::uint64_t seed =
      g_cfg.seed != 0 ? g_cfg.seed : default_seed;
  const Tree base = make_base(shape, n, gen_seed);
  FuzzDriver d(shape, n, gen_seed, seed, base);
  d.seed_used_ = seed;
  ASSERT_TRUE(d.verify()) << "initial state";
  const int budget = edit_budget();
  for (int e = 0; e < budget; ++e) {
    d.step();
    if (!d.verify()) return;
    if (e % 16 == 15 && !d.verify_delta_chain()) return;
  }
  ASSERT_TRUE(d.verify_delta_chain()) << "final delta";
  const auto& st = d.relabeler().stats();
  // Every step is either an edit or a compaction, and every edit lands in
  // exactly one outcome bucket.
  EXPECT_EQ(st.edits + st.compactions, static_cast<std::uint64_t>(budget));
  EXPECT_EQ(st.edits, st.incremental + st.restructured + st.full_heavy_flip +
                          st.full_dirty_cone);
}

TEST(EditFuzz, Path) { run_shape("path", 120, 0, 1001); }
TEST(EditFuzz, Star) { run_shape("star", 120, 0, 1002); }
TEST(EditFuzz, Caterpillar) { run_shape("caterpillar", 180, 0, 1003); }
TEST(EditFuzz, Random) { run_shape("random", 200, 21, 1004); }
TEST(EditFuzz, Broom) { run_shape("broom", 900, 0, 1005); }

TEST(EditFuzz, Replay) {
  if (g_cfg.replay.empty())
    GTEST_SKIP() << "no --replay file given";
  std::ifstream in(g_cfg.replay);
  ASSERT_TRUE(in) << "cannot open " << g_cfg.replay;
  std::string line;
  ASSERT_TRUE(std::getline(in, line)) << "empty replay";
  std::istringstream head(line);
  std::string tag, shape;
  long long n = 0, gen_seed = 0;
  head >> tag >> shape >> n >> gen_seed;
  ASSERT_EQ(tag, "base") << "replay must start with a 'base' line";
  const Tree base = make_base(shape, static_cast<NodeId>(n),
                              static_cast<std::uint64_t>(gen_seed));
  FuzzDriver d(shape, static_cast<NodeId>(n),
               static_cast<std::uint64_t>(gen_seed), 1, base);
  ASSERT_TRUE(d.verify()) << "initial state";
  int e = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ASSERT_TRUE(d.apply_line(line)) << "bad replay line: " << line;
    ++e;
    if (!d.verify()) {
      ADD_FAILURE() << "replay diverged at edit " << e << ": " << line;
      return;
    }
  }
  EXPECT_TRUE(d.verify_delta_chain());
  SUCCEED() << "replayed " << e << " edits";
}

}  // namespace

int main(int argc, char** argv) {
  testing::InitGoogleTest(&argc, argv);
  const auto from_env = [](const char* name) -> std::string {
    const char* v = std::getenv(name);
    return v == nullptr ? std::string() : std::string(v);
  };
  if (const std::string s = from_env("TREELAB_FUZZ_SEED"); !s.empty())
    g_cfg.seed = std::strtoull(s.c_str(), nullptr, 10);
  if (const std::string s = from_env("TREELAB_FUZZ_EDITS"); !s.empty())
    g_cfg.edits = std::atoi(s.c_str());
  g_cfg.replay = from_env("TREELAB_FUZZ_REPLAY");
  g_cfg.artifact_dir = from_env("TREELAB_FUZZ_ARTIFACT_DIR");
  for (int i = 1; i + 1 < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--seed")
      g_cfg.seed = std::strtoull(argv[++i], nullptr, 10);
    else if (a == "--edits")
      g_cfg.edits = std::atoi(argv[++i]);
    else if (a == "--replay")
      g_cfg.replay = argv[++i];
    else if (a == "--artifact-dir")
      g_cfg.artifact_dir = argv[++i];
  }
  return RUN_ALL_TESTS();
}
