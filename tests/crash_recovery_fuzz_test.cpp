// Crash-recovery fuzzer — the lockdown for the durability layer.
//
// A producer (IncrementalRelabeler) streams random edits into a
// DeltaJournal while failpoints kill the process-under-simulation at
// randomized points inside append() and checkpoint(): torn writes that
// leave half a frame on disk, failed fsyncs, failed renames, failed
// opens. After every kill the journal is reopened and recovery must land
// on a committed epoch: either the last committed one or — when the
// frame fully reached the file before the kill — the appended one, in
// both cases *bit-identical* to what the from-scratch oracle
// (AlstrupScheme over the committed tree snapshot) says that epoch's
// labels must be. The same loop drives kill-points through
// ForestIndex::apply_delta and asserts the serving side keeps answering
// the old epoch, unchanged, after every failed apply.
//
// A companion test locks the graceful-degradation contract: a tree fed
// corrupt deltas is quarantined (typed errors) while the rest of the
// forest keeps serving, and a clean update repairs it.
//
// Reproducibility: single-threaded and fully seed-driven — any failure
// reruns with --seed N; the op log of a failing run is written to the
// artifact dir for diagnosis.
//
// Flags (also readable from the environment, for ctest-driven runs):
//   --seed N  / TREELAB_CRASH_SEED   RNG seed (default 20260808)
//   --kills N / TREELAB_CRASH_KILLS  kill-point budget (default 1000 —
//                                    the acceptance budget; sanitizer CI
//                                    runs a reduced one)
//   --artifact-dir D / TREELAB_CRASH_ARTIFACT_DIR
//                                    where failing op logs are written
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "core/alstrup_scheme.hpp"
#include "core/delta_journal.hpp"
#include "core/incremental_relabeler.hpp"
#include "core/label_store.hpp"
#include "nca/nca_labeling.hpp"
#include "serve/forest_index.hpp"
#include "tree/generators.hpp"
#include "util/failpoint.hpp"
#include "util/fs.hpp"
#include "util/io_error.hpp"

namespace {

using namespace treelab;
using core::AlstrupScheme;
using core::DeltaJournal;
using core::IncrementalRelabeler;
using core::JournalOptions;
using core::LabelDelta;
using core::LabelStore;
using serve::ForestIndex;
using serve::QueryStatus;
using serve::Request;
using serve::TreeHealth;
using tree::kNoNode;
using tree::NodeId;
using tree::Tree;
using util::FailMode;
namespace failpoint = util::failpoint;

constexpr core::AlstrupOptions kStable{nca::CodeWeights::kStablePow2, 1};

struct CrashConfig {
  std::uint64_t seed = 0;  // 0 = default
  int kills = 0;           // 0 = default budget (1000)
  std::string artifact_dir;
};
CrashConfig g_cfg;

int kill_budget() { return g_cfg.kills > 0 ? g_cfg.kills : 1000; }
std::uint64_t run_seed() { return g_cfg.seed != 0 ? g_cfg.seed : 20260808; }

std::string artifact_dir() {
  return g_cfg.artifact_dir.empty() ? testing::TempDir()
                                    : g_cfg.artifact_dir + "/";
}

bool arena_equal(const bits::LabelArena& a, const bits::LabelArena& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a.label_bits(i) != b.label_bits(i) || !(a.view(i) == b.view(i)))
      return false;
  return true;
}

/// One fuzz run: producer, journal, committed shadow (arena + tree
/// snapshot + dense map, advanced only when an epoch is known committed),
/// the serving index fed the same deltas, and the op log for artifacts.
class CrashDriver {
 public:
  explicit CrashDriver(std::uint64_t seed)
      : rng_(seed),
        r_(tree::random_tree(96, seed ^ 0x9e3779b97f4a7c15ull)),
        committed_tree_(r_.snapshot()) {
    base_path_ = artifact_dir() + "treelab_crash_fuzz_" +
                 std::to_string(seed) + ".lbl";
    util::remove_file(base_path_);
    util::remove_file(base_path_ + ".tmp");
    util::remove_file(DeltaJournal::journal_path(base_path_));
    util::remove_file(DeltaJournal::journal_path(base_path_) + ".tmp");
    opt_.checkpoint_records = 8;  // fold often: the crash windows of
                                  // checkpoint() get fuzzed too
    opt_.sync = true;
    journal_.emplace(DeltaJournal::create(base_path_, r_.to_loaded(), opt_));
    // Structural mirror for picking valid edits.
    const std::size_t n = r_.size();
    parent_.resize(n);
    alive_.assign(n, 1);
    kids_.assign(n, 0);
    const Tree snap = r_.snapshot();
    for (NodeId v = 0; v < snap.size(); ++v) {
      parent_[static_cast<std::size_t>(v)] = snap.parent(v);
      if (snap.parent(v) != kNoNode)
        ++kids_[static_cast<std::size_t>(snap.parent(v))];
    }
    live_ = n;
    commit_shadow();
    index_.emplace(serve::ForestOptions{});
    (void)index_->add(journal_->to_loaded());
    index_chain_ = journal_->chain();
  }

  ~CrashDriver() {
    failpoint::disarm_all();
    if (!failed_) {
      util::remove_file(base_path_);
      util::remove_file(base_path_ + ".tmp");
      util::remove_file(DeltaJournal::journal_path(base_path_));
      util::remove_file(DeltaJournal::journal_path(base_path_) + ".tmp");
    }
  }

  /// Runs until `kills` kill-points have fired (or a check failed).
  void run(int kills) {
    const long max_iters = static_cast<long>(kills) * 50;
    long iter = 0;
    while (kills_ < kills && !failed_) {
      if (++iter > max_iters) {
        fail("kill budget not reached in " + std::to_string(max_iters) +
             " iterations (" + std::to_string(kills_) + " kills)");
        return;
      }
      step(iter);
    }
  }

  [[nodiscard]] int kills() const noexcept { return kills_; }
  [[nodiscard]] int journal_kills() const noexcept { return journal_kills_; }
  [[nodiscard]] int checkpoint_kills() const noexcept {
    return checkpoint_kills_;
  }
  [[nodiscard]] int apply_kills() const noexcept { return apply_kills_; }
  [[nodiscard]] int commits() const noexcept { return commits_; }

 private:
  // --- random edits over the structural mirror ---------------------------

  NodeId pick_live() {
    for (;;) {
      const auto v = static_cast<NodeId>(rng_() % parent_.size());
      if (alive_[static_cast<std::size_t>(v)]) return v;
    }
  }

  bool try_delete() {
    for (int attempt = 0; attempt < 24; ++attempt) {
      const NodeId v = pick_live();
      const auto s = static_cast<std::size_t>(v);
      if (v != 0 && kids_[s] == 0) {
        r_.delete_leaf(v);
        alive_[s] = 0;
        --kids_[static_cast<std::size_t>(parent_[s])];
        --live_;
        log("D " + std::to_string(v));
        return true;
      }
    }
    return false;
  }

  void do_insert() {
    const NodeId p = pick_live();
    const auto w = static_cast<std::uint32_t>(1 + rng_() % 8);
    (void)r_.insert_leaf(p, w);
    parent_.push_back(p);
    alive_.push_back(1);
    kids_.push_back(0);
    ++kids_[static_cast<std::size_t>(p)];
    ++live_;
    log("I " + std::to_string(p) + " " + std::to_string(w));
  }

  void do_compact() {
    const std::vector<NodeId> map = r_.compact();
    std::vector<NodeId> parent(r_.size(), kNoNode);
    std::vector<std::uint8_t> alive(r_.size(), 1);
    std::vector<int> kids(r_.size(), 0);
    for (std::size_t old = 0; old < map.size(); ++old) {
      if (map[old] == kNoNode) continue;
      const auto ni = static_cast<std::size_t>(map[old]);
      const NodeId op = parent_[old];
      parent[ni] = op == kNoNode ? kNoNode : map[static_cast<std::size_t>(op)];
      if (parent[ni] != kNoNode) ++kids[static_cast<std::size_t>(parent[ni])];
    }
    parent_ = std::move(parent);
    alive_ = std::move(alive);
    kids_ = std::move(kids);
    log("C");
  }

  void random_edits() {
    const int ne = 1 + static_cast<int>(rng_() % 3);
    for (int e = 0; e < ne; ++e) {
      const std::uint64_t roll = rng_() % 100;
      // Keep the tree bounded so late-run oracle rebuilds stay cheap.
      const std::uint64_t p_insert = live_ < 400 ? 55 : 20;
      if (roll < p_insert) {
        do_insert();
      } else if (roll < p_insert + 30) {
        if (!try_delete()) do_insert();
      } else if (roll < p_insert + 40) {
        const NodeId v = pick_live();
        if (v != 0) {
          const auto w = static_cast<std::uint32_t>(1 + rng_() % 8);
          r_.set_edge_weight(v, w);
          log("W " + std::to_string(v) + " " + std::to_string(w));
        }
      } else if (roll < p_insert + 43) {
        do_compact();
      } else {
        do_insert();
      }
    }
  }

  // --- committed-epoch bookkeeping ---------------------------------------

  void commit_shadow() {
    committed_ = r_.labels();
    committed_tree_ = r_.snapshot();
    committed_map_ = r_.dense_map();
    ++commits_;
  }

  /// The acceptance check: the committed arena (where recovery landed)
  /// must be bit-identical to a from-scratch rebuild over the committed
  /// tree snapshot, through the dense id map.
  bool oracle_check(const bits::LabelArena& got) {
    const AlstrupScheme fresh(committed_tree_, kStable);
    if (got.size() != committed_map_.size())
      return fail("oracle: arena size != dense map size");
    for (std::size_t i = 0; i < got.size(); ++i) {
      if (committed_map_[i] == kNoNode) {
        if (got.label_bits(i) != 0)
          return fail("oracle: tombstone id " + std::to_string(i) +
                      " has a nonempty label");
        continue;
      }
      const auto j = static_cast<std::size_t>(committed_map_[i]);
      if (got.label_bits(i) != fresh.labels().label_bits(j) ||
          !(got.view(i) == fresh.labels()[j]))
        return fail("oracle: label mismatch at id " + std::to_string(i));
    }
    return true;
  }

  // --- the serving side ---------------------------------------------------

  /// A request known to answer kOk against the index, with its answer.
  struct Spot {
    Request req;
    serve::Dist dist;
    bool valid = false;
  };

  Spot find_spot() {
    const auto bound = static_cast<NodeId>(index_->id_bound(0));
    for (int attempt = 0; attempt < 32; ++attempt) {
      const Request q{0, static_cast<NodeId>(rng_() % bound),
                      static_cast<NodeId>(rng_() % bound)};
      const auto res = index_->query_batch({&q, 1});
      if (res[0].status == QueryStatus::kOk) return {q, res[0].dist, true};
    }
    return {};
  }

  void ship_to_index(const LabelDelta& d) {
    LabelDelta di = d;
    if (di.base_chain != index_chain_) LabelStore::rechain(di, index_chain_);
    if (rng_() % 4 == 0) {
      // Kill-point inside ForestIndex::apply_delta: the swap must not
      // happen — the index keeps answering the old epoch, unchanged.
      const Spot spot = find_spot();
      const std::uint64_t epoch_before = index_->update_epoch(0);
      const bool alloc = rng_() % 2 == 0;
      failpoint::arm("forest.apply_delta",
                     alloc ? FailMode::kAllocFail : FailMode::kThrow, 0, 1);
      bool threw = false;
      try {
        (void)index_->apply_delta(0, di);
      } catch (const std::bad_alloc&) {
        threw = true;
      } catch (const std::runtime_error&) {
        threw = true;
      }
      failpoint::disarm_all();
      if (!threw) {
        fail("forest.apply_delta failpoint did not fire");
        return;
      }
      ++kills_;
      ++apply_kills_;
      log("kill forest.apply_delta " + std::string(alloc ? "alloc" : "throw"));
      if (index_->update_epoch(0) != epoch_before) {
        fail("failed apply_delta advanced the epoch");
        return;
      }
      if (spot.valid) {
        const auto res = index_->query_batch({&spot.req, 1});
        if (res[0].status != QueryStatus::kOk || !(res[0].dist == spot.dist)) {
          fail("failed apply_delta changed a served answer");
          return;
        }
      }
      if (index_->health(0) == TreeHealth::kQuarantined) {
        fail("single transient apply failure quarantined the tree");
        return;
      }
    }
    (void)index_->apply_delta(0, di);
    index_chain_ = di.new_chain;
  }

  // --- one fuzz iteration -------------------------------------------------

  void step(long iter) {
    const bool do_ckpt = rng_() % 5 == 0;
    LabelDelta d0;
    LabelDelta d;
    if (!do_ckpt) {
      random_edits();
      d0 = r_.make_delta();
      d = d0;
      if (d.base_chain != journal_->chain())
        LabelStore::rechain(d, journal_->chain());
    }

    // Arm a randomized kill-point for most iterations (the rest commit
    // cleanly, moving the committed epoch forward).
    const bool armed = rng_() % 10 < 7;
    std::string site;
    if (armed) {
      static const char* kAppendSites[] = {"fs.write", "fs.fsync",
                                           "fs.open_append"};
      static const char* kCkptSites[] = {"fs.write", "fs.fsync", "fs.rename",
                                         "fs.open_write"};
      site = do_ckpt ? kCkptSites[rng_() % 4] : kAppendSites[rng_() % 3];
      const std::uint64_t roll = rng_() % 4;
      const FailMode mode = roll == 0   ? FailMode::kError
                            : roll == 1 ? FailMode::kShortWrite
                                        : FailMode::kTornWrite;
      // Sometimes tear *after* the full frame (arg huge): the bytes all
      // reached disk, only the process died — recovery must then land on
      // the NEW epoch.
      const std::uint64_t arg =
          rng_() % 4 == 0 ? (std::uint64_t{1} << 30) : rng_() % 96;
      const std::uint64_t skip = rng_() % 3;
      failpoint::arm(site, mode, skip, 1, arg);
    }
    const std::uint64_t trips_before = armed ? failpoint::trips(site) : 0;

    bool ok = false;
    try {
      if (do_ckpt)
        journal_->checkpoint();
      else
        journal_->append(d);
      ok = true;
    } catch (const util::FailpointAbort&) {
    } catch (const util::IoError&) {
    } catch (const std::exception& e) {
      failpoint::disarm_all();
      fail(std::string("unexpected exception from ") +
           (do_ckpt ? "checkpoint" : "append") + ": " + e.what());
      return;
    }
    const bool tripped =
        armed && failpoint::trips(site) > trips_before;
    failpoint::disarm_all();

    if (ok) {
      if (tripped) {
        fail("operation succeeded although the failpoint tripped");
        return;
      }
      if (!do_ckpt) {
        r_.advance_delta(d0);
        commit_shadow();
        ship_to_index(d);
      }
      return;
    }

    // The operation died. That must be our kill, and reopening must
    // recover a committed epoch.
    if (!tripped) {
      fail("operation failed without the failpoint tripping");
      return;
    }
    ++kills_;
    if (do_ckpt)
      ++checkpoint_kills_;
    else
      ++journal_kills_;
    log("kill iter=" + std::to_string(iter) +
        (do_ckpt ? " checkpoint " : " append ") + site);

    try {
      journal_.emplace(DeltaJournal::open(base_path_, opt_));
    } catch (const std::exception& e) {
      fail(std::string("reopen after kill failed: ") + e.what());
      return;
    }

    if (!do_ckpt && arena_equal(journal_->labels(), r_.labels())) {
      // The frame (and possibly a fold) fully reached disk before the
      // kill: the append IS committed.
      r_.advance_delta(d0);
      commit_shadow();
      if (!oracle_check(journal_->labels())) return;
      ship_to_index(d);
      return;
    }
    // Otherwise recovery must land exactly on the last committed epoch,
    // bit-identical to the from-scratch oracle.
    if (!arena_equal(journal_->labels(), committed_)) {
      fail("recovery landed on neither the committed nor the appended "
           "epoch");
      return;
    }
    (void)oracle_check(journal_->labels());
  }

  // --- failure reporting --------------------------------------------------

  bool fail(const std::string& why) {
    failed_ = true;
    const std::string artifact =
        artifact_dir() + "crash_fuzz_" + std::to_string(run_seed()) + ".log";
    std::ofstream out(artifact);
    for (const std::string& line : log_) out << line << "\n";
    out << "FAIL: " << why << "\n";
    ADD_FAILURE() << why << "\n  repro: crash_recovery_fuzz_test --seed "
                  << run_seed() << " --kills " << kill_budget()
                  << "\n  op log: " << artifact;
    return false;
  }

  void log(std::string line) { log_.push_back(std::move(line)); }

  std::mt19937_64 rng_;
  IncrementalRelabeler r_;
  std::string base_path_;
  JournalOptions opt_;
  std::optional<DeltaJournal> journal_;
  // Committed shadow: advanced only when an epoch is provably on disk.
  bits::LabelArena committed_;
  Tree committed_tree_;
  std::vector<NodeId> committed_map_;
  // Structural mirror.
  std::vector<NodeId> parent_;
  std::vector<std::uint8_t> alive_;
  std::vector<int> kids_;
  std::size_t live_ = 0;
  // Serving side.
  std::optional<ForestIndex> index_;
  std::uint64_t index_chain_ = 0;
  // Accounting.
  int kills_ = 0;
  int journal_kills_ = 0;
  int checkpoint_kills_ = 0;
  int apply_kills_ = 0;
  int commits_ = 0;
  bool failed_ = false;
  std::vector<std::string> log_;
};

TEST(CrashRecoveryFuzz, KillPointsRecoverToCommittedEpoch) {
  CrashDriver d(run_seed());
  d.run(kill_budget());
  if (::testing::Test::HasFailure()) return;
  EXPECT_GE(d.kills(), kill_budget());
  // The budget must genuinely cover all three operations.
  EXPECT_GT(d.journal_kills(), 0);
  EXPECT_GT(d.checkpoint_kills(), 0);
  EXPECT_GT(d.apply_kills(), 0);
  EXPECT_GT(d.commits(), 1);
  std::cout << "[  kills   ] " << d.kills() << " (append "
            << d.journal_kills() << ", checkpoint " << d.checkpoint_kills()
            << ", apply " << d.apply_kills() << "), commits " << d.commits()
            << "\n";
}

// Degradation contract: corrupt deltas quarantine one tree with typed
// errors; the rest of the forest keeps serving; a clean update repairs.
TEST(CrashRecoveryFuzz, QuarantinedTreeDoesNotTakeDownTheForest) {
  IncrementalRelabeler ra(tree::random_tree(60, 1));
  IncrementalRelabeler rb(tree::random_tree(60, 2));
  ForestIndex index;
  const serve::TreeId ta = index.add(ra.to_loaded());
  const serve::TreeId tb = index.add(rb.to_loaded());

  // A delta whose chain is wrong is an integrity failure every time.
  for (int i = 0; i < 3; ++i) (void)ra.insert_leaf(0);
  LabelDelta bad = ra.make_delta();
  bad.base_chain ^= 0x1234;
  bad.new_chain = LabelStore::chain_hash(bad.base_chain, bad);
  for (int i = 0; i < 3; ++i) {
    EXPECT_THROW((void)index.apply_delta(ta, bad), std::runtime_error);
    EXPECT_EQ(index.health(ta), i < 2 ? TreeHealth::kLive
                                      : TreeHealth::kQuarantined);
  }

  // Typed errors per request; tb still answers.
  const std::vector<Request> reqs{{ta, 0, 1}, {tb, 0, 1}, {99, 0, 1},
                                  {tb, 0, 5999}};
  std::vector<serve::QueryResult> res = index.query_batch(reqs);
  EXPECT_EQ(res[0].status, QueryStatus::kQuarantined);
  EXPECT_EQ(res[1].status, QueryStatus::kOk);
  EXPECT_EQ(res[2].status, QueryStatus::kBadTree);
  EXPECT_EQ(res[3].status, QueryStatus::kBadNode);
  EXPECT_EQ(res[1].dist, index.query_batch({&reqs[1], 1})[0].dist);
  const auto st = index.cache_stats();
  EXPECT_EQ(st.quarantined, 1u);
  EXPECT_GE(st.integrity_failures, 3u);
  EXPECT_GE(st.quarantine_events, 1u);

  // Repair: a clean full update restores live serving.
  (void)index.update(ta, ra.to_loaded());
  EXPECT_EQ(index.health(ta), TreeHealth::kLive);
  EXPECT_EQ(index.query_batch({reqs.data(), 1})[0].status, QueryStatus::kOk);
}

}  // namespace

int main(int argc, char** argv) {
  testing::InitGoogleTest(&argc, argv);
  const auto from_env = [](const char* name) -> std::string {
    const char* v = std::getenv(name);
    return v == nullptr ? std::string() : std::string(v);
  };
  if (const std::string s = from_env("TREELAB_CRASH_SEED"); !s.empty())
    g_cfg.seed = std::strtoull(s.c_str(), nullptr, 10);
  if (const std::string s = from_env("TREELAB_CRASH_KILLS"); !s.empty())
    g_cfg.kills = std::atoi(s.c_str());
  g_cfg.artifact_dir = from_env("TREELAB_CRASH_ARTIFACT_DIR");
  for (int i = 1; i + 1 < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--seed")
      g_cfg.seed = std::strtoull(argv[++i], nullptr, 10);
    else if (a == "--kills")
      g_cfg.kills = std::atoi(argv[++i]);
    else if (a == "--artifact-dir")
      g_cfg.artifact_dir = argv[++i];
  }
  return RUN_ALL_TESTS();
}
