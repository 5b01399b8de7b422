// Replication fault fuzzer — the lockdown for the net layer (PR 7).
//
// One process, loopback TCP: a leader (IncrementalRelabeler + DeltaJournal
// + net::Server) is driven through randomized edit streams while a follower
// (ForestIndex + net::Replicator) tails the journal over the wire and the
// net.* failpoints inject faults at every socket boundary — dropped
// connections, short reads, short and torn writes, flipped frame bytes,
// refused accepts — and the follower itself is killed and restarted
// mid-stream. Query traffic (including deliberately malformed frames) rides
// the same server the whole time. The journal checkpoints aggressively, so
// followers routinely fall off the tail and recover through the full
// kSnapshot path, not just kDelta streaming.
//
// Properties asserted:
//   * convergence — after each round's faults are disarmed, the follower's
//     epoch chain reaches the leader's; at the end its arena is
//     BIT-IDENTICAL to the leader's (serialized container comparison),
//   * survival — no injected fault or garbage-spewing client ever takes
//     the server down: a clean query batch must still succeed afterwards,
//   * clean end — announce_end() delivers kEnd to a caught-up subscriber
//     and a stop_on_end follower exits with ended_cleanly().
//
// Reproducibility: the edit/fault schedule is a pure function of --seed;
// failures print the seed and write the edit log as an artifact. (Exact
// fault *placement* depends on thread interleaving — the properties above
// hold for every interleaving, which is the point.)
//
// Flags (also readable from the environment, for ctest/CI-driven runs):
//   --seed N   / TREELAB_NET_FUZZ_SEED    override the run seed
//   --edits N  / TREELAB_NET_FUZZ_EDITS   edits per round (default 200)
//   --rounds N / TREELAB_NET_FUZZ_ROUNDS  fault rounds (default 6 — with
//                                         one fault armed per edit, the
//                                         default budget is 1200 faults)
//   --artifact-dir D / TREELAB_NET_FUZZ_ARTIFACT_DIR
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "core/delta_journal.hpp"
#include "core/incremental_relabeler.hpp"
#include "core/label_store.hpp"
#include "net/client.hpp"
#include "net/net_io.hpp"
#include "net/replicator.hpp"
#include "net/server.hpp"
#include "serve/forest_index.hpp"
#include "tree/generators.hpp"
#include "util/failpoint.hpp"
#include "util/fs.hpp"

namespace {

using namespace treelab;
using core::DeltaJournal;
using core::IncrementalRelabeler;
using core::LabelStore;
using tree::kNoNode;
using tree::NodeId;
using tree::Tree;
using util::FailMode;

struct FuzzConfig {
  std::uint64_t seed = 0;  // 0 = per-test default
  int edits = 0;           // 0 = default (200 per round)
  int rounds = 0;          // 0 = default (6)
  std::string artifact_dir;
};
FuzzConfig g_cfg;

int edits_per_round() { return g_cfg.edits > 0 ? g_cfg.edits : 200; }
int fuzz_rounds() { return g_cfg.rounds > 0 ? g_cfg.rounds : 6; }

std::string artifact_dir() {
  return g_cfg.artifact_dir.empty() ? testing::TempDir()
                                    : g_cfg.artifact_dir + "/";
}

/// One full leader/follower fuzz run. Owns every moving part; the public
/// entry is run(), which drives the rounds and the final convergence +
/// survival checks.
class NetFuzz {
 public:
  explicit NetFuzz(std::uint64_t seed) : seed_(seed), rng_(seed) {}

  ~NetFuzz() {
    // Teardown order matters: the replicator holds a connection into the
    // server, the server tails the journal.
    if (repl_) repl_->stop();
    if (server_) server_->stop();
    repl_.reset();
    server_.reset();
    journal_.reset();
    util::failpoint::disarm_all();
    cleanup_files();
  }

  void run() {
    build_leader();
    build_follower();
    const int rounds = fuzz_rounds();
    for (int r = 0; r < rounds && !failed_; ++r) {
      fault_round(r);
      if (failed_) break;
      await_convergence("round " + std::to_string(r));
    }
    if (failed_) return;
    final_checks();
  }

  [[nodiscard]] std::uint64_t faults_armed() const { return faults_armed_; }

 private:
  using Clock = std::chrono::steady_clock;

  // -- setup ---------------------------------------------------------------

  void build_leader() {
    base_path_ = artifact_dir() + "treelab_net_fuzz_" + std::to_string(seed_) +
                 ".lbl";
    cleanup_files();
    const NodeId n = static_cast<NodeId>(3 + rng_() % 40);
    const Tree base = tree::random_tree(n, seed_ ^ 0x9e3779b97f4a7c15ULL);
    relab_ = std::make_unique<IncrementalRelabeler>(base);
    mirror_init(base);
    log_.push_back("base random " + std::to_string(n));

    core::JournalOptions jopt;
    jopt.sync = false;
    // Fold the journal after a handful of records: subscribers keep losing
    // the tail mid-stream, so the kSnapshot catch-up path runs constantly.
    jopt.checkpoint_records = 3 + rng_() % 6;
    journal_.emplace(DeltaJournal::create(base_path_, relab_->to_loaded(),
                                          jopt));

    leader_index_ = std::make_unique<serve::ForestIndex>();
    leader_tree_ = leader_index_->add(relab_->to_loaded());

    net::ServerOptions sopt;
    sopt.port = 0;
    sopt.idle_timeout_ms = 60'000;   // the reaper must not race the fuzz
    sopt.write_stall_timeout_ms = 2'000;
    sopt.drain_timeout_ms = 1'000;
    server_ = std::make_unique<net::Server>(*leader_index_, sopt);
    server_->attach_journal(&*journal_);
    server_->start();
  }

  void build_follower() {
    follower_index_ = std::make_unique<serve::ForestIndex>();
    // Any placeholder labeling works: its chain matches nothing the leader
    // ever had, so the first subscribe comes back as a full snapshot.
    follower_tree_ = follower_index_->add(
        {IncrementalRelabeler::scheme_tag(), journal_->params(), {}});
    start_follower(/*stop_on_end=*/false);
  }

  void start_follower(bool stop_on_end) {
    if (repl_) repl_->stop();
    net::ReplicatorOptions ropt;
    ropt.port = server_->port();
    ropt.tree = follower_tree_;
    ropt.connect_timeout_ms = 1'000;
    ropt.read_timeout_ms = 2'000;
    ropt.backoff_min_ms = 1;
    ropt.backoff_max_ms = 50;
    ropt.backoff_seed = rng_();
    ropt.stop_on_end = stop_on_end;
    repl_ = std::make_unique<net::Replicator>(*follower_index_, ropt);
    repl_->start();
  }

  // -- the fuzz loop -------------------------------------------------------

  void fault_round(int round) {
    const int budget = edits_per_round();
    for (int e = 0; e < budget && !failed_; ++e) {
      random_edit();
      ++pending_;
      if (pending_ > 0 && rng_() % 4 == 0) ship();
      arm_random_fault();
      if (rng_() % 8 == 0) fire_query();
      if (rng_() % 64 == 0) {
        // Kill-point: the follower dies mid-stream (possibly mid-snapshot)
        // and a fresh one resubscribes from whatever epoch it reached.
        log_.push_back("restart-follower");
        start_follower(/*stop_on_end=*/false);
        ++follower_restarts_;
      }
    }
    if (pending_ > 0) ship();
    (void)round;
    util::failpoint::disarm_all();
  }

  void ship() {
    const core::LabelDelta d = relab_->make_delta();
    if (d.base_chain != journal_->chain()) {
      fail("relabeler and journal chain diverged before ship");
      return;
    }
    server_->replicate(d);  // journal append + wake the streaming loop
    relab_->advance_delta(d);
    leader_index_->apply_delta(leader_tree_, d);
    pending_ = 0;
    ++deltas_shipped_;
  }

  void arm_random_fault() {
    ++faults_armed_;
    const std::uint64_t skip = rng_() % 6;
    switch (rng_() % 9) {
      case 0:
      case 1:
        util::failpoint::arm("net.read", FailMode::kError, skip, 1);
        break;
      case 2:
        util::failpoint::arm("net.read", FailMode::kShortRead, skip, 1,
                             1 + rng_() % 7);
        break;
      case 3:
        util::failpoint::arm("net.write", FailMode::kError, skip, 1);
        break;
      case 4:
        util::failpoint::arm("net.write", FailMode::kShortWrite, skip, 1,
                             rng_() % 64);
        break;
      case 5:
        util::failpoint::arm("net.write", FailMode::kTornWrite, skip, 1,
                             rng_() % 64);
        break;
      case 6:
      case 7:
        util::failpoint::arm("net.frame.corrupt", FailMode::kCorrupt, skip, 1,
                             rng_());
        break;
      default:
        util::failpoint::arm("net.accept", FailMode::kError, 0, 1);
        break;
    }
  }

  void fire_query() {
    if (!client_ || !client_->connected())
      client_ = std::make_unique<net::QueryClient>("127.0.0.1",
                                                   server_->port(), 500);
    if (!client_->connected()) {
      client_.reset();  // accept fault ate the connect; try again later
      return;
    }
    std::vector<serve::Request> reqs(1 + rng_() % 8);
    const auto ids = static_cast<std::uint32_t>(relab_->size() + 4);
    for (serve::Request& r : reqs) {
      r.tree = rng_() % 16 == 0 ? 999 : leader_tree_;  // some kBadTree
      r.u = static_cast<NodeId>(rng_() % ids);         // some kBadNode
      r.v = static_cast<NodeId>(rng_() % ids);
    }
    std::vector<serve::QueryResult> out;
    const auto st = client_->query_batch(reqs, out, 1'000);
    // Under armed faults any status is legitimate; what is NOT legitimate
    // is a wrong-shaped success.
    if (st == net::QueryClient::BatchStatus::kOk && out.size() != reqs.size())
      fail("query reply size mismatch");
    if (st == net::QueryClient::BatchStatus::kError) client_.reset();
  }

  // -- convergence + survival ----------------------------------------------

  void await_convergence(const std::string& where) {
    const Clock::time_point deadline = Clock::now() + std::chrono::seconds(60);
    while (follower_index_->chain(follower_tree_) != journal_->chain()) {
      if (Clock::now() >= deadline) {
        fail("convergence timeout at " + where +
             " (follower chain stuck behind leader)");
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }

  void final_checks() {
    // A garbage-spewing peer, deterministically (all faults disarmed): the
    // server must answer with a framing error and keep serving.
    const std::uint64_t bad_before = server_->stats().bad_frames;
    spew_garbage();
    const Clock::time_point deadline = Clock::now() + std::chrono::seconds(30);
    while (server_->stats().bad_frames == bad_before) {
      if (Clock::now() >= deadline) {
        fail("server never flagged the garbage frame");
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }

    // Survival: a clean batch still round-trips after every injected fault.
    net::QueryClient probe("127.0.0.1", server_->port());
    ASSERT_TRUE(probe.connected()) << "server unreachable after fuzzing";
    const std::vector<serve::Request> reqs{{leader_tree_, 0, 0}};
    std::vector<serve::QueryResult> out;
    EXPECT_EQ(probe.query_batch(reqs, out),
              net::QueryClient::BatchStatus::kOk)
        << "server cannot serve a clean batch after fuzzing (seed " << seed_
        << ")";

    // Clean end: a stop_on_end follower catches up, gets kEnd, and exits.
    server_->announce_end();
    start_follower(/*stop_on_end=*/true);
    const Clock::time_point end_deadline =
        Clock::now() + std::chrono::seconds(60);
    while (repl_->stats().ends_seen == 0) {
      if (Clock::now() >= end_deadline) {
        fail("follower never saw kEnd after announce_end");
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    repl_->stop();
    EXPECT_TRUE(repl_->ended_cleanly());

    // The headline property: the follower's arena is bit-identical to the
    // leader's committed labeling, serialized container vs container.
    EXPECT_EQ(follower_index_->chain(follower_tree_), journal_->chain());
    std::ostringstream leader_bytes, follower_bytes;
    LabelStore::save_mappable(leader_bytes, journal_->scheme(),
                              journal_->labels(), journal_->params());
    const LabelStore::LoadedArena snap =
        follower_index_->snapshot_labels(follower_tree_);
    LabelStore::save_mappable(follower_bytes, snap.scheme, snap.labels,
                              snap.params);
    if (leader_bytes.str() != follower_bytes.str())
      fail("follower arena is not bit-identical to the leader's");

    const net::Server::Stats st = server_->stats();
    const net::Replicator::Stats rs = repl_->stats();
    EXPECT_GT(st.accepted, 0u);
    EXPECT_GT(st.frames_in, 0u);
    EXPECT_GT(st.deltas_sent + st.snapshots_sent, 0u);
    EXPECT_GT(st.ends_sent, 0u);
    std::cout << "[net_fault_fuzz] seed=" << seed_ << " faults_armed="
              << faults_armed_ << " deltas_shipped=" << deltas_shipped_
              << " follower_restarts=" << follower_restarts_
              << " | server: accepted=" << st.accepted << " bad_frames="
              << st.bad_frames << " overloaded=" << st.overloaded
              << " snapshots_sent=" << st.snapshots_sent << " deltas_sent="
              << st.deltas_sent << " | follower: connects=" << rs.connects
              << " frame_errors=" << rs.frame_errors << " chain_rejects="
              << rs.chain_rejects << " | trips: read="
              << util::failpoint::trips("net.read") << " write="
              << util::failpoint::trips("net.write") << " corrupt="
              << util::failpoint::trips("net.frame.corrupt") << " accept="
              << util::failpoint::trips("net.accept") << "\n";
  }

  void spew_garbage() {
    const int fd = net::connect_with_timeout("127.0.0.1", server_->port(),
                                             1'000);
    ASSERT_GE(fd, 0) << "garbage client could not connect";
    const char junk[] = "NOTAFRAME-NOTAFRAME-NOTAFRAME-NOTAFRAME";
    std::size_t sent = 0;
    while (sent < sizeof(junk)) {
      const net::IoResult w =
          net::write_some(fd, junk + sent, sizeof(junk) - sent);
      if (w.status != net::IoStatus::kOk) break;
      sent += w.n;
    }
    ::close(fd);
  }

  // -- randomized edits (structural mirror, as in edit_fuzz_test) ----------

  void mirror_init(const Tree& base) {
    parent_.resize(static_cast<std::size_t>(base.size()));
    dead_.assign(static_cast<std::size_t>(base.size()), 0);
    kids_.assign(static_cast<std::size_t>(base.size()), 0);
    for (NodeId v = 0; v < base.size(); ++v) {
      parent_[static_cast<std::size_t>(v)] = base.parent(v);
      if (base.parent(v) != kNoNode)
        ++kids_[static_cast<std::size_t>(base.parent(v))];
    }
  }

  void random_edit() {
    const std::uint64_t pick = rng_() % 100;
    if (pick < 55) {  // grow: keeps every other op well-fed with leaves
      const NodeId p = pick_live();
      const auto w = static_cast<std::uint32_t>(1 + rng_() % 8);
      log_.push_back("I " + std::to_string(p) + " " + std::to_string(w));
      (void)relab_->insert_leaf(p, w);
      parent_.push_back(p);
      dead_.push_back(0);
      kids_.push_back(0);
      ++kids_[static_cast<std::size_t>(p)];
    } else if (pick < 70) {
      const NodeId v = pick_live_leaf();
      if (v == kNoNode) return random_edit_fallback();
      log_.push_back("D " + std::to_string(v));
      relab_->delete_leaf(v);
      dead_[static_cast<std::size_t>(v)] = 1;
      --kids_[static_cast<std::size_t>(parent_[static_cast<std::size_t>(v)])];
    } else if (pick < 85) {
      const NodeId v = pick_live_nonroot();
      if (v == kNoNode) return random_edit_fallback();
      const auto w = static_cast<std::uint32_t>(1 + rng_() % 8);
      log_.push_back("W " + std::to_string(v) + " " + std::to_string(w));
      relab_->set_edge_weight(v, w);
    } else if (pick < 95) {
      // Move one leaf: detach + immediate re-attach elsewhere. Exercises
      // the detach/attach delta paths without a long-lived detached state.
      const NodeId v = pick_live_leaf();
      if (v == kNoNode) return random_edit_fallback();
      --kids_[static_cast<std::size_t>(parent_[static_cast<std::size_t>(v)])];
      dead_[static_cast<std::size_t>(v)] = 1;  // not a parent candidate now
      relab_->detach_subtree(v);
      const NodeId p = pick_live();
      const auto w = static_cast<std::uint32_t>(1 + rng_() % 8);
      log_.push_back("M " + std::to_string(v) + " " + std::to_string(p) +
                     " " + std::to_string(w));
      relab_->attach_subtree(p, w);
      dead_[static_cast<std::size_t>(v)] = 0;
      parent_[static_cast<std::size_t>(v)] = p;
      ++kids_[static_cast<std::size_t>(p)];
    } else {
      log_.push_back("C");
      const std::vector<NodeId> map = relab_->compact();
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
      dead_.assign(parent_.size(), 0);
    }
  }

  void random_edit_fallback() {  // nothing eligible: grow instead
    const NodeId p = pick_live();
    log_.push_back("I " + std::to_string(p) + " 1");
    (void)relab_->insert_leaf(p, 1);
    parent_.push_back(p);
    dead_.push_back(0);
    kids_.push_back(0);
    ++kids_[static_cast<std::size_t>(p)];
  }

  [[nodiscard]] NodeId pick_live() {
    for (;;) {  // the root is always live, so this terminates
      const auto i = static_cast<std::size_t>(rng_() % parent_.size());
      if (dead_[i] == 0) return static_cast<NodeId>(i);
    }
  }
  [[nodiscard]] NodeId pick_live_leaf() {
    for (int tries = 0; tries < 64; ++tries) {
      const auto i = static_cast<std::size_t>(rng_() % parent_.size());
      if (dead_[i] == 0 && kids_[i] == 0 && parent_[i] != kNoNode)
        return static_cast<NodeId>(i);
    }
    return kNoNode;
  }
  [[nodiscard]] NodeId pick_live_nonroot() {
    for (int tries = 0; tries < 64; ++tries) {
      const auto i = static_cast<std::size_t>(rng_() % parent_.size());
      if (dead_[i] == 0 && parent_[i] != kNoNode)
        return static_cast<NodeId>(i);
    }
    return kNoNode;
  }

  // -- failure reporting ---------------------------------------------------

  void fail(const std::string& what) {
    failed_ = true;
    const std::string path =
        artifact_dir() + "net_fuzz_" + std::to_string(seed_) + ".edits";
    std::ofstream out(path);
    for (const std::string& l : log_) out << l << "\n";
    out.close();
    ADD_FAILURE() << "net fault fuzz failure after " << log_.size() - 1
                  << " edits: " << what << "\n  repro: ./net_fault_fuzz_test"
                  << " --seed " << seed_ << " --edits " << edits_per_round()
                  << " --rounds " << fuzz_rounds()
                  << "\n  edit log: " << path;
  }

  void cleanup_files() {
    if (base_path_.empty()) return;
    util::remove_file(base_path_);
    util::remove_file(base_path_ + ".tmp");
    util::remove_file(DeltaJournal::journal_path(base_path_));
    util::remove_file(DeltaJournal::journal_path(base_path_) + ".tmp");
  }

  std::uint64_t seed_;
  std::mt19937_64 rng_;
  bool failed_ = false;

  std::string base_path_;
  std::unique_ptr<IncrementalRelabeler> relab_;
  std::optional<DeltaJournal> journal_;
  std::unique_ptr<serve::ForestIndex> leader_index_;
  serve::TreeId leader_tree_ = 0;
  std::unique_ptr<net::Server> server_;
  std::unique_ptr<serve::ForestIndex> follower_index_;
  serve::TreeId follower_tree_ = 0;
  std::unique_ptr<net::Replicator> repl_;
  std::unique_ptr<net::QueryClient> client_;

  // Structural mirror of the relabeler's id space (for picking edits).
  std::vector<NodeId> parent_;
  std::vector<std::uint8_t> dead_;
  std::vector<int> kids_;

  int pending_ = 0;  // edits not yet shipped as a delta
  std::uint64_t faults_armed_ = 0;
  std::uint64_t deltas_shipped_ = 0;
  std::uint64_t follower_restarts_ = 0;
  std::vector<std::string> log_;
};

void run_seed(std::uint64_t default_seed) {
  const std::uint64_t seed = g_cfg.seed != 0 ? g_cfg.seed : default_seed;
  NetFuzz fuzz(seed);
  fuzz.run();
}

TEST(NetFaultFuzz, LoopbackReplication) { run_seed(7001); }
TEST(NetFaultFuzz, LoopbackReplicationAlt) { run_seed(7002); }

}  // namespace

int main(int argc, char** argv) {
  testing::InitGoogleTest(&argc, argv);
  const auto from_env = [](const char* name) -> std::string {
    const char* v = std::getenv(name);
    return v == nullptr ? std::string() : std::string(v);
  };
  if (const std::string s = from_env("TREELAB_NET_FUZZ_SEED"); !s.empty())
    g_cfg.seed = std::strtoull(s.c_str(), nullptr, 10);
  if (const std::string s = from_env("TREELAB_NET_FUZZ_EDITS"); !s.empty())
    g_cfg.edits = std::atoi(s.c_str());
  if (const std::string s = from_env("TREELAB_NET_FUZZ_ROUNDS"); !s.empty())
    g_cfg.rounds = std::atoi(s.c_str());
  g_cfg.artifact_dir = from_env("TREELAB_NET_FUZZ_ARTIFACT_DIR");
  for (int i = 1; i + 1 < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--seed")
      g_cfg.seed = std::strtoull(argv[++i], nullptr, 10);
    else if (a == "--edits")
      g_cfg.edits = std::atoi(argv[++i]);
    else if (a == "--rounds")
      g_cfg.rounds = std::atoi(argv[++i]);
    else if (a == "--artifact-dir")
      g_cfg.artifact_dir = argv[++i];
  }
  return RUN_ALL_TESTS();
}
