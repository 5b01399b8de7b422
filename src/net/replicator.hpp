// net/Replicator — the follower half of journal replication.
//
// A Replicator keeps one tree of a local ForestIndex converged onto a
// leader's DeltaJournal over the wire protocol (net/frame.hpp):
//
//   1. connect, send kSubscribe carrying the epoch-chain value the local
//      tree sits at (ForestIndex::chain) — or force_snapshot when the
//      local state is untrusted,
//   2. the leader tails its journal from exactly that epoch: kDelta frames
//      are verified (the delta's new_chain must equal
//      LabelStore::chain_hash(base_chain, delta) — a corrupted-but-
//      checksum-colliding record cannot slip in) and applied through
//      ForestIndex::apply_delta, which itself rejects any delta that does
//      not chain from the live epoch,
//   3. when the follower is too far behind (its epoch was folded out of
//      the leader's journal), the leader sends a full kSnapshot instead;
//      the follower installs it with ForestIndex::update(tree, loaded,
//      chain) — adopting the leader's chain verbatim, because the journal
//      preserves its chain across checkpoint folds,
//   3b. whenever the follower drains the leader's committed records the
//      leader sends one kCaughtUp; the follower flips its
//      `net.replicator.behind` gauge to 0 — the observable signal that the
//      local tree equals the leader's (it goes back to 1 on the next
//      delta/snapshot, and a fresh session always starts at 1),
//   4. any failure — connect refused, read timeout, torn or corrupt frame,
//      a delta that does not apply — drops the connection and reconnects
//      with jittered exponential backoff, resubscribing from whatever
//      epoch the local tree actually reached. Progress resets the backoff.
//
// Because every applied step is verified against the epoch chain, the
// follower's arena after catch-up is bit-identical to the leader's — the
// property tests/net_fault_fuzz_test asserts under injected faults.
//
// The target tree must already exist in the index (any placeholder
// labeling will do; the first snapshot replaces it wholesale).
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "serve/forest_index.hpp"
#include "util/thread_annotations.hpp"

namespace treelab::net {

struct ReplicatorOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  serve::TreeId tree = 0;   ///< tree to converge (must exist in the index)
  int connect_timeout_ms = 2'000;
  /// No frame for this long mid-session means a dead leader: reconnect.
  int read_timeout_ms = 5'000;
  int backoff_min_ms = 5;
  int backoff_max_ms = 1'000;
  std::uint64_t backoff_seed = 1;  ///< jitter PRNG seed (deterministic tests)
  /// run() returns after the leader's kEnd (drain protocols, tests);
  /// false keeps following across leader restarts until stop().
  bool stop_on_end = false;
  /// Consecutive no-progress connection attempts before run() gives up;
  /// -1 = never.
  int max_attempts = -1;
};

class Replicator {
 public:
  Replicator(serve::ForestIndex& index, ReplicatorOptions opt);
  ~Replicator();
  Replicator(const Replicator&) = delete;
  Replicator& operator=(const Replicator&) = delete;

  /// Blocking follow loop. Returns true when it ended deliberately (kEnd
  /// with stop_on_end, or stop()); false when max_attempts consecutive
  /// attempts made no progress.
  bool run();

  /// run() on a background thread.
  void start();
  /// Signals the loop to exit and joins the thread (if start()ed).
  void stop();

  /// start()'s eventual run() result; meaningful after stop().
  [[nodiscard]] bool ended_cleanly() const noexcept {
    return ended_cleanly_.load(std::memory_order_acquire);
  }

  struct Stats {
    std::uint64_t connects = 0;
    std::uint64_t connect_failures = 0;
    std::uint64_t reconnects = 0;        ///< sessions that died mid-stream
    std::uint64_t snapshots_applied = 0;
    std::uint64_t deltas_applied = 0;
    std::uint64_t chain_rejects = 0;     ///< deltas failing chain checks
    std::uint64_t frame_errors = 0;      ///< torn/corrupt/unparsable frames
    std::uint64_t ends_seen = 0;
    std::uint64_t caught_ups_seen = 0;   ///< leader said lag hit zero
  };
  [[nodiscard]] Stats stats() const;

 private:
  enum class SessionEnd : std::uint8_t { kReconnect, kEnded, kStopped };

  [[nodiscard]] SessionEnd session(int fd) TREELAB_REQUIRES(follow_role_);
  [[nodiscard]] bool apply_snapshot(const std::string& payload)
      TREELAB_REQUIRES(follow_role_);
  [[nodiscard]] bool apply_delta(const std::string& payload)
      TREELAB_REQUIRES(follow_role_);
  void backoff(int consecutive_failures) TREELAB_REQUIRES(follow_role_);
  [[nodiscard]] std::uint64_t next_rand() noexcept
      TREELAB_REQUIRES(follow_role_);
  void register_metrics();

  serve::ForestIndex& index_;
  ReplicatorOptions opt_;
  /// Confinement capability of the follow loop: exactly one thread runs
  /// run() at a time (the caller's, or the one start() spawns), and only
  /// run() asserts the role. The session state below is thread-local to
  /// that loop in all but storage — the annotation makes the compiler
  /// keep it that way.
  util::ThreadRole follow_role_;
  std::uint64_t rng_ TREELAB_GUARDED_BY(follow_role_);
  /// Ask the leader for a full snapshot next session: set after a
  /// snapshot failed validation.
  bool force_snapshot_ TREELAB_GUARDED_BY(follow_role_) = false;
  /// Any apply succeeded this session.
  bool progressed_ TREELAB_GUARDED_BY(follow_role_) = false;
  std::thread thread_;
  bool started_ = false;
  std::atomic<bool> stop_{false};
  std::atomic<bool> ended_cleanly_{false};

  struct Counters {
    std::atomic<std::uint64_t> connects{0}, connect_failures{0},
        reconnects{0}, snapshots_applied{0}, deltas_applied{0},
        chain_rejects{0}, frame_errors{0}, ends_seen{0}, caught_ups_seen{0};
  };
  Counters ctr_;

  // Registry exposition: `net.replicator.behind` is 1 from session start
  // until the leader's kCaughtUp/kEnd says the stream drained;
  // `net.replicator.chain` mirrors the epoch the local tree last reached.
  // Counters above ride callbacks (guards unregister them at destruction).
  obs::Gauge& behind_gauge_ =
      obs::Registry::global().gauge("net.replicator.behind");
  obs::Gauge& chain_gauge_ =
      obs::Registry::global().gauge("net.replicator.chain");
  std::vector<obs::CallbackGuard> obs_guards_;
};

}  // namespace treelab::net
