// net/Server — the single-threaded epoll front end of the serving layer.
//
// One event loop owns every socket. Query traffic is batch-RPC: a client
// sends kQueryBatch frames, the server answers each with one kQueryReply
// from ForestIndex::query_batch, whose typed per-request results mean one
// bad tree or node id degrades one result, never the connection, and never
// the process. A label that fails to decode fails its whole batch: that batch
// gets one kError frame, the connection is closed, and the loop serves on.
// Replication traffic rides the same loop: a follower sends kSubscribe and
// the server streams the attached DeltaJournal's committed records (kDelta
// frames) at it, falling back to a full kSnapshot when the
// follower's epoch predates the journal (see net/replicator.hpp for the
// other side). A subscriber that drains the committed records gets one
// kCaughtUp frame (re-armed by every later delta/snapshot), and any peer
// may send kStats to receive the process's full metrics registry as a
// kStatsReply — the wire half of the obs/ layer; the loop also keeps the
// `net.server.subscriber_lag_records` / `net.server.subscribers` gauges
// fresh from the journal tail positions.
//
// Robustness posture — a misbehaving peer must never take the server down:
//   * framing violations (bad magic, bad checksum, oversized length) get
//     one kError frame and the connection is closed; the decoder never
//     resynchronizes a corrupted stream,
//   * bounded output: each connection's write buffer is capped — past
//     write_buffer_limit the server stops READING from that connection
//     (backpressure), so a slow consumer throttles itself, not the server,
//   * global shed: past max_buffered_bytes of total queued output, new
//     batches are answered kOverloaded without being executed — explicit
//     load shedding beats silent queue growth,
//   * deadlines: an idle reaper closes connections quiet past
//     idle_timeout_ms (subscribers exempt — caught-up is their idle) and
//     connections whose writes have stalled past write_stall_timeout_ms,
//   * graceful drain: stop()/request_stop() (async-signal-safe, for a
//     SIGTERM handler) close the listener, flush what is queued within
//     drain_timeout_ms, then exit the loop,
//   * failpoints: every socket op routes through net/net_io, so the
//     net.accept / net.read / net.write / net.frame.corrupt sites inject
//     faults on a live server (tests/net_fault_fuzz_test drives them).
//
// Threading: start() spawns the loop thread. replicate(), announce_end(),
// stop(), request_stop() and stats() may be called from any thread; the
// journal serializes replicate() appends against the loop's snapshot
// builds with its own internal mutex (DeltaJournal locks itself), while
// delta streaming reads the journal file lock-free through the Tail
// cursor protocol. Everything else — the connection table, drain state,
// epoll bookkeeping — is confined to the loop thread, an invariant the
// Impl encodes as a util::ThreadRole capability so Clang's thread-safety
// analysis rejects off-thread access at compile time.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/delta_journal.hpp"
#include "serve/forest_index.hpp"

namespace treelab::net {

struct ServerOptions {
  std::string bind_addr = "127.0.0.1";
  /// 0 = ephemeral; read the bound port back with port() after start().
  std::uint16_t port = 0;
  /// Per-connection queued-output cap: past it the connection is no longer
  /// read from until the peer drains (backpressure).
  std::size_t write_buffer_limit = std::size_t{4} << 20;
  /// Total queued output across all connections past which new query
  /// batches are shed with kOverloaded instead of executed.
  std::size_t max_buffered_bytes = std::size_t{64} << 20;
  /// Non-subscriber connections with no traffic for this long are reaped.
  int idle_timeout_ms = 30'000;
  /// Connections whose queued output has not moved for this long are dead
  /// peers holding buffer memory: reaped.
  int write_stall_timeout_ms = 10'000;
  /// stop(): how long to keep flushing queued output before closing.
  int drain_timeout_ms = 2'000;
};

class Server {
 public:
  /// Accepted connections beyond this many are closed immediately.
  static constexpr std::size_t kMaxConnections = 256;
  /// Largest frame payload a peer may make the server buffer.
  static constexpr std::uint64_t kMaxFramePayload = std::uint64_t{64} << 20;

  explicit Server(serve::ForestIndex& index, ServerOptions opt = {});
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Leader mode: serve `journal`'s committed records to subscribers. Call
  /// before start(); the journal must outlive the server. All replicate()
  /// appends must go through this server from then on (they are serialized
  /// against snapshot builds).
  void attach_journal(core::DeltaJournal* journal);

  /// Binds, listens, and spawns the event loop. Throws util::IoError when
  /// the socket cannot be bound.
  void start();

  /// Graceful drain and join. Idempotent.
  void stop();

  /// Requests a graceful drain without blocking; async-signal-safe (one
  /// write() on the wake pipe) — call it from a SIGTERM/SIGINT handler.
  void request_stop() noexcept;

  /// The bound port (valid after start()).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// Leader: appends `d` to the attached journal (same contract as
  /// DeltaJournal::append) and wakes the loop to stream it. Thread-safe.
  void replicate(const core::LabelDelta& d);

  /// Leader: no more deltas will come — each subscriber gets one kEnd
  /// frame when it is fully caught up (tests and drains key off it).
  void announce_end();

  struct Stats {
    std::uint64_t accepted = 0;
    std::uint64_t closed = 0;
    std::uint64_t frames_in = 0;
    std::uint64_t bad_frames = 0;     ///< framing violations from peers
    std::uint64_t query_batches = 0;  ///< batches executed
    std::uint64_t queries = 0;        ///< individual requests answered
    std::uint64_t overloaded = 0;     ///< batches shed past the budget
    std::uint64_t subscribes = 0;     ///< kSubscribe frames accepted
    std::uint64_t stats_requests = 0;  ///< kStats frames answered
    std::uint64_t snapshots_sent = 0;
    std::uint64_t deltas_sent = 0;
    std::uint64_t ends_sent = 0;      ///< subscribers that finished
    std::uint64_t caught_up_sent = 0;  ///< kCaughtUp notifications sent
    std::uint64_t reaped_idle = 0;
    std::uint64_t reaped_stalled = 0;
    std::uint64_t accept_faults = 0;  ///< net.accept failpoint trips
    std::uint64_t read_paused = 0;    ///< backpressure engagements
  };
  [[nodiscard]] Stats stats() const;

  /// Subscribers that have received kEnd (caught up after announce_end()).
  [[nodiscard]] std::uint64_t subscribers_finished() const noexcept;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  std::uint16_t port_ = 0;
};

}  // namespace treelab::net
