#include "net/server.hpp"

#include <arpa/inet.h>
#include <cerrno>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <exception>
#include <map>
#include <optional>
#include <sstream>
#include <vector>

#include "net/frame.hpp"
#include "net/net_io.hpp"
#include "obs/metrics.hpp"
#include "util/failpoint.hpp"
#include "util/io_error.hpp"
#include "util/thread_annotations.hpp"

namespace treelab::net {

namespace fp = util::failpoint;

namespace {

using Clock = std::chrono::steady_clock;

std::int64_t ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(to - from)
      .count();
}

}  // namespace

struct Server::Impl {
  serve::ForestIndex& index;
  ServerOptions opt;
  core::DeltaJournal* journal = nullptr;

  int listen_fd = -1;
  int epoll_fd = -1;
  int wake_r = -1;
  int wake_w = -1;
  std::thread loop;
  bool running = false;

  /// The loop thread's confinement capability: held (via ThreadRoleGuard)
  /// for the whole of run_loop() and required by every loop-only method,
  /// so touching the connection table or drain state from another thread
  /// is a compile error under Clang, not a latent race. The journal needs
  /// no lock here — DeltaJournal serializes replicate() appends against
  /// the loop's snapshot builds internally, and delta streaming reads the
  /// journal file lock-free (Tail).
  util::ThreadRole loop_role;
  std::atomic<bool> stop_requested{false};
  std::atomic<bool> ended{false};
  std::atomic<std::uint64_t> finished_subs{0};

  struct Counters {
    std::atomic<std::uint64_t> accepted{0}, closed{0}, frames_in{0},
        bad_frames{0}, query_batches{0}, queries{0}, overloaded{0},
        subscribes{0}, stats_requests{0}, snapshots_sent{0}, deltas_sent{0},
        ends_sent{0}, caught_up_sent{0}, reaped_idle{0}, reaped_stalled{0},
        accept_faults{0}, read_paused{0};
  };
  Counters ctr;

  // Registry exposition: the request-latency histogram and the replication
  // gauges are owned (written from the loop thread, read from anywhere);
  // the per-message-type counters above are exposed through callbacks so
  // Server::Stats keeps its per-instance semantics (latest live server
  // wins the registry name).
  obs::Histogram& request_ns =
      obs::Registry::global().histogram("net.server.request_ns");
  obs::Gauge& lag_gauge =
      obs::Registry::global().gauge("net.server.subscriber_lag_records");
  obs::Gauge& subs_gauge =
      obs::Registry::global().gauge("net.server.subscribers");
  std::vector<obs::CallbackGuard> obs_guards;

  struct Conn {
    int fd = -1;
    FrameReader reader;
    std::string out;
    std::size_t out_pos = 0;
    bool subscriber = false;
    bool close_after_flush = false;
    bool paused = false;  ///< reading suspended by backpressure
    std::uint32_t epoll_events = 0;
    Clock::time_point last_activity;
    std::optional<Clock::time_point> stall_since;
    // Subscriber state: the epoch the follower sits at and the cursor
    // streaming records past it.
    std::uint64_t chain = 0;
    bool need_snapshot = false;
    bool sent_end = false;
    /// One kCaughtUp per catch-up transition: re-armed whenever a new
    /// delta or snapshot is queued at this subscriber.
    bool sent_caught_up = false;
    std::optional<core::DeltaJournal::Tail> tail;

    explicit Conn(int f, std::uint64_t max_payload, Clock::time_point now)
        : fd(f), reader(max_payload), last_activity(now) {}
  };
  std::map<int, Conn> conns TREELAB_GUARDED_BY(loop_role);
  /// Queued output across all connections. Mutated only by the loop
  /// thread, but atomic so the registry's buffered-bytes callback can read
  /// it from a stats snapshot on any thread.
  std::atomic<std::size_t> total_out{0};

  bool draining TREELAB_GUARDED_BY(loop_role) = false;
  Clock::time_point drain_deadline TREELAB_GUARDED_BY(loop_role);

  Impl(serve::ForestIndex& idx, ServerOptions o)
      : index(idx), opt(std::move(o)) {
    register_metrics();
  }

  /// Exposes the per-message-type counters and the buffered-output gauge
  /// on the process registry. Callbacks read relaxed atomics only, so they
  /// are safe from any snapshotting thread; the guards unregister them
  /// before this Impl dies.
  void register_metrics() {
    if constexpr (!obs::kEnabled) return;
    obs::Registry& reg = obs::Registry::global();
    const auto expose = [&](const char* name,
                            const std::atomic<std::uint64_t>& a) {
      obs_guards.push_back(reg.set_callback(
          name, [&a] { return a.load(std::memory_order_relaxed); }));
    };
    expose("net.server.accepted", ctr.accepted);
    expose("net.server.closed", ctr.closed);
    expose("net.server.frames_in", ctr.frames_in);
    expose("net.server.bad_frames", ctr.bad_frames);
    expose("net.server.query_batches", ctr.query_batches);
    expose("net.server.queries", ctr.queries);
    expose("net.server.overloaded", ctr.overloaded);
    expose("net.server.subscribes", ctr.subscribes);
    expose("net.server.stats_requests", ctr.stats_requests);
    expose("net.server.snapshots_sent", ctr.snapshots_sent);
    expose("net.server.deltas_sent", ctr.deltas_sent);
    expose("net.server.ends_sent", ctr.ends_sent);
    expose("net.server.caught_up_sent", ctr.caught_up_sent);
    expose("net.server.read_paused", ctr.read_paused);
    obs_guards.push_back(reg.set_callback("net.server.buffered_bytes", [this] {
      return static_cast<std::uint64_t>(
          total_out.load(std::memory_order_relaxed));
    }));
  }

  [[nodiscard]] static std::size_t pending(const Conn& c) noexcept {
    return c.out.size() - c.out_pos;
  }

  void wake() noexcept {
    const char b = 'w';
    // A full pipe already guarantees a pending wake; errors are moot.
    // lint: allow(io-failpoint): self-pipe poke, async-signal-safe by
    // lint: allow(io-failpoint): contract — a failpoint here could throw
    [[maybe_unused]] const ssize_t r = ::write(wake_w, &b, 1);
  }

  void queue_frame(Conn& c, MsgType type, std::string_view payload)
      TREELAB_REQUIRES(loop_role) {
    const std::size_t before = c.out.size();
    append_frame(c.out, type, payload);
    // One byte of this frame may be flipped by the net.frame.corrupt
    // failpoint — the peer's checksum has to catch it.
    maybe_corrupt_frame(c.out, before);
    total_out += c.out.size() - before;
  }

  void send_error(Conn& c, std::string_view reason)
      TREELAB_REQUIRES(loop_role) {
    queue_frame(c, MsgType::kError, reason);
    c.close_after_flush = true;
  }

  void close_conn(int fd) TREELAB_REQUIRES(loop_role) {
    auto it = conns.find(fd);
    if (it == conns.end()) return;
    total_out -= pending(it->second);
    ::epoll_ctl(epoll_fd, EPOLL_CTL_DEL, fd, nullptr);
    ::close(fd);
    conns.erase(it);
    ctr.closed.fetch_add(1, std::memory_order_relaxed);
  }

  void do_accept(Clock::time_point now) TREELAB_REQUIRES(loop_role) {
    for (;;) {
      const int fd =
          ::accept4(listen_fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) {
        if (errno == EINTR) continue;
        break;  // EAGAIN, or a transient accept error: try again next event
      }
      if (auto hit = fp::check("net.accept")) {
        (void)hit;
        ::close(fd);
        ctr.accept_faults.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      if (draining || conns.size() >= Server::kMaxConnections) {
        ::close(fd);
        continue;
      }
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      auto [it, inserted] =
          conns.emplace(fd, Conn(fd, Server::kMaxFramePayload, now));
      (void)inserted;
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.fd = fd;
      it->second.epoll_events = EPOLLIN;
      ::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, fd, &ev);
      ctr.accepted.fetch_add(1, std::memory_order_relaxed);
    }
  }

  void handle_query_batch(Conn& c, const std::string& payload)
      TREELAB_REQUIRES(loop_role) {
    std::vector<serve::Request> reqs;
    if (!decode_query_batch(payload, reqs)) {
      ctr.bad_frames.fetch_add(1, std::memory_order_relaxed);
      send_error(c, "malformed query batch");
      return;
    }
    if (total_out > opt.max_buffered_bytes) {
      // Shed: an explicit tiny refusal instead of executing work whose
      // reply would only deepen the queue. Shed batches do no work, so
      // they do not pollute the request-latency histogram.
      ctr.overloaded.fetch_add(1, std::memory_order_relaxed);
      queue_frame(c, MsgType::kOverloaded, {});
      return;
    }
    const std::uint64_t t0 = obs::now_ns();
    std::vector<serve::QueryResult> results;
    try {
      results = index.query_batch(reqs);
    } catch (const std::exception&) {
      // A label that fails to decode: refuse this batch, keep the loop.
      send_error(c, "query batch failed");
      return;
    }
    ctr.query_batches.fetch_add(1, std::memory_order_relaxed);
    ctr.queries.fetch_add(reqs.size(), std::memory_order_relaxed);
    queue_frame(c, MsgType::kQueryReply, encode_query_reply(results));
    if constexpr (obs::kEnabled) request_ns.record(obs::now_ns() - t0);
  }

  /// kStats: dump the whole process registry at the peer as one
  /// kStatsReply. The request carries no payload — anything else is a
  /// framing violation, same as an unknown type.
  void handle_stats(Conn& c, const std::string& payload)
      TREELAB_REQUIRES(loop_role) {
    if (!payload.empty()) {
      ctr.bad_frames.fetch_add(1, std::memory_order_relaxed);
      send_error(c, "malformed stats request");
      return;
    }
    ctr.stats_requests.fetch_add(1, std::memory_order_relaxed);
    update_lag_gauges();  // the dump should carry fresh lag, not last tick's
    const std::vector<obs::Sample> samples = obs::Registry::global().snapshot();
    std::vector<StatLine> lines;
    lines.reserve(samples.size());
    for (const obs::Sample& s : samples) lines.push_back({s.name, s.value});
    queue_frame(c, MsgType::kStatsReply, encode_stats_reply(lines));
  }

  void handle_subscribe(Conn& c, const std::string& payload)
      TREELAB_REQUIRES(loop_role) {
    Subscribe s;
    if (!decode_subscribe(payload, s)) {
      ctr.bad_frames.fetch_add(1, std::memory_order_relaxed);
      send_error(c, "malformed subscribe");
      return;
    }
    if (journal == nullptr) {
      send_error(c, "no journal attached");
      return;
    }
    ctr.subscribes.fetch_add(1, std::memory_order_relaxed);
    c.subscriber = true;
    c.chain = s.chain;
    c.need_snapshot = s.force_snapshot;
    c.sent_end = false;
    c.sent_caught_up = false;
    c.tail.reset();
    pump_subscriber(c);
  }

  /// Streams snapshot/delta frames at a subscriber until its write buffer
  /// is at the backpressure limit or it is caught up. Re-planned (cursor
  /// re-created, or full snapshot) whenever the journal was folded under
  /// the cursor.
  void pump_subscriber(Conn& c) TREELAB_REQUIRES(loop_role) {
    if (c.close_after_flush) return;
    // A checkpoint can race each re-plan; bound the retries per pump and
    // let the next loop tick continue.
    int replans = 8;
    while (pending(c) < opt.write_buffer_limit) {
      if (c.need_snapshot) {
        // One lock hold inside the journal: the copy and its chain are
        // consistent. The cursor is planned after; if a fold lands in
        // between, tail_from reports nullopt and the next iteration
        // simply re-plans (same recovery as a kLost cursor).
        const core::DeltaJournal::SnapshotPlan plan = journal->snapshot_plan();
        c.chain = plan.chain;
        queue_frame(c, MsgType::kSnapshot,
                    encode_snapshot(plan.chain, plan.loaded));
        c.tail = journal->tail_from(c.chain);
        ctr.snapshots_sent.fetch_add(1, std::memory_order_relaxed);
        c.need_snapshot = false;
        c.sent_caught_up = false;
        continue;
      }
      if (!c.tail.has_value()) {
        c.tail = journal->tail_from(c.chain);
        if (!c.tail.has_value()) {
          // The follower's epoch predates the journal (folded away, or
          // from another life): full snapshot catch-up.
          c.need_snapshot = true;
          continue;
        }
      }
      core::LabelDelta d;
      const auto st = c.tail->next(d);
      if (st == core::DeltaJournal::TailStatus::kRecord) {
        std::ostringstream os(std::ios::binary);
        core::LabelStore::save_delta(os, d);
        queue_frame(c, MsgType::kDelta, os.str());
        ctr.deltas_sent.fetch_add(1, std::memory_order_relaxed);
        c.chain = c.tail->chain();
        c.sent_caught_up = false;
        continue;
      }
      if (st == core::DeltaJournal::TailStatus::kCaughtUp) {
        if (!c.sent_caught_up) {
          // Tell the follower its lag hit zero — once per transition, so
          // a quiet caught-up subscriber is not spammed every tick.
          queue_frame(c, MsgType::kCaughtUp, encode_caught_up(c.chain));
          c.sent_caught_up = true;
          ctr.caught_up_sent.fetch_add(1, std::memory_order_relaxed);
        }
        if (ended.load(std::memory_order_acquire) && !c.sent_end) {
          queue_frame(c, MsgType::kEnd, {});
          c.sent_end = true;
          ctr.ends_sent.fetch_add(1, std::memory_order_relaxed);
          finished_subs.fetch_add(1, std::memory_order_relaxed);
        }
        return;
      }
      // kLost: the journal was folded under the cursor; re-plan from the
      // epoch the follower actually has.
      c.tail.reset();
      if (--replans <= 0) return;
    }
  }

  /// Refreshes net.server.subscribers and net.server.subscriber_lag_records
  /// (worst records-behind across subscribers). A subscriber awaiting a
  /// snapshot, or without a planned cursor yet, conservatively counts as
  /// the whole journal behind.
  void update_lag_gauges() TREELAB_REQUIRES(loop_role) {
    if constexpr (!obs::kEnabled) return;
    std::uint64_t subs = 0;
    std::uint64_t worst = 0;
    std::uint64_t records = 0;
    if (journal != nullptr) records = journal->record_count();
    for (const auto& [fd, c] : conns) {
      if (!c.subscriber) continue;
      ++subs;
      std::uint64_t lag = records;
      if (!c.need_snapshot && c.tail.has_value()) {
        const std::uint64_t read = c.tail->records_read();
        lag = read < records ? records - read : 0;
      }
      worst = std::max(worst, lag);
    }
    subs_gauge.set(subs);
    lag_gauge.set(worst);
  }

  void process_frames(Conn& c) TREELAB_REQUIRES(loop_role) {
    Frame f;
    for (;;) {
      if (c.close_after_flush) return;
      const FrameReader::Status st = c.reader.next(f);
      if (st == FrameReader::Status::kNeedMore) return;
      if (st == FrameReader::Status::kBad) {
        ctr.bad_frames.fetch_add(1, std::memory_order_relaxed);
        send_error(c, "bad frame");
        return;
      }
      ctr.frames_in.fetch_add(1, std::memory_order_relaxed);
      switch (f.type) {
        case MsgType::kQueryBatch:
          handle_query_batch(c, f.payload);
          break;
        case MsgType::kSubscribe:
          handle_subscribe(c, f.payload);
          break;
        case MsgType::kStats:
          handle_stats(c, f.payload);
          break;
        default:
          send_error(c, "unexpected message type");
          return;
      }
    }
  }

  /// Reads what is available; returns false when the connection died.
  bool handle_readable(Conn& c, Clock::time_point now)
      TREELAB_REQUIRES(loop_role) {
    char buf[64 * 1024];
    const IoResult r = read_some(c.fd, buf, sizeof(buf));
    switch (r.status) {
      case IoStatus::kOk:
        c.last_activity = now;
        c.reader.feed(buf, r.n);
        process_frames(c);
        return true;
      case IoStatus::kWouldBlock:
        return true;
      case IoStatus::kClosed:
      case IoStatus::kError:
        return false;
    }
    return false;
  }

  /// Flushes queued output; returns false when the connection died.
  bool flush(Conn& c, Clock::time_point now) TREELAB_REQUIRES(loop_role) {
    while (c.out_pos < c.out.size()) {
      const IoResult r =
          write_some(c.fd, c.out.data() + c.out_pos, pending(c));
      c.out_pos += r.n;
      total_out -= r.n;
      if (r.status == IoStatus::kOk && r.n > 0) {
        c.stall_since.reset();
        c.last_activity = now;
        continue;
      }
      if (r.status == IoStatus::kWouldBlock) {
        if (!c.stall_since.has_value()) c.stall_since = now;
        return true;
      }
      return false;  // kError / kClosed (incl. injected torn writes)
    }
    c.out.clear();
    c.out_pos = 0;
    c.stall_since.reset();
    return true;
  }

  /// Per-tick pass over every connection: flush, apply backpressure,
  /// update epoll interest, close what finished or died, reap deadbeats.
  void finalize_conns(Clock::time_point now) TREELAB_REQUIRES(loop_role) {
    std::vector<int> doomed;
    for (auto& [fd, c] : conns) {
      if (!flush(c, now)) {
        doomed.push_back(fd);
        continue;
      }
      if (c.close_after_flush && pending(c) == 0) {
        doomed.push_back(fd);
        continue;
      }
      // Reaper: quiet non-subscribers and write-stalled peers go. A
      // caught-up subscriber is legitimately idle; a stalled one is a
      // dead peer pinning buffer memory — it goes too.
      if (!c.subscriber && opt.idle_timeout_ms > 0 &&
          ms_between(c.last_activity, now) > opt.idle_timeout_ms) {
        ctr.reaped_idle.fetch_add(1, std::memory_order_relaxed);
        doomed.push_back(fd);
        continue;
      }
      if (pending(c) > 0 && c.stall_since.has_value() &&
          opt.write_stall_timeout_ms > 0 &&
          ms_between(*c.stall_since, now) > opt.write_stall_timeout_ms) {
        ctr.reaped_stalled.fetch_add(1, std::memory_order_relaxed);
        doomed.push_back(fd);
        continue;
      }
      const bool pause = pending(c) > opt.write_buffer_limit;
      if (pause && !c.paused)
        ctr.read_paused.fetch_add(1, std::memory_order_relaxed);
      c.paused = pause;
      std::uint32_t want = 0;
      if (!c.paused && !c.close_after_flush && !draining) want |= EPOLLIN;
      if (pending(c) > 0) want |= EPOLLOUT;
      if (want != c.epoll_events) {
        epoll_event ev{};
        ev.events = want;
        ev.data.fd = fd;
        ::epoll_ctl(epoll_fd, EPOLL_CTL_MOD, fd, &ev);
        c.epoll_events = want;
      }
    }
    for (const int fd : doomed) close_conn(fd);
  }

  void run_loop() {
    // This thread IS the loop: assert the confinement capability for the
    // whole run. Nothing else may construct a guard on loop_role.
    const util::ThreadRoleGuard on_loop_thread(loop_role);
    std::vector<epoll_event> evs(64);
    for (;;) {
      const int n = ::epoll_wait(epoll_fd, evs.data(),
                                 static_cast<int>(evs.size()), 200);
      const Clock::time_point now = Clock::now();
      for (int i = 0; i < n; ++i) {
        const int fd = evs[i].data.fd;
        if (fd == wake_r) {
          char sink[256];
          // lint: allow(io-failpoint): draining our own wake pipe — not a
          // lint: allow(io-failpoint): fault-injectable I/O boundary
          while (::read(wake_r, sink, sizeof(sink)) > 0) {
          }
          continue;
        }
        if (fd == listen_fd) {
          do_accept(now);
          continue;
        }
        auto it = conns.find(fd);
        if (it == conns.end()) continue;  // closed earlier this batch
        Conn& c = it->second;
        if ((evs[i].events & (EPOLLHUP | EPOLLERR)) != 0) {
          close_conn(fd);
          continue;
        }
        if ((evs[i].events & EPOLLIN) != 0 && !handle_readable(c, now)) {
          close_conn(fd);
          continue;
        }
        // Writability is consumed by the finalize pass's flush.
      }
      if (stop_requested.load(std::memory_order_acquire) && !draining) {
        // Graceful drain: no new connections, no new requests; flush what
        // is queued, bounded by the drain deadline.
        draining = true;
        drain_deadline =
            now + std::chrono::milliseconds(opt.drain_timeout_ms);
        if (listen_fd >= 0) {
          ::epoll_ctl(epoll_fd, EPOLL_CTL_DEL, listen_fd, nullptr);
          ::close(listen_fd);
          listen_fd = -1;
        }
      }
      if (journal != nullptr)
        for (auto& [fd, c] : conns)
          if (c.subscriber) pump_subscriber(c);
      update_lag_gauges();
      finalize_conns(now);
      if (draining && (total_out == 0 || now >= drain_deadline)) break;
    }
    std::vector<int> fds;
    fds.reserve(conns.size());
    for (const auto& [fd, c] : conns) fds.push_back(fd);
    for (const int fd : fds) close_conn(fd);
  }
};

Server::Server(serve::ForestIndex& index, ServerOptions opt)
    : impl_(std::make_unique<Impl>(index, std::move(opt))) {}

Server::~Server() { stop(); }

void Server::attach_journal(core::DeltaJournal* journal) {
  impl_->journal = journal;
}

void Server::start() {
  Impl& im = *impl_;
  im.listen_fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                          0);
  if (im.listen_fd < 0)
    throw util::IoError(im.opt.bind_addr, "socket", errno);
  const int one = 1;
  ::setsockopt(im.listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(im.opt.port);
  if (::inet_pton(AF_INET, im.opt.bind_addr.c_str(), &addr.sin_addr) != 1)
    throw util::IoError(im.opt.bind_addr, "inet_pton", EINVAL);
  if (::bind(im.listen_fd, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0)
    throw util::IoError(im.opt.bind_addr, "bind", errno);
  if (::listen(im.listen_fd, 128) != 0)
    throw util::IoError(im.opt.bind_addr, "listen", errno);
  sockaddr_in bound{};
  socklen_t blen = sizeof(bound);
  ::getsockname(im.listen_fd, reinterpret_cast<sockaddr*>(&bound), &blen);
  port_ = ntohs(bound.sin_port);

  int pipefd[2];
  if (::pipe2(pipefd, O_NONBLOCK | O_CLOEXEC) != 0)
    throw util::IoError(im.opt.bind_addr, "pipe2", errno);
  im.wake_r = pipefd[0];
  im.wake_w = pipefd[1];
  im.epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
  if (im.epoll_fd < 0)
    throw util::IoError(im.opt.bind_addr, "epoll_create1", errno);
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = im.listen_fd;
  ::epoll_ctl(im.epoll_fd, EPOLL_CTL_ADD, im.listen_fd, &ev);
  ev.data.fd = im.wake_r;
  ::epoll_ctl(im.epoll_fd, EPOLL_CTL_ADD, im.wake_r, &ev);

  im.stop_requested.store(false, std::memory_order_release);
  im.loop = std::thread([this] { impl_->run_loop(); });
  im.running = true;
}

void Server::stop() {
  Impl& im = *impl_;
  if (!im.running) return;
  request_stop();
  im.loop.join();
  im.running = false;
  if (im.listen_fd >= 0) ::close(im.listen_fd);
  im.listen_fd = -1;
  if (im.epoll_fd >= 0) ::close(im.epoll_fd);
  im.epoll_fd = -1;
  if (im.wake_r >= 0) ::close(im.wake_r);
  im.wake_r = -1;
  if (im.wake_w >= 0) ::close(im.wake_w);
  im.wake_w = -1;
}

void Server::request_stop() noexcept {
  impl_->stop_requested.store(true, std::memory_order_release);
  impl_->wake();
}

void Server::replicate(const core::LabelDelta& d) {
  Impl& im = *impl_;
  if (im.journal == nullptr)
    throw std::logic_error("net::Server: no journal attached");
  // The journal's internal mutex serializes this append against the
  // loop's snapshot builds; no server-side lock needed.
  im.journal->append(d);
  im.wake();
}

void Server::announce_end() {
  impl_->ended.store(true, std::memory_order_release);
  impl_->wake();
}

Server::Stats Server::stats() const {
  const Impl::Counters& c = impl_->ctr;
  Stats s;
  s.accepted = c.accepted.load(std::memory_order_relaxed);
  s.closed = c.closed.load(std::memory_order_relaxed);
  s.frames_in = c.frames_in.load(std::memory_order_relaxed);
  s.bad_frames = c.bad_frames.load(std::memory_order_relaxed);
  s.query_batches = c.query_batches.load(std::memory_order_relaxed);
  s.queries = c.queries.load(std::memory_order_relaxed);
  s.overloaded = c.overloaded.load(std::memory_order_relaxed);
  s.subscribes = c.subscribes.load(std::memory_order_relaxed);
  s.stats_requests = c.stats_requests.load(std::memory_order_relaxed);
  s.snapshots_sent = c.snapshots_sent.load(std::memory_order_relaxed);
  s.deltas_sent = c.deltas_sent.load(std::memory_order_relaxed);
  s.ends_sent = c.ends_sent.load(std::memory_order_relaxed);
  s.caught_up_sent = c.caught_up_sent.load(std::memory_order_relaxed);
  s.reaped_idle = c.reaped_idle.load(std::memory_order_relaxed);
  s.reaped_stalled = c.reaped_stalled.load(std::memory_order_relaxed);
  s.accept_faults = c.accept_faults.load(std::memory_order_relaxed);
  s.read_paused = c.read_paused.load(std::memory_order_relaxed);
  return s;
}

std::uint64_t Server::subscribers_finished() const noexcept {
  return impl_->finished_subs.load(std::memory_order_acquire);
}

}  // namespace treelab::net
