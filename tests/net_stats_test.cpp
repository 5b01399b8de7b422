// Wire-level round trips for the Stats RPC (kStats -> kStatsReply) plus
// the replication-lag metrics: after real query traffic the counters and
// latency histograms a dump carries must be non-zero; after a follower
// converges the lag gauges must read caught-up; a malformed kStats frame
// (non-empty payload) must be rejected without hurting the server; a
// batch whose labels fail to decode must get kError while the server
// keeps serving; and an overloaded server must shed batches, count it, and
// recover.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bits/label_arena.hpp"
#include "core/alstrup_scheme.hpp"
#include "core/delta_journal.hpp"
#include "core/incremental_relabeler.hpp"
#include "core/label_store.hpp"
#include "net/client.hpp"
#include "net/frame.hpp"
#include "net/net_io.hpp"
#include "net/replicator.hpp"
#include "net/server.hpp"
#include "obs/metrics.hpp"
#include "serve/forest_index.hpp"
#include "tree/generators.hpp"
#include "tree/nca_index.hpp"

namespace {

using namespace treelab;
using core::DeltaJournal;
using core::IncrementalRelabeler;

std::uint64_t stat_value(const std::vector<net::StatLine>& lines,
                         const std::string& name) {
  for (const auto& l : lines)
    if (l.name == name) return l.value;
  ADD_FAILURE() << "stats dump is missing " << name;
  return 0;
}

bool has_stat(const std::vector<net::StatLine>& lines,
              const std::string& name) {
  return std::any_of(lines.begin(), lines.end(),
                     [&](const net::StatLine& l) { return l.name == name; });
}

TEST(NetStats, QueryTrafficShowsUpInStatsReply) {
  serve::ForestIndex index;
  IncrementalRelabeler relab(tree::random_tree(300, 11));
  const serve::TreeId tree0 = index.add(relab.to_loaded());

  net::Server server(index);
  server.start();
  net::QueryClient client("127.0.0.1", server.port());
  ASSERT_TRUE(client.connected());

  std::vector<serve::Request> reqs;
  for (tree::NodeId u = 0; u < 64; ++u)
    reqs.push_back({tree0, u, static_cast<tree::NodeId>(299 - u)});
  std::vector<serve::QueryResult> results;
  ASSERT_EQ(client.query_batch(reqs, results),
            net::QueryClient::BatchStatus::kOk);
  ASSERT_EQ(results.size(), reqs.size());

  std::vector<net::StatLine> lines;
  ASSERT_TRUE(client.stats(lines));
  ASSERT_FALSE(lines.empty());
  // The wire dump is the registry snapshot: name-sorted.
  EXPECT_TRUE(std::is_sorted(lines.begin(), lines.end(),
                             [](const net::StatLine& a,
                                const net::StatLine& b) {
                               return a.name < b.name;
                             }));
  // The batch we just ran is visible in the server's counters, its request
  // latency histogram, and the serving layer's batch histogram. The
  // registry is process-global, so across a suite these only grow: >=.
  EXPECT_GE(stat_value(lines, "net.server.query_batches"), 1u);
  EXPECT_GE(stat_value(lines, "net.server.queries"), reqs.size());
  EXPECT_GE(stat_value(lines, "net.server.request_ns_count"), 1u);
  EXPECT_GE(stat_value(lines, "net.server.stats_requests"), 1u);
  EXPECT_GE(stat_value(lines, "serve.batch.latency_ns_count"), 1u);
  EXPECT_GE(stat_value(lines, "serve.query.latency_ns_count"), 1u);
  // Cache + util metrics ride the same dump.
  EXPECT_TRUE(has_stat(lines, "serve.cache.hits"));
  EXPECT_TRUE(has_stat(lines, "serve.trees.total"));
  EXPECT_TRUE(has_stat(lines, "util.thread_env_rejections"));
  server.stop();
}

TEST(NetStats, ReplicationLagReachesZeroAndCaughtUpFlows) {
  const std::string base_path =
      testing::TempDir() + "/net_stats_base_" + std::to_string(::getpid()) +
      ".lbl";
  IncrementalRelabeler relab(tree::random_tree(120, 3));
  core::JournalOptions jopt;
  jopt.sync = false;
  DeltaJournal journal = DeltaJournal::create(base_path, relab.to_loaded(),
                                              jopt);

  serve::ForestIndex leader_index;
  const serve::TreeId ltree = leader_index.add(relab.to_loaded());
  net::Server server(leader_index);
  server.attach_journal(&journal);
  server.start();

  // Churn a few deltas through the journal before the follower shows up.
  for (int round = 0; round < 5; ++round) {
    for (int e = 0; e < 8; ++e)
      (void)relab.insert_leaf(
          static_cast<tree::NodeId>((round * 8 + e) % relab.size()));
    const core::LabelDelta d = relab.make_delta();
    server.replicate(d);
    relab.advance_delta(d);
    leader_index.apply_delta(ltree, d);
  }
  server.announce_end();

  serve::ForestIndex follower_index;
  const serve::TreeId ftree = follower_index.add(
      {IncrementalRelabeler::scheme_tag(), journal.params(), {}});
  net::ReplicatorOptions ropt;
  ropt.port = server.port();
  ropt.tree = ftree;
  ropt.stop_on_end = true;
  ropt.max_attempts = 60;
  net::Replicator repl(follower_index, ropt);
  ASSERT_TRUE(repl.run());

  // Follower side: the stream ended, so the leader told us we are caught
  // up (kCaughtUp and/or kEnd) and the behind gauge must read 0.
  const net::Replicator::Stats rs = repl.stats();
  EXPECT_GE(rs.ends_seen, 1u);
  EXPECT_GE(rs.snapshots_applied + rs.deltas_applied, 1u);
  EXPECT_EQ(obs::Registry::global().gauge("net.replicator.behind").value(),
            0u);
  EXPECT_EQ(obs::Registry::global().gauge("net.replicator.chain").value(),
            follower_index.chain(ftree));

  // Leader side, over the wire: journal activity, the caught-up
  // notification, and a lag gauge at 0 (the only subscriber converged).
  net::QueryClient client("127.0.0.1", server.port());
  ASSERT_TRUE(client.connected());
  std::vector<net::StatLine> lines;
  ASSERT_TRUE(client.stats(lines));
  EXPECT_GE(stat_value(lines, "journal.appends"), 1u);
  EXPECT_GE(stat_value(lines, "journal.append_ns_count"), 1u);
  EXPECT_GE(stat_value(lines, "net.server.subscribes"), 1u);
  EXPECT_GE(stat_value(lines, "net.server.caught_up_sent"), 1u);
  EXPECT_GE(stat_value(lines, "net.server.snapshots_sent") +
                stat_value(lines, "net.server.deltas_sent"),
            1u);
  EXPECT_EQ(stat_value(lines, "net.server.subscriber_lag_records"), 0u);
  server.stop();
}

TEST(NetStats, MalformedStatsFrameIsRejected) {
  serve::ForestIndex index;
  IncrementalRelabeler relab(tree::random_tree(50, 5));
  const serve::TreeId tree0 = index.add(relab.to_loaded());
  net::Server server(index);
  server.start();

  // A kStats frame must carry an empty payload; anything else is a
  // protocol violation answered with kError + close.
  const int fd = net::connect_with_timeout("127.0.0.1", server.port(), 2'000);
  ASSERT_GE(fd, 0);
  const std::string bad = net::encode_frame(net::MsgType::kStats, "junk");
  std::size_t sent = 0;
  while (sent < bad.size()) {
    const net::IoResult w =
        net::write_some(fd, bad.data() + sent, bad.size() - sent);
    ASSERT_EQ(w.status, net::IoStatus::kOk);
    sent += w.n;
  }
  net::FrameReader reader;
  net::Frame reply;
  bool got_reply = false;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (std::chrono::steady_clock::now() < deadline) {
    const net::FrameReader::Status st = reader.next(reply);
    if (st == net::FrameReader::Status::kFrame) {
      got_reply = true;
      break;
    }
    ASSERT_NE(st, net::FrameReader::Status::kBad);
    if (!net::wait_readable(fd, 100)) continue;
    char buf[4096];
    const net::IoResult r = net::read_some(fd, buf, sizeof(buf));
    if (r.status == net::IoStatus::kOk)
      reader.feed(buf, r.n);
    else if (r.status != net::IoStatus::kWouldBlock)
      break;
  }
  ASSERT_TRUE(got_reply);
  EXPECT_EQ(reply.type, net::MsgType::kError);
  ::close(fd);

  // The violation is counted, and the server still answers honest peers.
  EXPECT_GE(server.stats().bad_frames, 1u);
  net::QueryClient client("127.0.0.1", server.port());
  ASSERT_TRUE(client.connected());
  std::vector<serve::Request> reqs{{tree0, 0, 49}};
  std::vector<serve::QueryResult> results;
  EXPECT_EQ(client.query_batch(reqs, results),
            net::QueryClient::BatchStatus::kOk);
  std::vector<net::StatLine> lines;
  EXPECT_TRUE(client.stats(lines));
  EXPECT_GE(stat_value(lines, "net.server.bad_frames"), 1u);
  server.stop();
}

TEST(NetStats, UndecodableLabelFailsItsBatchNotTheServer) {
  // Both files are valid containers, but every label of the second is 40
  // one-bits, which no Alstrup decoder accepts. The batch that reaches one
  // gets kError; the server keeps answering other connections.
  const tree::Tree t = tree::random_tree(64, 1);
  const tree::NcaIndex oracle(t);
  const std::string stem = testing::TempDir() + "/net_stats_decode_" +
                           std::to_string(::getpid());
  const std::string good_path = stem + "_good.lbl";
  const std::string junk_path = stem + "_junk.lbl";
  core::LabelStore::save_file(good_path, "alstrup",
                              core::AlstrupScheme(t).labels());
  core::LabelStore::save_file(
      junk_path, "alstrup",
      bits::LabelArena::build(64, 1, [](std::size_t, bits::BitWriter& w) {
        for (int b = 0; b < 40; ++b) w.put_bit(true);
      }));
  serve::ForestIndex index;
  const serve::TreeId good = index.add_file(good_path);
  const serve::TreeId junk = index.add_file(junk_path);
  net::Server server(index);
  server.start();

  using Status = net::QueryClient::BatchStatus;
  std::vector<serve::QueryResult> out;
  net::QueryClient first("127.0.0.1", server.port());
  ASSERT_TRUE(first.connected());
  const std::vector<serve::Request> poisoned{{good, 1, 2}, {junk, 1, 2}};
  EXPECT_EQ(first.query_batch(poisoned, out), Status::kError);

  net::QueryClient second("127.0.0.1", server.port());
  ASSERT_TRUE(second.connected());
  const std::vector<serve::Request> clean{{good, 1, 2}};
  ASSERT_EQ(second.query_batch(clean, out), Status::kOk);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].status, serve::QueryStatus::kOk);
  EXPECT_EQ(out[0].dist.value, oracle.distance(1, 2));
  server.stop();
  std::remove(good_path.c_str());
  std::remove(junk_path.c_str());
}

TEST(NetStats, OverloadShedsThenRecovers) {
  // Two flooders send batches and never read a reply: past
  // write_buffer_limit the server stops reading them (read_paused), and
  // their queued replies hold the total past max_buffered_bytes, so a
  // probe is shed with kOverloaded instead of queueing without bound.
  // Once they disconnect, their output goes and the probe is answered.
  const tree::Tree t = tree::random_tree(500, 17);
  const tree::NcaIndex oracle(t);
  serve::ForestIndex index;
  const serve::TreeId tree0 = index.add(IncrementalRelabeler(t).to_loaded());
  net::ServerOptions tight;
  tight.write_buffer_limit = 64 << 10;
  tight.max_buffered_bytes = 128 << 10;
  net::Server server(index, tight);
  server.start();
  // One flood batch's reply (~80 KB) outgrows write_buffer_limit alone.
  const std::string flood = net::encode_frame(
      net::MsgType::kQueryBatch,
      net::encode_query_batch(
          std::vector<serve::Request>(8192, {tree0, 0, 499})));
  std::vector<serve::Request> probe_reqs;
  for (tree::NodeId u = 0; u < 64; ++u)
    probe_reqs.push_back({tree0, u, static_cast<tree::NodeId>(499 - u)});

  std::atomic<bool> stop{false};
  const auto flooder = [&] {
    const int fd =
        net::connect_with_timeout("127.0.0.1", server.port(), 2'000);
    if (fd < 0) return;
    const timeval wake{0, 20'000};  // a blocked send returns to check `stop`
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &wake, sizeof(wake));
    std::size_t off = 0;  // a partial send resumes mid-frame
    while (!stop.load(std::memory_order_acquire)) {
      const net::IoResult w =
          net::write_some(fd, flood.data() + off, flood.size() - off);
      if (w.status == net::IoStatus::kError) break;
      off = (off + w.n) % flood.size();
    }
    ::close(fd);  // with replies unread, the server's next write fails
  };
  const auto wait_until = [](auto done, int seconds) {
    const auto end =
        std::chrono::steady_clock::now() + std::chrono::seconds(seconds);
    while (!done() && std::chrono::steady_clock::now() < end)
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
  };
  using Status = net::QueryClient::BatchStatus;
  net::QueryClient probe("127.0.0.1", server.port());
  std::vector<serve::QueryResult> out;
  Status status = Status::kError;
  std::thread f1(flooder), f2(flooder);
  wait_until([&] { return server.stats().read_paused > 0; }, 10);
  bool shed = false;
  wait_until(
      [&] {
        shed = probe.query_batch(probe_reqs, out) == Status::kOverloaded;
        return shed || !probe.connected();
      },
      10);
  stop.store(true, std::memory_order_release);
  f1.join();
  f2.join();
  EXPECT_TRUE(shed);
  // Recovery within a bounded wait, with correct answers.
  wait_until(
      [&] {
        status = probe.query_batch(probe_reqs, out);
        return status != Status::kOverloaded;
      },
      15);
  ASSERT_EQ(status, Status::kOk);
  ASSERT_EQ(out.size(), probe_reqs.size());
  for (std::size_t i = 0; i < out.size(); ++i)
    EXPECT_EQ(out[i].dist.value,
              oracle.distance(probe_reqs[i].u, probe_reqs[i].v));
  std::vector<net::StatLine> lines;
  ASSERT_TRUE(probe.stats(lines));
  EXPECT_GE(stat_value(lines, "net.server.overloaded"), 1u);
  EXPECT_GE(stat_value(lines, "net.server.read_paused"), 1u);
  server.stop();
}

}  // namespace
