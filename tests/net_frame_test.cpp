// net/frame unit tests: round-trips for every payload codec, incremental
// decoding under arbitrary byte-level fragmentation, the CRC32C that
// checks every frame (known answers, instruction path against the table),
// and the rejection matrix — bad magic, bad checksum, oversized lengths,
// truncated and trailing payload bytes. The end-to-end behavior of the
// protocol under live faults is net_fault_fuzz_test's job; this suite pins
// the codec contract itself.
#include <gtest/gtest.h>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <random>
#include <string>
#include <utility>
#include <vector>

#include "net/frame.hpp"
#include "serve/forest_index.hpp"
#include "util/bytes.hpp"
#include "util/hash.hpp"

namespace {

using namespace treelab;
using net::Frame;
using net::FrameReader;
using net::MsgType;

Frame decode_one(const std::string& bytes) {
  FrameReader r;
  r.feed(bytes.data(), bytes.size());
  Frame f;
  EXPECT_EQ(r.next(f), FrameReader::Status::kFrame);
  return f;
}

TEST(NetFrame, HeaderLayout) {
  const std::string bytes = net::encode_frame(MsgType::kEnd, "");
  ASSERT_EQ(bytes.size(), net::kFrameHeaderBytes);
  EXPECT_EQ(bytes.substr(0, 4), "TLNF");
  EXPECT_EQ(static_cast<unsigned char>(bytes[4]), 8);  // u32 type, LE
  for (int i = 5; i < 16; ++i)
    EXPECT_EQ(bytes[i], '\0') << "byte " << i;  // type hi + payload_len
}

TEST(NetFrame, RoundTripAllTypes) {
  for (const MsgType t :
       {MsgType::kQueryBatch, MsgType::kQueryReply, MsgType::kError,
        MsgType::kOverloaded, MsgType::kSubscribe, MsgType::kSnapshot,
        MsgType::kDelta, MsgType::kEnd, MsgType::kStats, MsgType::kStatsReply,
        MsgType::kCaughtUp}) {
    const std::string payload = "payload-for-" +
                                std::to_string(static_cast<unsigned>(t));
    const Frame f = decode_one(net::encode_frame(t, payload));
    EXPECT_EQ(f.type, t);
    EXPECT_EQ(f.payload, payload);
  }
}

TEST(NetFrame, MsgTypeNamesAreExhaustiveAndDistinct) {
  // One case per enum value; a wire type whose name degrades to kUnknown
  // would break log/debug output silently, so pin each mapping.
  EXPECT_STREQ(net::msg_type_name(MsgType::kQueryBatch), "kQueryBatch");
  EXPECT_STREQ(net::msg_type_name(MsgType::kQueryReply), "kQueryReply");
  EXPECT_STREQ(net::msg_type_name(MsgType::kError), "kError");
  EXPECT_STREQ(net::msg_type_name(MsgType::kOverloaded), "kOverloaded");
  EXPECT_STREQ(net::msg_type_name(MsgType::kSubscribe), "kSubscribe");
  EXPECT_STREQ(net::msg_type_name(MsgType::kSnapshot), "kSnapshot");
  EXPECT_STREQ(net::msg_type_name(MsgType::kDelta), "kDelta");
  EXPECT_STREQ(net::msg_type_name(MsgType::kEnd), "kEnd");
  EXPECT_STREQ(net::msg_type_name(MsgType::kStats), "kStats");
  EXPECT_STREQ(net::msg_type_name(MsgType::kStatsReply), "kStatsReply");
  EXPECT_STREQ(net::msg_type_name(MsgType::kCaughtUp), "kCaughtUp");
  EXPECT_STREQ(net::msg_type_name(static_cast<MsgType>(0)), "kUnknown");
  EXPECT_STREQ(net::msg_type_name(static_cast<MsgType>(999)), "kUnknown");
}

TEST(NetFrame, FragmentedDelivery) {
  // A stream of frames fed one byte at a time must decode identically.
  std::string stream;
  net::append_frame(stream, MsgType::kError, "first");
  net::append_frame(stream, MsgType::kEnd, "");
  net::append_frame(stream, MsgType::kDelta, std::string(1000, 'x'));
  FrameReader r;
  std::vector<Frame> got;
  Frame f;
  for (const char c : stream) {
    r.feed(&c, 1);
    while (r.next(f) == FrameReader::Status::kFrame) got.push_back(f);
  }
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0].payload, "first");
  EXPECT_EQ(got[1].type, MsgType::kEnd);
  EXPECT_EQ(got[2].payload.size(), 1000u);
  EXPECT_EQ(r.buffered(), 0u);
}

TEST(NetFrame, ReadsEndingMidFrameDoNotGrowTheBuffer) {
  // A peer whose reads keep ending just past the next frame header (a
  // pipelining client, a follower catching up through a burst of deltas)
  // never leaves less than a header buffered. The consumed prefix must be
  // reclaimed anyway: feeding 80 MB this way may not grow the heap.
#if !defined(__GLIBC__) || __GLIBC__ < 2 || \
    (__GLIBC__ == 2 && __GLIBC_MINOR__ < 33)
  GTEST_SKIP() << "needs glibc mallinfo2()";
#else
  const auto heap_bytes = [] {
    const struct mallinfo2 m = mallinfo2();
    return m.uordblks + m.hblkhd;
  };
  const std::string frame =
      net::encode_frame(MsgType::kDelta, std::string(4096, 'd'));
  const std::size_t split = net::kFrameHeaderBytes + 1;
  // One read: the rest of a frame, then the next frame's header + 1 byte.
  const std::string read = frame.substr(split) + frame.substr(0, split);
  FrameReader r;
  Frame f;
  r.feed(frame.data(), split);
  const std::size_t before = heap_bytes();
  for (int i = 0; i < 20000; ++i) {
    r.feed(read.data(), read.size());
    ASSERT_EQ(r.next(f), FrameReader::Status::kFrame) << "frame " << i;
    ASSERT_EQ(r.next(f), FrameReader::Status::kNeedMore) << "frame " << i;
    ASSERT_EQ(r.buffered(), split);
  }
  EXPECT_LT(heap_bytes(), before + (std::size_t{4} << 20));
#endif
}

TEST(NetFrame, BadMagicIsSticky) {
  std::string bytes = net::encode_frame(MsgType::kEnd, "");
  bytes[0] = 'X';
  bytes += net::encode_frame(MsgType::kEnd, "");  // a good frame after
  FrameReader r;
  r.feed(bytes.data(), bytes.size());
  Frame f;
  EXPECT_EQ(r.next(f), FrameReader::Status::kBad);
  // No resynchronization: once out of sync, always kBad.
  EXPECT_EQ(r.next(f), FrameReader::Status::kBad);
}

TEST(NetFrame, ChecksumCatchesEveryFlippedPayloadByte) {
  const std::string good = net::encode_frame(MsgType::kError, "sensitive");
  const auto status_of = [](const std::string& bytes) {
    FrameReader r;
    r.feed(bytes.data(), bytes.size());
    Frame f;
    return r.next(f);
  };
  ASSERT_EQ(status_of(good), FrameReader::Status::kFrame);
  // Every bit of the u64 sum field (bytes 16-23) and of every payload byte.
  for (std::size_t i = 16; i < good.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string bad = good;
      bad[i] = static_cast<char>(bad[i] ^ (1 << bit));
      EXPECT_EQ(status_of(bad), FrameReader::Status::kBad)
          << "byte " << i << " bit " << bit;
    }
  }
  // The CRC sits zero-extended: the right low half under a nonzero high
  // half is still a bad sum.
  std::string high = good;
  for (std::size_t i = 20; i < 24; ++i) high[i] = '\xff';
  EXPECT_EQ(status_of(high), FrameReader::Status::kBad);
}

TEST(NetFrame, Crc32cKnownAnswers) {
  // "123456789" is the customary check value; the rest are RFC 3720's
  // Appendix B.4 vectors. Both paths must give every one.
  const std::string zeros(32, '\0');
  const std::string ones(32, '\xff');
  std::string up(32, '\0');
  std::string down(32, '\0');
  for (int i = 0; i < 32; ++i) {
    up[i] = static_cast<char>(i);
    down[i] = static_cast<char>(31 - i);
  }
  const std::pair<std::string, std::uint32_t> cases[] = {
      {"123456789", 0xE3069283u}, {zeros, 0x8A9136AAu},
      {ones, 0x62A8AB43u},        {up, 0x46DD794Eu},
      {down, 0x113FDB5Cu},
  };
  for (const auto& [bytes, want] : cases) {
    EXPECT_EQ(util::crc32c(bytes.data(), bytes.size()), want);
    EXPECT_EQ(util::crc32c_portable(bytes.data(), bytes.size()), want);
  }
  EXPECT_EQ(util::crc32c(nullptr, 0), 0u);
  EXPECT_EQ(util::crc32c_portable(nullptr, 0), 0u);

  // The frame's u64 sum field is the CRC, little-endian, zero-extended.
  const std::string frame = net::encode_frame(MsgType::kError, "123456789");
  EXPECT_EQ(util::load_le<std::uint64_t>(frame.data() + 16), 0xE3069283u);
}

TEST(NetFrame, Crc32cInstructionMatchesTable) {
#if defined(__x86_64__)
  RecordProperty("crc32c_path",
                 __builtin_cpu_supports("sse4.2") ? "sse4.2" : "table");
#endif
  // Every start offset within a word and every length up to 300 give the
  // instruction path each split into 8-byte loads and tail bytes, aligned
  // or not; the two big buffers are the hot workload's request and reply
  // frame sizes.
  std::mt19937_64 rng(2203);
  std::string buf(8 + 300, '\0');
  for (char& c : buf) c = static_cast<char>(rng());
  for (std::size_t off = 0; off < 8; ++off)
    for (std::size_t len = 0; len <= 300; ++len)
      ASSERT_EQ(util::crc32c(buf.data() + off, len),
                util::crc32c_portable(buf.data() + off, len))
          << "offset " << off << " length " << len;
  for (const std::size_t len : {std::size_t{98308}, std::size_t{81924}}) {
    std::string big(len, '\0');
    for (char& c : big) c = static_cast<char>(rng());
    EXPECT_EQ(util::crc32c(big.data(), big.size()),
              util::crc32c_portable(big.data(), big.size()))
        << "length " << len;
  }
}

TEST(NetFrame, RejectsUnknownTypeAndOversizedLength) {
  std::string bytes = net::encode_frame(MsgType::kEnd, "");
  bytes[4] = 99;  // type out of range
  FrameReader r1;
  r1.feed(bytes.data(), bytes.size());
  Frame f;
  EXPECT_EQ(r1.next(f), FrameReader::Status::kBad);

  // A length field past the reader's cap is kBad immediately — the reader
  // must never try to buffer it.
  std::string huge = net::encode_frame(MsgType::kDelta, "x");
  huge[8] = '\xff';  // payload_len low bytes
  huge[9] = '\xff';
  huge[10] = '\xff';
  net::FrameReader r2(/*max_payload=*/1 << 20);
  r2.feed(huge.data(), net::kFrameHeaderBytes);
  EXPECT_EQ(r2.next(f), FrameReader::Status::kBad);
}

TEST(NetFrame, QueryBatchRoundTripAndRejects) {
  std::vector<serve::Request> reqs{{0, 1, 2}, {7, -1, 4}, {3, 0, 0}};
  const std::string payload = net::encode_query_batch(reqs);
  std::vector<serve::Request> out;
  ASSERT_TRUE(net::decode_query_batch(payload, out));
  ASSERT_EQ(out.size(), reqs.size());
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    EXPECT_EQ(out[i].tree, reqs[i].tree);
    EXPECT_EQ(out[i].u, reqs[i].u);
    EXPECT_EQ(out[i].v, reqs[i].v);
  }
  // Truncated, trailing, and count-mismatched payloads must all refuse.
  EXPECT_FALSE(net::decode_query_batch(payload.substr(0, payload.size() - 1),
                                       out));
  EXPECT_FALSE(net::decode_query_batch(payload + "z", out));
  std::string lying = payload;
  lying[0] = 50;  // claims 50 requests, carries 3
  EXPECT_FALSE(net::decode_query_batch(lying, out));
  EXPECT_FALSE(net::decode_query_batch("abc", out));
}

TEST(NetFrame, QueryReplyRoundTripAndRejects) {
  std::vector<serve::QueryResult> results(3);
  results[0].dist = {true, 42};
  results[0].status = serve::QueryStatus::kOk;
  results[1].dist = {false, 0};
  results[1].status = serve::QueryStatus::kBadNode;
  results[2].dist = {true, std::uint64_t{1} << 60};
  results[2].status = serve::QueryStatus::kQuarantined;
  const std::string payload = net::encode_query_reply(results);
  std::vector<serve::QueryResult> out;
  ASSERT_TRUE(net::decode_query_reply(payload, out));
  ASSERT_EQ(out.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(out[i].status, results[i].status);
    EXPECT_EQ(out[i].dist.within, results[i].dist.within);
    EXPECT_EQ(out[i].dist.value, results[i].dist.value);
  }
  // A status or within byte outside the enum/bool domain is a violation.
  std::string bad_status = payload;
  bad_status[4] = 17;
  EXPECT_FALSE(net::decode_query_reply(bad_status, out));
  std::string bad_within = payload;
  bad_within[5] = 2;
  EXPECT_FALSE(net::decode_query_reply(bad_within, out));
  EXPECT_FALSE(net::decode_query_reply(payload.substr(1), out));
}

TEST(NetFrame, SubscribeRoundTrip) {
  for (const bool force : {false, true}) {
    net::Subscribe s;
    s.chain = 0xdeadbeefcafef00dULL;
    s.force_snapshot = force;
    net::Subscribe out;
    ASSERT_TRUE(net::decode_subscribe(net::encode_subscribe(s), out));
    EXPECT_EQ(out.chain, s.chain);
    EXPECT_EQ(out.force_snapshot, force);
  }
  net::Subscribe out;
  EXPECT_FALSE(net::decode_subscribe("short", out));
}

TEST(NetFrame, SnapshotHeaderSplit) {
  // decode_snapshot_header slices chain from container without copying or
  // parsing the container (that is LabelStore's job on the other side).
  const std::string payload = std::string("\x11\x22\x33\x44\x55\x66\x77\x08",
                                          8) +
                              "container-bytes";
  std::uint64_t chain = 0;
  std::string_view container;
  ASSERT_TRUE(net::decode_snapshot_header(payload, chain, container));
  EXPECT_EQ(chain, 0x0877665544332211ULL);
  EXPECT_EQ(container, "container-bytes");
  EXPECT_FALSE(net::decode_snapshot_header("1234567", chain, container));
}

TEST(NetFrame, StatsReplyRoundTripAndRejects) {
  std::vector<net::StatLine> lines{{"net.server.queries", 12345},
                                   {"", 0},
                                   {"journal.appends", ~std::uint64_t{0}}};
  const std::string payload = net::encode_stats_reply(lines);
  std::vector<net::StatLine> out;
  ASSERT_TRUE(net::decode_stats_reply(payload, out));
  ASSERT_EQ(out.size(), lines.size());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    EXPECT_EQ(out[i].name, lines[i].name);
    EXPECT_EQ(out[i].value, lines[i].value);
  }
  // Truncated, trailing, and count-lying payloads must all refuse.
  EXPECT_FALSE(
      net::decode_stats_reply(payload.substr(0, payload.size() - 1), out));
  EXPECT_FALSE(net::decode_stats_reply(payload + "z", out));
  std::string lying = payload;
  lying[0] = 100;  // claims 100 lines, carries 3
  EXPECT_FALSE(net::decode_stats_reply(lying, out));
  // A name length pointing past the payload end must refuse, not read.
  std::string long_name = payload;
  long_name[4] = '\xff';  // first line's name_len low byte
  long_name[5] = '\xff';
  EXPECT_FALSE(net::decode_stats_reply(long_name, out));
  EXPECT_FALSE(net::decode_stats_reply("ab", out));
  // Empty dump is legal.
  ASSERT_TRUE(net::decode_stats_reply(net::encode_stats_reply({}), out));
  EXPECT_TRUE(out.empty());
}

TEST(NetFrame, CaughtUpRoundTripAndRejects) {
  const std::uint64_t chain = 0x0123456789abcdefULL;
  const std::string payload = net::encode_caught_up(chain);
  std::uint64_t out = 0;
  ASSERT_TRUE(net::decode_caught_up(payload, out));
  EXPECT_EQ(out, chain);
  EXPECT_FALSE(net::decode_caught_up(payload.substr(0, 7), out));
  EXPECT_FALSE(net::decode_caught_up(payload + "x", out));
  EXPECT_FALSE(net::decode_caught_up("", out));
}

TEST(NetFrame, RandomizedCodecFuzz) {
  // Random bytes must never crash a decoder, and random valid requests
  // must always round-trip — a quick property sweep on top of the pinned
  // cases above.
  std::mt19937_64 rng(99);
  for (int it = 0; it < 500; ++it) {
    std::string junk(rng() % 64, '\0');
    for (char& c : junk) c = static_cast<char>(rng());
    std::vector<serve::Request> reqs;
    std::vector<serve::QueryResult> results;
    net::Subscribe sub;
    std::uint64_t chain;
    std::string_view container;
    std::vector<net::StatLine> stat_lines;
    (void)net::decode_query_batch(junk, reqs);
    (void)net::decode_query_reply(junk, results);
    (void)net::decode_subscribe(junk, sub);
    (void)net::decode_snapshot_header(junk, chain, container);
    (void)net::decode_stats_reply(junk, stat_lines);
    (void)net::decode_caught_up(junk, chain);

    reqs.resize(rng() % 8);
    for (serve::Request& r : reqs) {
      r.tree = static_cast<serve::TreeId>(rng());
      r.u = static_cast<tree::NodeId>(rng());
      r.v = static_cast<tree::NodeId>(rng());
    }
    std::vector<serve::Request> back;
    ASSERT_TRUE(net::decode_query_batch(net::encode_query_batch(reqs), back));
    ASSERT_EQ(back.size(), reqs.size());
  }
}

}  // namespace
