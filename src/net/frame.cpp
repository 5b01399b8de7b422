#include "net/frame.hpp"

#include <algorithm>
#include <sstream>

#include "util/bytes.hpp"

namespace treelab::net {

namespace {

constexpr char kFrameMagic[4] = {'T', 'L', 'N', 'F'};

}  // namespace

void append_frame(std::string& out, MsgType type, std::string_view payload) {
  util::append_frame(out, kFrameMagic, static_cast<std::uint32_t>(type),
                     payload);
}

FrameReader::Status FrameReader::next(Frame& out) {
  if (bad_) return Status::kBad;
  // Drop the consumed prefix once it is at least as long as the unconsumed
  // tail. The bytes moved never exceed the bytes consumed since the last
  // drop (amortized O(1) per byte), and the buffer stays within about twice
  // the unconsumed bytes even for a peer whose reads always end mid-frame.
  if (pos_ > 0 && pos_ >= buf_.size() - pos_) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  if (buf_.size() - pos_ < kFrameHeaderBytes) return Status::kNeedMore;
  const char* hdr = buf_.data() + pos_;
  util::FrameHeader h;
  if (!util::read_frame_header(hdr, kFrameMagic, h) ||
      h.tag < static_cast<std::uint32_t>(MsgType::kQueryBatch) ||
      h.tag > static_cast<std::uint32_t>(kMaxMsgType) ||
      h.len > kMaxFramePayload || h.len > max_payload_) {
    bad_ = true;
    return Status::kBad;
  }
  if (buf_.size() - pos_ - kFrameHeaderBytes < h.len) return Status::kNeedMore;
  const std::string_view payload(hdr + kFrameHeaderBytes,
                                 static_cast<std::size_t>(h.len));
  if (!h.verifies(payload)) {
    bad_ = true;
    return Status::kBad;
  }
  out.type = static_cast<MsgType>(h.tag);
  out.payload.assign(payload);
  pos_ += kFrameHeaderBytes + payload.size();
  return Status::kFrame;
}

std::string encode_query_batch(std::span<const serve::Request> reqs) {
  std::string out(4 + reqs.size() * 12, '\0');
  util::store_le(out.data(), static_cast<std::uint32_t>(reqs.size()));
  char* p = out.data() + 4;
  for (const serve::Request& r : reqs) {
    util::store_le(p, r.tree);
    util::store_le(p + 4, static_cast<std::uint32_t>(r.u));
    util::store_le(p + 8, static_cast<std::uint32_t>(r.v));
    p += 12;
  }
  return out;
}

bool decode_query_batch(std::string_view payload,
                        std::vector<serve::Request>& out) {
  util::ByteReader c(payload);
  const auto n = c.get<std::uint32_t>();
  // Each request is 12 bytes: a count the payload cannot hold is a lie —
  // refuse before the count-sized allocation, same rule as the journal.
  if (!c.ok() || c.remaining() != static_cast<std::size_t>(n) * 12)
    return false;
  out.clear();
  out.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    serve::Request r;
    r.tree = c.get<std::uint32_t>();
    r.u = static_cast<tree::NodeId>(c.get<std::uint32_t>());
    r.v = static_cast<tree::NodeId>(c.get<std::uint32_t>());
    out.push_back(r);
  }
  return c.done();
}

std::string encode_query_reply(std::span<const serve::QueryResult> results) {
  std::string out(4 + results.size() * 10, '\0');
  util::store_le(out.data(), static_cast<std::uint32_t>(results.size()));
  char* p = out.data() + 4;
  for (const serve::QueryResult& r : results) {
    p[0] = static_cast<char>(r.status);
    p[1] = static_cast<char>(r.dist.within ? 1 : 0);
    util::store_le(p + 2, r.dist.value);
    p += 10;
  }
  return out;
}

bool decode_query_reply(std::string_view payload,
                        std::vector<serve::QueryResult>& out) {
  util::ByteReader c(payload);
  const auto n = c.get<std::uint32_t>();
  if (!c.ok() || c.remaining() != static_cast<std::size_t>(n) * 10)
    return false;
  out.clear();
  out.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    serve::QueryResult r;
    const auto status = c.get<std::uint8_t>();
    if (status > static_cast<std::uint8_t>(serve::QueryStatus::kQuarantined))
      return false;
    r.status = static_cast<serve::QueryStatus>(status);
    const auto within = c.get<std::uint8_t>();
    if (within > 1) return false;
    r.dist.within = within != 0;
    r.dist.value = c.get<std::uint64_t>();
    out.push_back(r);
  }
  return c.done();
}

std::string encode_subscribe(const Subscribe& s) {
  std::string out;
  util::put_le(out, s.chain);
  out.push_back(static_cast<char>(s.force_snapshot ? 1 : 0));
  return out;
}

bool decode_subscribe(std::string_view payload, Subscribe& out) {
  util::ByteReader c(payload);
  out.chain = c.get<std::uint64_t>();
  const auto flags = c.get<std::uint8_t>();
  if (flags > 1) return false;
  out.force_snapshot = (flags & 1) != 0;
  return c.done();
}

std::string encode_stats_reply(std::span<const StatLine> lines) {
  std::string out;
  std::size_t bytes = 4;
  for (const StatLine& l : lines) bytes += 2 + l.name.size() + 8;
  out.reserve(bytes);
  util::put_le(out, static_cast<std::uint32_t>(lines.size()));
  for (const StatLine& l : lines) {
    // Metric names are short by construction; a name past u16 range would
    // be a bug on the encoding side, so truncate defensively.
    const std::size_t n = std::min<std::size_t>(l.name.size(), 0xffff);
    util::put_le(out, static_cast<std::uint16_t>(n));
    out.append(l.name.data(), n);
    util::put_le(out, l.value);
  }
  return out;
}

bool decode_stats_reply(std::string_view payload, std::vector<StatLine>& out) {
  util::ByteReader c(payload);
  const auto n = c.get<std::uint32_t>();
  // Minimum 10 bytes per line (empty name): a count the payload cannot
  // hold is a lie — refuse before the count-sized allocation.
  if (!c.ok() || static_cast<std::size_t>(n) > c.remaining() / 10)
    return false;
  out.clear();
  out.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    StatLine l;
    l.name = c.bytes(c.get<std::uint16_t>());
    l.value = c.get<std::uint64_t>();
    if (!c.ok()) return false;
    out.push_back(std::move(l));
  }
  return c.done();
}

std::string encode_caught_up(std::uint64_t chain) {
  std::string out;
  util::put_le(out, chain);
  return out;
}

bool decode_caught_up(std::string_view payload, std::uint64_t& chain) {
  util::ByteReader c(payload);
  chain = c.get<std::uint64_t>();
  return c.done();
}

std::string encode_snapshot(std::uint64_t chain,
                            const core::LabelStore::LoadedArena& loaded) {
  std::string prefix;
  util::put_le(prefix, chain);
  std::ostringstream os(prefix, std::ios::binary | std::ios::ate);
  core::LabelStore::save_mappable(os, loaded.scheme, loaded.labels,
                                  loaded.params);
  return os.str();
}

bool decode_snapshot_header(std::string_view payload, std::uint64_t& chain,
                            std::string_view& container) {
  util::ByteReader c(payload);
  chain = c.get<std::uint64_t>();
  container = payload.substr(c.offset());
  return c.ok();
}

const char* msg_type_name(MsgType t) noexcept {
  // Full switch, no default: a new MsgType that reaches the wire without
  // a codec branch here fails the build (-Werror=switch) and the
  // msgtype-codec lint rule.
  switch (t) {
    case MsgType::kQueryBatch:
      return "kQueryBatch";
    case MsgType::kQueryReply:
      return "kQueryReply";
    case MsgType::kError:
      return "kError";
    case MsgType::kOverloaded:
      return "kOverloaded";
    case MsgType::kSubscribe:
      return "kSubscribe";
    case MsgType::kSnapshot:
      return "kSnapshot";
    case MsgType::kDelta:
      return "kDelta";
    case MsgType::kEnd:
      return "kEnd";
    case MsgType::kStats:
      return "kStats";
    case MsgType::kStatsReply:
      return "kStatsReply";
    case MsgType::kCaughtUp:
      return "kCaughtUp";
  }
  return "kUnknown";  // out-of-enum value from a cast, not a real frame
}

}  // namespace treelab::net
