#include "net/frame.hpp"

#include <algorithm>
#include <cstring>
#include <sstream>

#include "util/hash.hpp"

namespace treelab::net {

using util::fnv1a;

namespace {

constexpr char kFrameMagic[4] = {'T', 'L', 'N', 'F'};

void put_u16(std::string& out, std::uint16_t v) {
  out.push_back(static_cast<char>(v & 0xff));
  out.push_back(static_cast<char>((v >> 8) & 0xff));
}

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

std::uint32_t get_u32(const char* p) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i)
    v = (v << 8) | static_cast<unsigned char>(p[i]);
  return v;
}

std::uint64_t get_u64(const char* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i)
    v = (v << 8) | static_cast<unsigned char>(p[i]);
  return v;
}

/// Bounded sequential reader over a payload: false once anything ran past
/// the end, so decoders can check once at the end instead of per-field.
struct Cursor {
  const char* p;
  std::size_t left;
  bool ok = true;

  explicit Cursor(std::string_view s) : p(s.data()), left(s.size()) {}

  std::uint16_t u16() {
    if (left < 2) {
      ok = false;
      return 0;
    }
    const auto v = static_cast<std::uint16_t>(
        static_cast<unsigned char>(p[0]) |
        (static_cast<unsigned char>(p[1]) << 8));
    p += 2;
    left -= 2;
    return v;
  }
  std::uint32_t u32() {
    if (left < 4) {
      ok = false;
      return 0;
    }
    const std::uint32_t v = get_u32(p);
    p += 4;
    left -= 4;
    return v;
  }
  std::uint64_t u64() {
    if (left < 8) {
      ok = false;
      return 0;
    }
    const std::uint64_t v = get_u64(p);
    p += 8;
    left -= 8;
    return v;
  }
  std::uint8_t u8() {
    if (left < 1) {
      ok = false;
      return 0;
    }
    const auto v = static_cast<std::uint8_t>(static_cast<unsigned char>(*p));
    ++p;
    --left;
    return v;
  }
  [[nodiscard]] bool done() const noexcept { return ok && left == 0; }
};

}  // namespace

void append_frame(std::string& out, MsgType type, std::string_view payload) {
  out.reserve(out.size() + kFrameHeaderBytes + payload.size());
  out.append(kFrameMagic, 4);
  put_u32(out, static_cast<std::uint32_t>(type));
  put_u64(out, payload.size());
  put_u64(out, fnv1a(payload.data(), payload.size()));
  out.append(payload);
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
  if (std::memcmp(hdr, kFrameMagic, 4) != 0) {
    bad_ = true;
    return Status::kBad;
  }
  const std::uint32_t type = get_u32(hdr + 4);
  const std::uint64_t len = get_u64(hdr + 8);
  const std::uint64_t sum = get_u64(hdr + 16);
  if (type < static_cast<std::uint32_t>(MsgType::kQueryBatch) ||
      type > static_cast<std::uint32_t>(kMaxMsgType) ||
      len > kMaxFramePayload || len > max_payload_) {
    bad_ = true;
    return Status::kBad;
  }
  if (buf_.size() - pos_ - kFrameHeaderBytes < len) return Status::kNeedMore;
  const char* payload = hdr + kFrameHeaderBytes;
  if (fnv1a(payload, static_cast<std::size_t>(len)) != sum) {
    bad_ = true;
    return Status::kBad;
  }
  out.type = static_cast<MsgType>(type);
  out.payload.assign(payload, static_cast<std::size_t>(len));
  pos_ += kFrameHeaderBytes + static_cast<std::size_t>(len);
  return Status::kFrame;
}

std::string encode_query_batch(std::span<const serve::Request> reqs) {
  std::string out;
  out.reserve(4 + reqs.size() * 12);
  put_u32(out, static_cast<std::uint32_t>(reqs.size()));
  for (const serve::Request& r : reqs) {
    put_u32(out, r.tree);
    put_u32(out, static_cast<std::uint32_t>(r.u));
    put_u32(out, static_cast<std::uint32_t>(r.v));
  }
  return out;
}

bool decode_query_batch(std::string_view payload,
                        std::vector<serve::Request>& out) {
  Cursor c(payload);
  const std::uint32_t n = c.u32();
  // Each request is 12 bytes: a count the payload cannot hold is a lie —
  // refuse before the count-sized allocation, same rule as the journal.
  if (!c.ok || c.left != static_cast<std::size_t>(n) * 12) return false;
  out.clear();
  out.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    serve::Request r;
    r.tree = c.u32();
    r.u = static_cast<tree::NodeId>(c.u32());
    r.v = static_cast<tree::NodeId>(c.u32());
    out.push_back(r);
  }
  return c.done();
}

std::string encode_query_reply(std::span<const serve::QueryResult> results) {
  std::string out;
  out.reserve(4 + results.size() * 10);
  put_u32(out, static_cast<std::uint32_t>(results.size()));
  for (const serve::QueryResult& r : results) {
    out.push_back(static_cast<char>(r.status));
    out.push_back(static_cast<char>(r.dist.within ? 1 : 0));
    put_u64(out, r.dist.value);
  }
  return out;
}

bool decode_query_reply(std::string_view payload,
                        std::vector<serve::QueryResult>& out) {
  Cursor c(payload);
  const std::uint32_t n = c.u32();
  if (!c.ok || c.left != static_cast<std::size_t>(n) * 10) return false;
  out.clear();
  out.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    serve::QueryResult r;
    const std::uint8_t status = c.u8();
    if (status > static_cast<std::uint8_t>(serve::QueryStatus::kQuarantined))
      return false;
    r.status = static_cast<serve::QueryStatus>(status);
    const std::uint8_t within = c.u8();
    if (within > 1) return false;
    r.dist.within = within != 0;
    r.dist.value = c.u64();
    out.push_back(r);
  }
  return c.done();
}

std::string encode_subscribe(const Subscribe& s) {
  std::string out;
  put_u64(out, s.chain);
  out.push_back(static_cast<char>(s.force_snapshot ? 1 : 0));
  return out;
}

bool decode_subscribe(std::string_view payload, Subscribe& out) {
  Cursor c(payload);
  out.chain = c.u64();
  const std::uint8_t flags = c.u8();
  if (flags > 1) return false;
  out.force_snapshot = (flags & 1) != 0;
  return c.done();
}

std::string encode_stats_reply(std::span<const StatLine> lines) {
  std::string out;
  std::size_t bytes = 4;
  for (const StatLine& l : lines) bytes += 2 + l.name.size() + 8;
  out.reserve(bytes);
  put_u32(out, static_cast<std::uint32_t>(lines.size()));
  for (const StatLine& l : lines) {
    // Metric names are short by construction; a name past u16 range would
    // be a bug on the encoding side, so truncate defensively.
    const std::size_t n = std::min<std::size_t>(l.name.size(), 0xffff);
    put_u16(out, static_cast<std::uint16_t>(n));
    out.append(l.name.data(), n);
    put_u64(out, l.value);
  }
  return out;
}

bool decode_stats_reply(std::string_view payload, std::vector<StatLine>& out) {
  Cursor c(payload);
  const std::uint32_t n = c.u32();
  // Minimum 10 bytes per line (empty name): a count the payload cannot
  // hold is a lie — refuse before the count-sized allocation.
  if (!c.ok || static_cast<std::size_t>(n) > c.left / 10) return false;
  out.clear();
  out.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint16_t name_len = c.u16();
    if (!c.ok || c.left < static_cast<std::size_t>(name_len) + 8) return false;
    StatLine l;
    l.name.assign(c.p, name_len);
    c.p += name_len;
    c.left -= name_len;
    l.value = c.u64();
    out.push_back(std::move(l));
  }
  return c.done();
}

std::string encode_caught_up(std::uint64_t chain) {
  std::string out;
  put_u64(out, chain);
  return out;
}

bool decode_caught_up(std::string_view payload, std::uint64_t& chain) {
  Cursor c(payload);
  chain = c.u64();
  return c.done();
}

std::string encode_snapshot(std::uint64_t chain,
                            const core::LabelStore::LoadedArena& loaded) {
  std::ostringstream os(std::ios::binary);
  core::LabelStore::save_mappable(os, loaded.scheme, loaded.labels,
                                  loaded.params);
  std::string out;
  put_u64(out, chain);
  out += os.str();
  return out;
}

bool decode_snapshot_header(std::string_view payload, std::uint64_t& chain,
                            std::string_view& container) {
  if (payload.size() < 8) return false;
  chain = get_u64(payload.data());
  container = payload.substr(8);
  return true;
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
