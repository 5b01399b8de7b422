// net/frame — the wire protocol of treelab's serving layer.
//
// Every message is one length-prefixed, checksum-framed unit: the frame
// header of util/bytes.hpp that delta journal records (TLRC) also use, byte
// for byte (24 bytes, little-endian integers, CRC32C over the payload):
//
//   "TLNF" | u32 type | u64 payload_len | u64 payload_crc32c | payload
//
// so a torn or corrupted frame is detected the same way on the wire as in
// the journal file: the checksum fails, the connection (like the journal
// tail) is declared out of sync and re-planned — never parsed into garbage.
// The CRC sits zero-extended in its u64 field, and no reader of the older
// FNV-1a frames is kept, so both peers must run builds of one format.
//
// Message types and their payloads (all integers little-endian):
//
//   kQueryBatch  u32 count | count x (u32 tree | i32 u | i32 v)
//   kQueryReply  u32 count | count x (u8 status | u8 within | u64 value)
//   kError       utf-8 reason (diagnostic only; the connection closes)
//   kOverloaded  empty — the batch was shed, retry later
//   kSubscribe   u64 chain | u8 flags (bit 0: force full snapshot)
//   kSnapshot    u64 chain | LabelStore mappable container bytes
//   kDelta       LabelStore v3 delta container bytes
//   kEnd         empty — the leader drained; no more deltas will come
//   kStats       empty — dump the peer's metrics registry
//   kStatsReply  u32 count | count x (u16 name_len | name | u64 value)
//   kCaughtUp    u64 chain — the subscriber has replayed every committed
//                record; sent once per catch-up (re-armed by new deltas)
//
// FrameReader is the incremental decoder both peers run: bytes are fed in
// as they arrive, frames come out when complete. A frame that fails any
// check (magic, bound, checksum) is kBad — the stream has lost sync and
// the connection must be dropped; there is no resynchronization scan.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "serve/forest_index.hpp"
#include "util/bytes.hpp"

namespace treelab::net {

enum class MsgType : std::uint32_t {
  kQueryBatch = 1,
  kQueryReply = 2,
  kError = 3,
  kOverloaded = 4,
  kSubscribe = 5,
  kSnapshot = 6,
  kDelta = 7,
  kEnd = 8,
  kStats = 9,
  kStatsReply = 10,
  kCaughtUp = 11,
};

/// Highest value a frame header may carry; FrameReader rejects beyond it.
inline constexpr MsgType kMaxMsgType = MsgType::kCaughtUp;

/// Wire name of a message type ("kQueryBatch", ...); "kUnknown" outside
/// the enum. Deliberately a full switch with no default: adding a MsgType
/// without extending it breaks the build under -Werror=switch, and
/// tools/treelab_lint.py (msgtype-codec rule) additionally checks every
/// enum value appears here and in tests/net_frame_test.cpp.
[[nodiscard]] const char* msg_type_name(MsgType t) noexcept;

struct Frame {
  MsgType type = MsgType::kError;
  std::string payload;
};

inline constexpr std::size_t kFrameHeaderBytes = util::kFrameHeaderBytes;
/// A single message cannot meaningfully exceed this (the largest real
/// payload is a full snapshot); a bigger length field is a framing error.
inline constexpr std::uint64_t kMaxFramePayload = std::uint64_t{1} << 32;

/// Appends one encoded frame to `out`.
void append_frame(std::string& out, MsgType type, std::string_view payload);

[[nodiscard]] inline std::string encode_frame(MsgType type,
                                              std::string_view payload) {
  std::string out;
  append_frame(out, type, payload);
  return out;
}

/// Incremental frame decoder over a byte stream.
class FrameReader {
 public:
  enum class Status : std::uint8_t {
    kFrame = 0,     ///< one complete, validated frame in `out`
    kNeedMore = 1,  ///< no complete frame buffered yet
    kBad = 2,       ///< framing violation — drop the connection
  };

  /// `max_payload` bounds what a peer may make this side buffer (beyond
  /// the protocol-wide kMaxFramePayload); a length field above it is kBad.
  explicit FrameReader(std::uint64_t max_payload = kMaxFramePayload)
      : max_payload_(max_payload) {}

  void feed(const char* data, std::size_t n) { buf_.append(data, n); }

  /// Extracts the next complete frame. Once kBad, stays kBad.
  [[nodiscard]] Status next(Frame& out);

  [[nodiscard]] std::size_t buffered() const noexcept {
    return buf_.size() - pos_;
  }

 private:
  std::uint64_t max_payload_;
  std::string buf_;
  std::size_t pos_ = 0;
  bool bad_ = false;
};

// --- payload codecs ---------------------------------------------------------
//
// Decoders return false on any structural violation (truncation, trailing
// bytes, implausible counts) without throwing — a malformed payload from a
// peer is an expected input, not an exceptional one.

[[nodiscard]] std::string encode_query_batch(
    std::span<const serve::Request> reqs);
[[nodiscard]] bool decode_query_batch(std::string_view payload,
                                      std::vector<serve::Request>& out);

[[nodiscard]] std::string encode_query_reply(
    std::span<const serve::QueryResult> results);
[[nodiscard]] bool decode_query_reply(std::string_view payload,
                                      std::vector<serve::QueryResult>& out);

struct Subscribe {
  std::uint64_t chain = 0;      ///< follower's current epoch-chain value
  bool force_snapshot = false;  ///< start from a full snapshot regardless
};
[[nodiscard]] std::string encode_subscribe(const Subscribe& s);
[[nodiscard]] bool decode_subscribe(std::string_view payload, Subscribe& out);

/// One line of a kStatsReply: a flattened metric from the peer's registry
/// (kept independent of obs/ so the codec layer stays self-contained).
struct StatLine {
  std::string name;
  std::uint64_t value = 0;
};
[[nodiscard]] std::string encode_stats_reply(std::span<const StatLine> lines);
[[nodiscard]] bool decode_stats_reply(std::string_view payload,
                                      std::vector<StatLine>& out);

/// kCaughtUp payload: the chain value the subscriber is caught up at.
[[nodiscard]] std::string encode_caught_up(std::uint64_t chain);
[[nodiscard]] bool decode_caught_up(std::string_view payload,
                                    std::uint64_t& chain);

/// Snapshot payload: the chain value the labeling sits at, then the
/// labeling as a LabelStore mappable container.
[[nodiscard]] std::string encode_snapshot(
    std::uint64_t chain, const core::LabelStore::LoadedArena& loaded);
/// Splits the payload; the container bytes are parsed by the caller via
/// LabelStore::load_arena (whose validation and errors apply).
[[nodiscard]] bool decode_snapshot_header(std::string_view payload,
                                          std::uint64_t& chain,
                                          std::string_view& container);

}  // namespace treelab::net
