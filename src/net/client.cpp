#include "net/client.hpp"

#include <unistd.h>

#include <chrono>

#include "net/frame.hpp"
#include "net/net_io.hpp"

namespace treelab::net {

namespace {
using Clock = std::chrono::steady_clock;
}  // namespace

QueryClient::QueryClient(const std::string& host, std::uint16_t port,
                         int timeout_ms)
    : fd_(connect_with_timeout(host, port, timeout_ms)) {}

QueryClient::~QueryClient() { close(); }

void QueryClient::close() noexcept {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

std::optional<Frame> QueryClient::round_trip(MsgType type,
                                             std::string_view payload,
                                             int timeout_ms) {
  if (fd_ < 0) return std::nullopt;
  std::string frame = encode_frame(type, payload);
  maybe_corrupt_frame(frame);
  std::size_t sent = 0;
  while (sent < frame.size()) {
    const IoResult w =
        write_some(fd_, frame.data() + sent, frame.size() - sent);
    if (w.status != IoStatus::kOk) {
      close();
      return std::nullopt;
    }
    sent += w.n;
  }
  FrameReader reader;
  Frame f;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(timeout_ms);
  for (;;) {
    const FrameReader::Status st = reader.next(f);
    if (st == FrameReader::Status::kFrame) return f;
    if (st == FrameReader::Status::kBad || Clock::now() >= deadline) {
      close();
      return std::nullopt;
    }
    if (!wait_readable(fd_, 100)) continue;
    char buf[64 * 1024];
    const IoResult r = read_some(fd_, buf, sizeof(buf));
    if (r.status == IoStatus::kOk)
      reader.feed(buf, r.n);
    else if (r.status != IoStatus::kWouldBlock) {
      close();
      return std::nullopt;
    }
  }
}

QueryClient::BatchStatus QueryClient::query_batch(
    std::span<const serve::Request> reqs,
    std::vector<serve::QueryResult>& out, int timeout_ms) {
  const std::optional<Frame> f =
      round_trip(MsgType::kQueryBatch, encode_query_batch(reqs), timeout_ms);
  if (!f) return BatchStatus::kError;
  if (f->type == MsgType::kOverloaded) return BatchStatus::kOverloaded;
  if (f->type != MsgType::kQueryReply || !decode_query_reply(f->payload, out) ||
      out.size() != reqs.size()) {
    close();
    return BatchStatus::kError;
  }
  return BatchStatus::kOk;
}

bool QueryClient::stats(std::vector<StatLine>& out, int timeout_ms) {
  const std::optional<Frame> f = round_trip(MsgType::kStats, {}, timeout_ms);
  if (!f) return false;
  if (f->type != MsgType::kStatsReply || !decode_stats_reply(f->payload, out)) {
    close();
    return false;
  }
  return true;
}

}  // namespace treelab::net
