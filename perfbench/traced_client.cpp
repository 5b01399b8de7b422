#include "traced_client.hpp"

#include <unistd.h>

#include <chrono>

#include "net/frame.hpp"
#include "net/net_io.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t ns(Clock::time_point a, Clock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

constexpr int kTimeoutMs = 5'000;

}  // namespace

TracedClient::TracedClient(const std::string& host, std::uint16_t port)
    : fd_(treelab::net::connect_with_timeout(host, port, kTimeoutMs)) {}

TracedClient::~TracedClient() {
  if (fd_ >= 0) ::close(fd_);
}

bool TracedClient::query_batch(std::span<const treelab::serve::Request> reqs,
                               std::vector<treelab::serve::QueryResult>& out,
                               ClientSpans& spans) {
  namespace net = treelab::net;
  if (fd_ < 0) return false;
  const Clock::time_point t_begin = Clock::now();

  std::string frame;
  net::append_frame(frame, net::MsgType::kQueryBatch,
                    net::encode_query_batch(reqs));
  Clock::time_point t = Clock::now();
  spans.encode_ns += ns(t_begin, t);

  for (std::size_t sent = 0; sent < frame.size();) {
    const net::IoResult w =
        net::write_some(fd_, frame.data() + sent, frame.size() - sent);
    if (w.status != net::IoStatus::kOk) return false;
    sent += w.n;
  }
  Clock::time_point t2 = Clock::now();
  spans.send_ns += ns(t, t2);
  spans.bytes += frame.size();

  net::FrameReader reader;
  net::Frame f;
  const Clock::time_point deadline =
      t2 + std::chrono::milliseconds(kTimeoutMs);
  char buf[64 * 1024];
  for (;;) {
    t = Clock::now();
    const net::FrameReader::Status st = reader.next(f);
    t2 = Clock::now();
    spans.frame_read_ns += ns(t, t2);
    if (st == net::FrameReader::Status::kBad) return false;
    if (st == net::FrameReader::Status::kFrame) break;
    if (t2 >= deadline) return false;
    if (!net::wait_readable(fd_, 100)) {
      spans.wait_ns += ns(t2, Clock::now());
      continue;
    }
    const net::IoResult r = net::read_some(fd_, buf, sizeof(buf));
    t = Clock::now();
    spans.wait_ns += ns(t2, t);
    if (r.status == net::IoStatus::kOk) {
      reader.feed(buf, r.n);
      spans.frame_read_ns += ns(t, Clock::now());
      spans.bytes += r.n;
    } else if (r.status != net::IoStatus::kWouldBlock) {
      return false;
    }
  }

  t = Clock::now();
  const bool ok = f.type == net::MsgType::kQueryReply &&
                  net::decode_query_reply(f.payload, out) &&
                  out.size() == reqs.size();
  t2 = Clock::now();
  spans.decode_ns += ns(t, t2);
  spans.round_trip_ns += ns(t_begin, t2);
  ++spans.batches;
  spans.queries += reqs.size();
  return ok;
}

}  // namespace perfbench
