// perfbench/traced_client — the client half of the traced run.
//
// TracedClient performs exactly the steps net::QueryClient::query_batch
// performs, through the same public net functions, with a clock read
// around each call so one batch's client-side time splits into stages:
//
//   encode      net::encode_query_batch + net::append_frame
//   send        net::write_some until the frame is out
//   wait        net::wait_readable + net::read_some (the server's work and
//               the loopback transfer both land here)
//   frame_read  FrameReader::feed/next, which includes the checksum verify
//   decode      net::decode_query_reply
//
// Nothing inside the library is instrumented; server-side stages come from
// the obs registry's histograms (see main.cpp).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "serve/forest_index.hpp"

namespace perfbench {

/// Summed over the batches of a traced window, in nanoseconds.
struct ClientSpans {
  std::uint64_t batches = 0;
  std::uint64_t queries = 0;
  std::uint64_t round_trip_ns = 0;
  std::uint64_t encode_ns = 0;
  std::uint64_t send_ns = 0;
  std::uint64_t wait_ns = 0;
  std::uint64_t frame_read_ns = 0;
  std::uint64_t decode_ns = 0;
  std::uint64_t bytes = 0;  ///< request + reply frame bytes
};

class TracedClient {
 public:
  TracedClient(const std::string& host, std::uint16_t port);
  ~TracedClient();
  TracedClient(const TracedClient&) = delete;
  TracedClient& operator=(const TracedClient&) = delete;

  [[nodiscard]] bool connected() const noexcept { return fd_ >= 0; }

  /// One batch round trip, its stage times added to `spans`. False on a
  /// connection or protocol failure, or a reply other than kQueryReply.
  [[nodiscard]] bool query_batch(
      std::span<const treelab::serve::Request> reqs,
      std::vector<treelab::serve::QueryResult>& out, ClientSpans& spans);

 private:
  int fd_ = -1;
};

}  // namespace perfbench
