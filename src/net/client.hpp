// net/QueryClient — a minimal blocking client for the batch-RPC protocol:
// one connection, one in-flight batch at a time. This is the reference
// consumer (treelab_cli, perfbench, tests); a
// high-throughput client would pipeline batches, which the server already
// supports — replies come back in request order per connection.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "net/frame.hpp"
#include "serve/forest_index.hpp"

namespace treelab::net {

class QueryClient {
 public:
  enum class BatchStatus : std::uint8_t {
    kOk = 0,          ///< `out` holds one result per request
    kOverloaded = 1,  ///< the server shed the batch; retry later
    kError = 2,       ///< connection/protocol failure (connection unusable)
  };

  /// Blocking connect. connected() reports the outcome.
  QueryClient(const std::string& host, std::uint16_t port,
              int timeout_ms = 2'000);
  ~QueryClient();
  QueryClient(const QueryClient&) = delete;
  QueryClient& operator=(const QueryClient&) = delete;

  [[nodiscard]] bool connected() const noexcept { return fd_ >= 0; }

  /// Sends one batch and waits for its reply (or kOverloaded).
  [[nodiscard]] BatchStatus query_batch(std::span<const serve::Request> reqs,
                                        std::vector<serve::QueryResult>& out,
                                        int timeout_ms = 5'000);

  /// Sends kStats and waits for the kStatsReply metrics dump — the wire
  /// view of the server process's obs registry, sorted by name. Returns
  /// false on connection/protocol failure (connection then unusable).
  [[nodiscard]] bool stats(std::vector<StatLine>& out, int timeout_ms = 5'000);

  void close() noexcept;

 private:
  /// Sends one frame and waits for the reply frame. nullopt on a send,
  /// read, framing or timeout failure, which also closes the connection.
  [[nodiscard]] std::optional<Frame> round_trip(MsgType type,
                                                std::string_view payload,
                                                int timeout_ms);

  int fd_ = -1;
};

}  // namespace treelab::net
