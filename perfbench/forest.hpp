// perfbench/forest — the seeded inputs of one benchmark workload and the
// serving stack they run against.
//
// A workload is a fixed forest (tree count, nodes per tree, which schemes
// label it), a ForestIndex cache budget, and for `churn` an edit rate. A
// seed draws the traffic: a request stream as large as the forest's
// working set (one request per node, rounded up to whole batches) and the
// edit choices. Every request's oracle distance is computed with
// tree::NcaIndex before anything is timed. set_up() then does what a serving node does before its
// first query: build the labels, save them as mappable LabelStore files,
// open them into a ForestIndex behind a loopback net::Server, and prime the
// attached-label cache through a net::QueryClient.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/incremental_relabeler.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "serve/forest_index.hpp"
#include "tree/tree.hpp"

namespace perfbench {

namespace tl = treelab;

/// One closed-loop client, one batch of this many requests in flight.
inline constexpr std::size_t kBatch = 8192;
/// ForestIndex fan-out. Four shards at two threads leaves the client and
/// the server loop a core each on a 4-core host.
inline constexpr std::size_t kShards = 4;
inline constexpr int kIndexThreads = 2;
/// Scheme-wide constants of the kdist and approx trees.
inline constexpr std::uint64_t kKdistK = 64;
inline constexpr std::uint64_t kApproxInvEps = 8;

enum class Scheme : std::uint8_t { kFgnw, kAlstrup, kPeleg, kApprox, kKdist };
inline constexpr std::size_t kSchemeCount = 5;
inline constexpr std::array<const char*, kSchemeCount> kSchemeNames = {
    "fgnw", "alstrup", "peleg", "approx", "kdist"};

struct Workload {
  std::string name;
  std::size_t trees = 0;
  tl::tree::NodeId n = 0;  ///< nodes per tree
  /// Every tree labeled Alstrup by a core::IncrementalRelabeler, with an
  /// open-loop edit stream beside the queries. Otherwise the trees cycle
  /// through all five schemes and nothing is edited.
  bool churn = false;
  std::size_t cache_bytes = 0;  ///< ForestIndex cache budget, all shards
  double edits_per_s = 0;
  /// Set-ups per run; setup_s reports their median.
  int setups = 1;
};

/// The named workload at full or smoke size. Throws std::invalid_argument
/// on an unknown name.
[[nodiscard]] Workload workload(const std::string& name, bool smoke);

struct Inputs {
  std::vector<tl::tree::Tree> trees;
  std::vector<Scheme> scheme;               ///< per tree
  std::vector<tl::serve::Request> stream;   ///< whole batches
  std::vector<std::uint32_t> expect;        ///< oracle distance per request
};

/// The workload's forest, and the request stream `seed` draws for it with
/// its oracle answers.
[[nodiscard]] Inputs make_inputs(const Workload& w, std::uint64_t seed);

/// True when `r` is a correct answer for a pair at tree distance `d` on a
/// tree labeled with `s`: exact schemes must equal d, kdist must set
/// `within` exactly when d <= k (and then equal d), approx must lie in
/// [d, (1 + 1/inv_eps) d].
[[nodiscard]] bool answer_ok(Scheme s, std::uint64_t d,
                             const tl::serve::QueryResult& r);

/// Exact label-size counts over a forest, per scheme.
struct LabelSizes {
  std::array<std::uint64_t, kSchemeCount> bits{};
  std::array<std::uint64_t, kSchemeCount> labels{};
  std::array<std::uint64_t, kSchemeCount> max_bits{};

  [[nodiscard]] std::uint64_t total_bits() const;
  [[nodiscard]] std::uint64_t total_labels() const;
  [[nodiscard]] std::uint64_t longest() const;
};

/// Where one set-up spent its time (seconds).
struct SetupTimes {
  std::array<double, kSchemeCount> build_s{};  ///< summed per scheme
  std::array<int, kSchemeCount> built{};       ///< trees per scheme
  double save_s = 0;
  double open_s = 0;
  double prime_s = 0;
  double total_s = 0;
};

/// A running serving stack. Members are declared in dependency order, so
/// destruction closes the client, drains the server, then drops the index.
struct Stack {
  std::vector<std::unique_ptr<tl::core::IncrementalRelabeler>> relabelers;
  std::vector<std::string> files;
  std::unique_ptr<tl::serve::ForestIndex> index;
  std::unique_ptr<tl::net::Server> server;
  std::unique_ptr<tl::net::QueryClient> client;
  std::size_t prime_failures = 0;  ///< non-kOk replies while priming
};

[[nodiscard]] tl::serve::ForestOptions index_options(const Workload& w);

/// Builds, saves, opens and primes the workload's forest under `dir`.
/// Priming runs stream batches until the cache first evicts or the stream
/// has been sent once. Throws on any I/O or connection failure.
[[nodiscard]] std::unique_ptr<Stack> set_up(const Workload& w,
                                            const Inputs& in,
                                            const std::string& dir,
                                            SetupTimes& times,
                                            LabelSizes& sizes);

}  // namespace perfbench
