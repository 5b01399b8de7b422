// perfbench/churn — the open-loop edit stream of the `churn` workload.
//
// One writer thread issues edits at a fixed rate, round-robin over the
// trees, whatever the queries are doing: edit k is due at start + k/rate.
// Each edit is a leaf insert under a random live node, or the delete of a
// leaf inserted during the run, applied through the tree's
// IncrementalRelabeler, packaged with make_delta() and installed with
// ForestIndex::apply_delta() while queries run; advance_delta() then moves
// the relabeler's epoch chain on. An edit's latency runs from its due time
// to apply_delta returning, so a stalled writer charges the wait to every
// edit queued behind it. Queries only name nodes that existed before the
// run, so no edit changes an answer they expect.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "forest.hpp"

namespace perfbench {

struct EditLog {
  std::vector<double> latency_ms;  ///< due time -> apply_delta returned
  std::vector<double> late_ms;     ///< due time -> the writer started it
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string first_error;
  // Traced runs only: summed time per step, serialized delta bytes.
  std::uint64_t relabel_ns = 0;
  std::uint64_t make_delta_ns = 0;
  std::uint64_t apply_delta_ns = 0;
  std::uint64_t delta_bytes = 0;
  // Relabeler stats() deltas over the run.
  std::uint64_t reemitted = 0;
  std::uint64_t fallbacks = 0;
};

class EditStream {
 public:
  EditStream(Stack& stack, const Workload& w, std::uint64_t seed, bool trace);
  ~EditStream();
  EditStream(const EditStream&) = delete;
  EditStream& operator=(const EditStream&) = delete;

  /// Stops the writer, joins it, and returns what it did.
  const EditLog& finish();

 private:
  struct TreeState {
    std::vector<tl::tree::NodeId> inserted;  ///< live nodes added this run
    /// Indexed by inserted id - n: parent, and live inserted children.
    std::vector<tl::tree::NodeId> parent;
    std::vector<std::vector<tl::tree::NodeId>> children;
  };

  void run();
  void edit(std::size_t tree, TreeState& ts);

  Stack& stack_;
  const tl::tree::NodeId n_;
  const double rate_;
  const bool trace_;
  std::mt19937_64 rng_;
  std::vector<TreeState> state_;
  std::vector<tl::core::RelabelStats> before_;
  EditLog log_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;  // guarded by mu_
  std::thread writer_;  // last: started after every member it uses
};

/// Byte-for-byte comparison of every tree's served labeling
/// (ForestIndex::snapshot_labels) with its relabeler's labels(). Returns
/// the number of trees that differ.
[[nodiscard]] std::size_t mismatched_trees(const Stack& stack);

}  // namespace perfbench
