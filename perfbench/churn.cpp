#include "churn.hpp"

#include <chrono>
#include <cstring>
#include <exception>
#include <sstream>

#include "core/label_store.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t ns(Clock::time_point a, Clock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

double ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

}  // namespace

EditStream::EditStream(Stack& stack, const Workload& w, std::uint64_t seed,
                       bool trace)
    : stack_(stack),
      n_(w.n),
      rate_(w.edits_per_s),
      trace_(trace),
      rng_(seed ^ 0xed17ULL),
      state_(stack.relabelers.size()) {
  for (const auto& r : stack_.relabelers) before_.push_back(r->stats());
  writer_ = std::thread([this] { run(); });
}

EditStream::~EditStream() { (void)finish(); }

const EditLog& EditStream::finish() {
  if (writer_.joinable()) {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    writer_.join();
    for (std::size_t t = 0; t < before_.size(); ++t) {
      const tl::core::RelabelStats& a = before_[t];
      const tl::core::RelabelStats& b = stack_.relabelers[t]->stats();
      log_.reemitted += b.labels_reemitted - a.labels_reemitted;
      log_.fallbacks += (b.full_heavy_flip - a.full_heavy_flip) +
                        (b.full_dirty_cone - a.full_dirty_cone);
    }
  }
  return log_;
}

void EditStream::run() {
  const Clock::time_point start = Clock::now();
  const std::size_t trees = state_.size();
  for (std::uint64_t k = 0; trees > 0; ++k) {
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(static_cast<double>(k) /
                                                  rate_));
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (cv_.wait_until(lock, due, [this] { return stop_; })) return;
    }
    log_.late_ms.push_back(ms(Clock::now() - due));
    const std::size_t tree = k % trees;
    ++log_.attempted;
    try {
      edit(tree, state_[tree]);
      log_.latency_ms.push_back(ms(Clock::now() - due));
    } catch (const std::exception& e) {
      // A failed edit leaves the relabeler and the index out of step, so
      // the stream stops; the run reports the failure.
      ++log_.failed;
      log_.first_error = e.what();
      return;
    }
  }
}

void EditStream::edit(std::size_t tree, TreeState& ts) {
  tl::core::IncrementalRelabeler& rl = *stack_.relabelers[tree];
  const auto base = static_cast<std::size_t>(n_);
  const Clock::time_point t0 = Clock::now();
  const auto slot = [base](tl::tree::NodeId v) {
    return static_cast<std::size_t>(v) - base;
  };
  if (!ts.inserted.empty() && rng_() % 2 == 0) {
    // Delete: walk down from a random inserted node to an inserted leaf
    // (inserted nodes only ever get inserted children).
    tl::tree::NodeId v = ts.inserted[rng_() % ts.inserted.size()];
    while (!ts.children[slot(v)].empty()) v = ts.children[slot(v)].back();
    rl.delete_leaf(v);
    const tl::tree::NodeId p = ts.parent[slot(v)];
    if (p >= n_) std::erase(ts.children[slot(p)], v);
    std::erase(ts.inserted, v);
  } else {
    const std::size_t pick = rng_() % (base + ts.inserted.size());
    const tl::tree::NodeId p =
        pick < base ? static_cast<tl::tree::NodeId>(pick)
                    : ts.inserted[pick - base];
    const tl::tree::NodeId v = rl.insert_leaf(p);
    if (ts.parent.size() <= slot(v)) {
      ts.parent.resize(slot(v) + 1, tl::tree::kNoNode);
      ts.children.resize(slot(v) + 1);
    }
    ts.parent[slot(v)] = p;
    if (p >= n_) ts.children[slot(p)].push_back(v);
    ts.inserted.push_back(v);
  }
  const Clock::time_point t1 = Clock::now();
  const tl::core::LabelDelta d = rl.make_delta();
  const Clock::time_point t2 = Clock::now();
  (void)stack_.index->apply_delta(static_cast<tl::serve::TreeId>(tree), d);
  const Clock::time_point t3 = Clock::now();
  rl.advance_delta(d);
  if (trace_) {
    log_.relabel_ns += ns(t0, t1);
    log_.make_delta_ns += ns(t1, t2);
    log_.apply_delta_ns += ns(t2, t3);
    std::ostringstream os;
    tl::core::LabelStore::save_delta(os, d);
    log_.delta_bytes += os.str().size();
  }
}

std::size_t mismatched_trees(const Stack& stack) {
  std::size_t bad = 0;
  for (std::size_t t = 0; t < stack.relabelers.size(); ++t) {
    const tl::bits::LabelArena& want = stack.relabelers[t]->labels();
    const tl::bits::LabelArena got =
        stack.index->snapshot_labels(static_cast<tl::serve::TreeId>(t))
            .labels;
    bool same = got.size() == want.size();
    for (std::size_t i = 0; same && i < want.size(); ++i) {
      const std::size_t bits = want.label_bits(i);
      same = got.label_bits(i) == bits &&
             std::memcmp(got.label_words(i), want.label_words(i),
                         (bits + 63) / 64 * sizeof(std::uint64_t)) == 0;
    }
    bad += same ? 0 : 1;
  }
  return bad;
}

}  // namespace perfbench
