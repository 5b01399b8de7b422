#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>

#include "util/failpoint.hpp"
#include "util/parallel.hpp"

namespace treelab::obs {

std::uint64_t Histogram::Snapshot::percentile(double q) const {
  const std::uint64_t total = count();
  if (total == 0) return 0;
  if (q < 0) q = 0;
  if (q > 1) q = 1;
  std::uint64_t rank =
      static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(total)));
  if (rank == 0) rank = 1;
  std::uint64_t cum = 0;
  for (int i = 0; i < kBucketCount; ++i) {
    cum += buckets[i];
    if (cum >= rank) {
      const std::uint64_t floor_v = bucket_floor(i);
      return floor_v < max ? floor_v : max;
    }
  }
  return max;  // unreachable: cum == total >= rank after the last bucket
}

CallbackGuard& CallbackGuard::operator=(CallbackGuard&& o) noexcept {
  if (this != &o) {
    release();
    reg_ = o.reg_;
    name_ = std::move(o.name_);
    id_ = o.id_;
    o.reg_ = nullptr;
    o.id_ = 0;
  }
  return *this;
}

void CallbackGuard::release() {
  if (reg_ != nullptr && id_ != 0) reg_->remove_callback(name_, id_);
  reg_ = nullptr;
  id_ = 0;
}

Registry& Registry::global() {
  // Leaked on purpose (never destroyed): hot-path metric references held
  // by long-lived objects must stay valid through static destruction. The
  // util-layer globals ride along as permanent callbacks — their guards
  // are leaked too, held by a static pointer so that LeakSanitizer sees
  // them as reachable rather than lost.
  static Registry* g = [] {
    // lint: allow(naked-new): deliberate leak — must outlive static dtors
    auto* r = new Registry();
    // lint: allow(naked-new): guards leak with the registry they point at
    static auto* guards = new std::vector<CallbackGuard>();
    guards->push_back(r->set_callback("util.thread_env_rejections",
                                      [] { return util::thread_env_rejections(); }));
    guards->push_back(r->set_callback("util.failpoint.trips",
                                      [] { return util::failpoint::total_trips(); }));
    return r;
  }();
  return *g;
}

Counter& Registry::counter(std::string_view name) {
  const util::MutexLock lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end())
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  return *it->second;
}

Gauge& Registry::gauge(std::string_view name) {
  const util::MutexLock lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end())
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  return *it->second;
}

Histogram& Registry::histogram(std::string_view name) {
  const util::MutexLock lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end())
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  return *it->second;
}

CallbackGuard Registry::set_callback(std::string_view name,
                                     std::function<std::uint64_t()> fn) {
  CallbackGuard g;
  g.reg_ = this;
  g.name_ = std::string(name);
  {
    const util::MutexLock lock(mu_);
    g.id_ = next_callback_id_++;
    callbacks_[g.name_].push_back(CallbackEntry{g.id_, std::move(fn)});
  }
  return g;
}

void Registry::remove_callback(std::string_view name, std::uint64_t id) {
  const util::MutexLock lock(mu_);
  auto it = callbacks_.find(name);
  if (it == callbacks_.end()) return;
  auto& v = it->second;
  v.erase(std::remove_if(v.begin(), v.end(),
                         [id](const CallbackEntry& e) { return e.id == id; }),
          v.end());
  if (v.empty()) callbacks_.erase(it);
}

std::vector<Sample> Registry::snapshot() const {
  std::vector<Sample> out;
  const util::MutexLock lock(mu_);
  out.reserve(counters_.size() + gauges_.size() + callbacks_.size() +
              6 * histograms_.size());
  for (const auto& [name, c] : counters_) out.push_back({name, c->value()});
  for (const auto& [name, g] : gauges_) out.push_back({name, g->value()});
  // Latest registrant wins when several live instances share a name.
  for (const auto& [name, entries] : callbacks_)
    if (!entries.empty()) out.push_back({name, entries.back().fn()});
  for (const auto& [name, h] : histograms_) {
    const Histogram::Snapshot s = h->snapshot();
    out.push_back({name + "_count", s.count()});
    out.push_back({name + "_sum", s.sum});
    out.push_back({name + "_max", s.max});
    out.push_back({name + "_p50", s.percentile(0.50)});
    out.push_back({name + "_p90", s.percentile(0.90)});
    out.push_back({name + "_p99", s.percentile(0.99)});
  }
  std::sort(out.begin(), out.end(),
            [](const Sample& a, const Sample& b) { return a.name < b.name; });
  return out;
}

std::string Registry::render_text() const { return render_samples(snapshot()); }

std::string render_samples(const std::vector<Sample>& samples) {
  std::string out;
  for (const Sample& s : samples) {
    out += s.name;
    out += ' ';
    out += std::to_string(s.value);
    out += '\n';
  }
  return out;
}

}  // namespace treelab::obs
