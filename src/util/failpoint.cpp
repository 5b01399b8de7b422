#include "util/failpoint.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <new>
#include <stdexcept>

#include "util/io_error.hpp"
#include "util/thread_annotations.hpp"

namespace treelab::util {

FailpointAbort::FailpointAbort(std::string_view site)
    : site_(site), what_("failpoint: simulated crash at " + site_) {}

namespace failpoint {
namespace detail {

std::atomic<int> armed_sites{0};

namespace {

struct Spec {
  FailMode mode = FailMode::kError;
  std::uint64_t skip = 0;    // hits still to let pass
  std::int64_t count = -1;   // trips left; -1 = unlimited
  std::uint64_t arg = 0;
};

// One mutex guards both maps; armed_sites keeps the hot path off it.
// The maps live *inside* a registry struct (not as loose function-local
// statics) so the capability analysis can tie them to the mutex.
struct FpRegistry {
  util::Mutex mu;
  std::map<std::string, Spec, std::less<>> armed TREELAB_GUARDED_BY(mu);
  std::map<std::string, std::uint64_t, std::less<>> tripped
      TREELAB_GUARDED_BY(mu);

  static FpRegistry& get() {
    static FpRegistry r;  // function-local: safe before main()
    return r;
  }
};

bool parse_mode(std::string_view s, FailMode& out) {
  if (s == "error") out = FailMode::kError;
  else if (s == "short-read") out = FailMode::kShortRead;
  else if (s == "short-write") out = FailMode::kShortWrite;
  else if (s == "torn-write") out = FailMode::kTornWrite;
  else if (s == "throw") out = FailMode::kThrow;
  else if (s == "alloc-fail") out = FailMode::kAllocFail;
  else if (s == "corrupt") out = FailMode::kCorrupt;
  else return false;
  return true;
}

bool parse_u64(std::string_view s, std::uint64_t& out) {
  if (s.empty()) return false;
  std::uint64_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
    if (v > (~std::uint64_t{0} - static_cast<std::uint64_t>(c - '0')) / 10)
      return false;
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
  }
  out = v;
  return true;
}

// Arms TREELAB_FAILPOINTS before main() so even static-init-time I/O
// (none today) would see the sites.
[[maybe_unused]] const bool env_armed =
    parse_spec(std::getenv("TREELAB_FAILPOINTS"));

}  // namespace

std::optional<FailpointHit> check_slow(std::string_view site) {
  FpRegistry& reg = FpRegistry::get();
  const util::MutexLock lock(reg.mu);
  auto it = reg.armed.find(site);
  if (it == reg.armed.end()) return std::nullopt;
  Spec& s = it->second;
  if (s.skip > 0) {
    --s.skip;
    return std::nullopt;
  }
  if (s.count == 0) return std::nullopt;
  if (s.count > 0) --s.count;
  ++reg.tripped[it->first];
  return FailpointHit{s.mode, s.arg};
}

}  // namespace detail

void arm(std::string_view site, FailMode mode, std::uint64_t skip,
         std::int64_t count, std::uint64_t arg) {
  detail::FpRegistry& reg = detail::FpRegistry::get();
  const util::MutexLock lock(reg.mu);
  auto [it, inserted] = reg.armed.insert_or_assign(
      std::string(site), detail::Spec{mode, skip, count, arg});
  (void)it;
  if (inserted)
    detail::armed_sites.fetch_add(1, std::memory_order_relaxed);
}

void disarm(std::string_view site) {
  detail::FpRegistry& reg = detail::FpRegistry::get();
  const util::MutexLock lock(reg.mu);
  auto it = reg.armed.find(site);
  if (it == reg.armed.end()) return;
  reg.armed.erase(it);
  detail::armed_sites.fetch_sub(1, std::memory_order_relaxed);
}

void disarm_all() {
  detail::FpRegistry& reg = detail::FpRegistry::get();
  const util::MutexLock lock(reg.mu);
  reg.armed.clear();
  detail::armed_sites.store(0, std::memory_order_relaxed);
}

std::uint64_t trips(std::string_view site) {
  detail::FpRegistry& reg = detail::FpRegistry::get();
  const util::MutexLock lock(reg.mu);
  auto it = reg.tripped.find(site);
  return it == reg.tripped.end() ? 0 : it->second;
}

std::uint64_t total_trips() {
  detail::FpRegistry& reg = detail::FpRegistry::get();
  const util::MutexLock lock(reg.mu);
  std::uint64_t total = 0;
  for (const auto& [site, n] : reg.tripped) total += n;
  return total;
}

bool parse_spec(const char* spec) {
  if (spec == nullptr || *spec == '\0') return true;
  std::string_view rest(spec);
  bool ok = true;
  while (!rest.empty()) {
    const std::size_t comma = rest.find(',');
    std::string_view clause = rest.substr(0, comma);
    rest = comma == std::string_view::npos ? std::string_view{}
                                           : rest.substr(comma + 1);
    const std::size_t eq = clause.find('=');
    const std::string_view site = clause.substr(0, eq);
    // mode[:skip[:count[:arg]]]; a clause without '=' has no mode.
    std::string_view params =
        clause.substr(eq == std::string_view::npos ? clause.size() : eq + 1);
    std::string_view field[4];
    int nf = 0;
    while (nf < 4) {
      const std::size_t colon = params.find(':');
      field[nf++] = params.substr(0, colon);
      if (colon == std::string_view::npos) break;
      params = params.substr(colon + 1);
    }
    FailMode mode{};
    std::uint64_t skip = 0, arg = 0, count_u = 0;
    std::int64_t count = -1;
    bool good = !site.empty() && detail::parse_mode(field[0], mode);
    if (good && nf >= 2) good = detail::parse_u64(field[1], skip);
    if (good && nf >= 3) {
      if (field[2] == "-1") {
        count = -1;
      } else if (detail::parse_u64(field[2], count_u) &&
                 count_u <= std::uint64_t{1} << 62) {
        count = static_cast<std::int64_t>(count_u);
      } else {
        good = false;
      }
    }
    if (good && nf >= 4) good = detail::parse_u64(field[3], arg);
    if (!good) {
      // A clause that arms nothing must not pass silently: a typo'd
      // TREELAB_FAILPOINTS would leave a fault test testing nothing.
      ok = false;
      std::fprintf(stderr,
                   "treelab: ignoring malformed TREELAB_FAILPOINTS clause "
                   "'%.*s' (want site=mode[:skip[:count[:arg]]])\n",
                   static_cast<int>(clause.size()), clause.data());
      continue;
    }
    arm(site, mode, skip, count, arg);
  }
  return ok;
}

void raise(const FailpointHit& hit, std::string_view site,
           const std::string& path) {
  switch (hit.mode) {
    case FailMode::kThrow:
      throw std::runtime_error("failpoint: injected fault at " +
                               std::string(site));
    case FailMode::kAllocFail:
      throw std::bad_alloc();
    case FailMode::kTornWrite:
      throw FailpointAbort(site);
    case FailMode::kError:
    case FailMode::kShortRead:
    case FailMode::kShortWrite:
    case FailMode::kCorrupt:  // nothing to corrupt here: degrade to EIO
      break;
  }
  throw IoError(path, "failpoint [" + std::string(site) + "]", EIO);
}

}  // namespace failpoint
}  // namespace treelab::util
