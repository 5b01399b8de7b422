// util/failpoint — named fault-injection points for the durability layer.
//
// A failpoint is a named site compiled into an I/O or swap path:
//
//   if (auto fp = util::failpoint::check("fs.write")) { /* inject */ }
//
// When nothing is armed — the production state — check() is one relaxed
// atomic load and a predicted-not-taken branch (tools/overhead_gate.py
// holds the armed slow path to >= 0.7 of disarmed perfbench throughput).
// Sites are armed programmatically (tests, the crash-recovery fuzzer) or
// from the environment at process start:
//
//   TREELAB_FAILPOINTS="site=mode[:skip[:count[:arg]]][,site=...]"
//   e.g. TREELAB_FAILPOINTS="fs.write=torn-write:2:1:100"
//
// with modes error | short-read | short-write | torn-write | throw |
// alloc-fail | corrupt; `skip` hits pass through before the point fires, it fires
// `count` times (-1 = forever), and `arg` is mode-specific (bytes kept by
// a short/torn read or write).
//
// What firing *means* is the site's contract: "fs.read" returns only
// `arg` bytes on short-read; "fs.write" persists `arg` bytes and then
// reports an error (short-write) or raises FailpointAbort (torn-write —
// the simulated kill the crash-recovery fuzzer drives through the
// journal); "mapped_arena.map" treats any hit as "mmap unavailable" and
// falls back to streamed loading. Sites without a byte stream apply the
// scalar modes uniformly via raise().
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <optional>
#include <string>
#include <string_view>

namespace treelab::util {

enum class FailMode : std::uint8_t {
  kError,       ///< the site reports an I/O error (util::IoError, fake EIO)
  kShortRead,   ///< a read yields only `arg` bytes, then clean EOF
  kShortWrite,  ///< a write persists only `arg` bytes, then reports an error
  kTornWrite,   ///< a write persists only `arg` bytes, then FailpointAbort
  kThrow,       ///< the site throws std::runtime_error
  kAllocFail,   ///< the site throws std::bad_alloc
  kCorrupt,     ///< the site flips a byte in its buffer (bit `arg` % width)
};

/// The simulated crash. Deliberately NOT a std::runtime_error: recovery
/// and retry code catches runtime_error (corruption) and IoError
/// (transient), and neither may swallow a kill — a torn write must
/// propagate to the top of the operation like SIGKILL would, leaving
/// whatever bytes already hit the file for recovery to deal with.
class FailpointAbort : public std::exception {
 public:
  explicit FailpointAbort(std::string_view site);
  [[nodiscard]] const char* what() const noexcept override {
    return what_.c_str();
  }
  [[nodiscard]] const std::string& site() const noexcept { return site_; }

 private:
  std::string site_;
  std::string what_;
};

/// What an armed site should do right now (one trip of the spec).
struct FailpointHit {
  FailMode mode = FailMode::kError;
  std::uint64_t arg = 0;
};

namespace failpoint {

namespace detail {
/// Count of currently armed sites; zero keeps check() on its fast path.
extern std::atomic<int> armed_sites;
[[nodiscard]] std::optional<FailpointHit> check_slow(std::string_view site);
}  // namespace detail

/// The hook compiled into every site: nullopt means "carry on", a hit
/// means "inject this". Cost with nothing armed is one relaxed load.
[[nodiscard]] inline std::optional<FailpointHit> check(
    std::string_view site) noexcept {
  if (detail::armed_sites.load(std::memory_order_relaxed) == 0)
    return std::nullopt;
  return detail::check_slow(site);
}

/// Arms `site`: after `skip` passes it fires `count` times (-1 = every
/// hit) with the given mode/arg. Re-arming a site replaces its spec and
/// resets its skip/count progress (cumulative trips() survive).
void arm(std::string_view site, FailMode mode, std::uint64_t skip = 0,
         std::int64_t count = -1, std::uint64_t arg = 0);

void disarm(std::string_view site);
void disarm_all();

/// How many times `site` has fired since process start (survives disarm).
[[nodiscard]] std::uint64_t trips(std::string_view site);

/// Total trips across every site since process start (survives disarm).
/// Exposed through the metrics registry as `util.failpoint.trips`.
[[nodiscard]] std::uint64_t total_trips();

/// Parses a TREELAB_FAILPOINTS-style spec and arms it. Returns false (and
/// arms nothing from the bad clause) on a malformed spec, naming each
/// rejected clause on stderr. nullptr/"" is trivially true. Called once at
/// startup with the environment variable, so each bad clause warns once.
bool parse_spec(const char* spec);

/// Applies a hit at a site with no byte stream to shorten: kError becomes
/// an IoError naming `path` (fake EIO), kThrow a runtime_error, kAllocFail
/// a bad_alloc; the torn/short byte modes degrade to FailpointAbort /
/// IoError respectively. Never returns.
[[noreturn]] void raise(const FailpointHit& hit, std::string_view site,
                        const std::string& path);

}  // namespace failpoint
}  // namespace treelab::util
