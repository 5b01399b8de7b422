#include "bits/kernels.hpp"

#include <bit>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "bits/wordops.hpp"
#include "obs/metrics.hpp"

#if defined(__x86_64__) || defined(_M_X64)
#define TREELAB_KERNELS_X86 1
#include <immintrin.h>
#else
#define TREELAB_KERNELS_X86 0
#endif

namespace treelab::bits::kernels {
namespace {

using std::size_t;
using std::uint64_t;

// ---------------------------------------------------------------------------
// Scalar level — the reference semantics every other level is tested against.
// ---------------------------------------------------------------------------

int popcount_scalar(uint64_t w) noexcept { return std::popcount(w); }

int select_in_word_scalar(uint64_t w, int k) noexcept {
  return bits::select_in_word(w, k);  // popcount binary halving (wordops.hpp)
}

#if TREELAB_KERNELS_X86

// ---------------------------------------------------------------------------
// Popcnt level — hardware POPCNT and the branch-free PDEP select.
// ---------------------------------------------------------------------------

__attribute__((target("popcnt"))) int popcount_popcnt(uint64_t w) noexcept {
  return static_cast<int>(_mm_popcnt_u64(w));
}

// PDEP deposits the k-th set bit of a one-hot mask into the position of w's
// k-th set bit; TZCNT reads the position back. One dependent pair of 3-cycle
// ops instead of the 6-step halving cascade.
__attribute__((target("bmi,bmi2,popcnt"))) int select_in_word_bmi2(
    uint64_t w, int k) noexcept {
  return static_cast<int>(
      _tzcnt_u64(_pdep_u64(uint64_t{1} << static_cast<unsigned>(k), w)));
}

#endif  // TREELAB_KERNELS_X86

constexpr Ops kScalarOps{&popcount_scalar, &select_in_word_scalar};
#if TREELAB_KERNELS_X86
constexpr Ops kPopcntOps{&popcount_popcnt, &select_in_word_bmi2};
#endif

const Ops& ops_for(Level l) noexcept {
#if TREELAB_KERNELS_X86
  if (l == Level::kPopcnt) return kPopcntOps;
#else
  (void)l;
#endif
  return kScalarOps;
}

Level best_supported() noexcept {
  return supported(Level::kPopcnt) ? Level::kPopcnt : Level::kScalar;
}

// TREELAB_KERNELS=scalar|popcnt|auto. Unknown names and unsupported
// requests warn once on stderr and fall back (unknown -> auto; unsupported
// -> best supported) so a stale env var can never take serving down.
Level resolve_level() noexcept {
  Level pick = best_supported();
  if (const char* env = std::getenv("TREELAB_KERNELS");
      env != nullptr && *env != '\0' && std::strcmp(env, "auto") != 0) {
    Level want = pick;
    bool known = true;
    if (std::strcmp(env, "scalar") == 0) {
      want = Level::kScalar;
    } else if (std::strcmp(env, "popcnt") == 0) {
      want = Level::kPopcnt;
    } else {
      known = false;
      std::fprintf(stderr,
                   "treelab: TREELAB_KERNELS=%s not recognized "
                   "(scalar|popcnt|auto); using %s\n",
                   env, level_name(pick));
    }
    if (known) {
      if (supported(want)) {
        pick = want;
      } else {
        std::fprintf(stderr,
                     "treelab: TREELAB_KERNELS=%s unsupported on this host; "
                     "using %s\n",
                     env, level_name(pick));
      }
    }
  }
  if constexpr (obs::kEnabled) {
    obs::Registry::global()
        .gauge("bits.kernels.level")
        .set(static_cast<std::uint64_t>(pick));
  }
  return pick;
}

}  // namespace

// Word loop with a masked tail: bits of the last word past `nbits` never
// count, so only in-range bits can terminate a unary run.
std::size_t find_first_one(const std::uint64_t* words, std::size_t nbits,
                           std::size_t from) noexcept {
  if (from >= nbits) return kNpos;
  const size_t last = (nbits - 1) >> 6;
  size_t wi = from >> 6;
  uint64_t cur = words[wi] & (~uint64_t{0} << (from & 63));
  for (;;) {
    if (wi == last) {
      const unsigned tail = static_cast<unsigned>(nbits - (wi << 6));
      if (tail < 64) cur &= low_mask(tail);
      if (cur == 0) return kNpos;
      return (wi << 6) + static_cast<size_t>(lsb(cur));
    }
    if (cur != 0) return (wi << 6) + static_cast<size_t>(lsb(cur));
    cur = words[++wi];
  }
}

bool supported(Level l) noexcept {
  switch (l) {
    case Level::kScalar:
      return true;
    case Level::kPopcnt:
#if TREELAB_KERNELS_X86
      return __builtin_cpu_supports("popcnt") != 0 &&
             __builtin_cpu_supports("bmi") != 0 &&
             __builtin_cpu_supports("bmi2") != 0;
#else
      return false;
#endif
  }
  return false;
}

Level level() noexcept {
  static const Level resolved = resolve_level();
  return resolved;
}

const char* level_name(Level l) noexcept {
  return l == Level::kPopcnt ? "popcnt" : "scalar";
}

const char* level_name() noexcept { return level_name(level()); }

const Ops& ops() noexcept { return ops_for(level()); }

int popcount(Level l, std::uint64_t w) noexcept {
  return ops_for(l).popcount(w);
}

int select_in_word(Level l, std::uint64_t w, int k) noexcept {
  return ops_for(l).select_in_word(w, k);
}

}  // namespace treelab::bits::kernels
