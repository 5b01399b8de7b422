// bits::kernels — the word kernels under label decoding: the unary-run
// scan behind BitReader::get_unary, and the per-word count and in-word
// select behind MonotoneSeq::get.
//
// The count and select are runtime-dispatched: at process start the facade
// resolves ONE dispatch table for the best level the host supports and
// every call goes through it from then on:
//
//   * kScalar — portable C++ (std::popcount and the popcount-guided
//     binary-halving select). This is the reference every other level is
//     locked bit-identical to by tests/bits_kernels_test.cpp.
//   * kPopcnt — x86-64 POPCNT + BMI2: the hardware count and the
//     branch-free PDEP/TZCNT in-word select (one deposit + one count
//     instead of a six-step halving cascade).
//
// The unary-run scan (find_first_one) has one implementation, a ctz word
// loop; it is not dispatched.
//
// Dispatch is overridable with TREELAB_KERNELS=scalar|popcnt|auto (read
// once, first use): forcing `scalar` is how benches measure the kernels'
// own win and how a miscompiled path would be ruled out in the field.
// Requesting a level the host cannot run falls back to the best supported
// one, and an unknown name to auto, each with a one-time stderr warning;
// the resolved level is exposed as the `bits.kernels.level` gauge and
// stamped into every BENCH_*.json provenance header.
//
// Per-level entry points (the `Level`-taking overloads) exist for the
// differential tests ONLY — production code calls the dispatched form.
#pragma once

#include <cstddef>
#include <cstdint>

namespace treelab::bits::kernels {

/// Dispatch levels, ordered: a higher level strictly extends the one below.
enum class Level : std::uint8_t {
  kScalar = 0,
  kPopcnt = 1,  ///< x86-64 POPCNT + BMI2 (PDEP select)
};

/// True when this host can execute `l` (kScalar is always true).
[[nodiscard]] bool supported(Level l) noexcept;

/// The level the facade resolved for this process (TREELAB_KERNELS
/// override applied, clamped to what the host supports).
[[nodiscard]] Level level() noexcept;

/// "scalar" / "popcnt".
[[nodiscard]] const char* level_name(Level l) noexcept;
[[nodiscard]] const char* level_name() noexcept;

/// "Not found" sentinel of find_first_one.
inline constexpr std::size_t kNpos = ~std::size_t{0};

/// Position of the first set bit at or after `from` within the first
/// `nbits` bits of `words`, or kNpos if the rest is all zeros. Bits of the
/// final word past `nbits` are ignored (BitSpan guarantees them zero, but
/// a corrupt mapping must not fake a terminator).
[[nodiscard]] std::size_t find_first_one(const std::uint64_t* words,
                                         std::size_t nbits,
                                         std::size_t from) noexcept;

/// The resolved dispatch table. References stay valid for the process
/// lifetime; hot loops grab `const Ops& k = ops();` once and call through
/// it (one indirect call per operation, no re-dispatch).
struct Ops {
  /// Number of set bits of w.
  int (*popcount)(std::uint64_t w) noexcept;
  /// Position (0-based) of the k-th set bit of w. Precondition:
  /// k < popcount(w).
  int (*select_in_word)(std::uint64_t w, int k) noexcept;
};
[[nodiscard]] const Ops& ops() noexcept;

/// Per-level entry points for the differential tests. Precondition:
/// supported(l). Semantics identical to the Ops members.
[[nodiscard]] int popcount(Level l, std::uint64_t w) noexcept;
[[nodiscard]] int select_in_word(Level l, std::uint64_t w, int k) noexcept;

}  // namespace treelab::bits::kernels
