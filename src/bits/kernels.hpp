// bits::kernels — runtime-dispatched decode kernels for the bit-level hot
// paths (unary-run scanning, in-word select, bulk popcount).
//
// The serving stack spends most of a warm query decoding labels: word-wise
// unary runs (BitReader::get_unary), rank/select over unary high vectors
// (RankSelect / MonotoneSeq), and monotone-sequence element reads. Those
// inner loops compile against this facade instead of raw word ops; at
// process start the facade resolves ONE dispatch table for the best level
// the host supports and every call goes through it from then on:
//
//   * kScalar — portable C++ (std::popcount, ctz word loops, the
//     popcount-guided binary-halving select). This is the exact code path
//     the repo always had; every other level is locked bit-identical to it
//     by tests/bits_kernels_test.cpp before any bench row may move.
//   * kPopcnt — x86-64 POPCNT + BMI2: hardware popcount loops and the
//     branch-free PDEP/TZCNT in-word select (one deposit + one count
//     instead of a six-step halving cascade).
//   * kAvx2  — adds 256-bit zero-run skipping to the unary scanner (VPTESTZ
//     over 4 words per step — long runs cost a quarter of the branches) and
//     the PSHUFB nibble-LUT bulk popcount.
//
// Dispatch is overridable with TREELAB_KERNELS=scalar|popcnt|avx2|auto
// (read once, first use): forcing `scalar` is how benches measure the
// kernels' own win and how a miscompiled vector path would be ruled out in
// the field. Requesting a level the host cannot run falls back to the best
// supported one with a one-time stderr warning; the resolved level is
// exposed as the `bits.kernels.level` gauge and stamped into every
// BENCH_*.json provenance header.
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
  kAvx2 = 2,    ///< + AVX2 zero-run skip and PSHUFB bulk popcount
};

/// True when this host can execute `l` (kScalar is always true).
[[nodiscard]] bool supported(Level l) noexcept;

/// The level the facade resolved for this process (TREELAB_KERNELS
/// override applied, clamped to what the host supports).
[[nodiscard]] Level level() noexcept;

/// "scalar" / "popcnt" / "avx2".
[[nodiscard]] const char* level_name(Level l) noexcept;
[[nodiscard]] const char* level_name() noexcept;

/// "Not found" sentinel of find_first_one.
inline constexpr std::size_t kNpos = ~std::size_t{0};

/// The resolved dispatch table. References stay valid for the process
/// lifetime; hot loops grab `const Ops& k = ops();` once and call through
/// it (one indirect call per operation, no re-dispatch).
struct Ops {
  /// Position of the first set bit at or after `from` within the first
  /// `nbits` bits of `words`, or kNpos if the rest is all zeros. Bits of
  /// the final word past `nbits` are ignored (BitSpan guarantees them
  /// zero, but a corrupt mapping must not fake a terminator).
  std::size_t (*find_first_one)(const std::uint64_t* words, std::size_t nbits,
                                std::size_t from) noexcept;
  /// Position (0-based) of the k-th set bit of w. Precondition:
  /// k < popcount(w).
  int (*select_in_word)(std::uint64_t w, int k) noexcept;
  /// Total set bits in words[0..nwords).
  std::uint64_t (*popcount_words)(const std::uint64_t* words,
                                  std::size_t nwords) noexcept;
};
[[nodiscard]] const Ops& ops() noexcept;

/// Per-level entry points for the differential tests. Precondition:
/// supported(l). Semantics identical to the Ops members.
[[nodiscard]] std::size_t find_first_one(Level l, const std::uint64_t* words,
                                         std::size_t nbits,
                                         std::size_t from) noexcept;
[[nodiscard]] int select_in_word(Level l, std::uint64_t w, int k) noexcept;
[[nodiscard]] std::uint64_t popcount_words(Level l,
                                           const std::uint64_t* words,
                                           std::size_t nwords) noexcept;

}  // namespace treelab::bits::kernels
