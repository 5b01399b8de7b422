// bits::kernels — the word kernel under label decoding: the unary-run scan
// behind BitReader's slow path, one portable ctz word loop. The inline
// decoders answer a run that ends within one 64-bit peek themselves; this
// scan takes runs of 64 zeros or more, and runs the view's end cuts off.
//
// level() and level_name() name that one implementation. Every
// BENCH_*.json provenance header stamps level_name() as `kernels`, and
// perfbench records level() in its per-layer ledger.
#pragma once

#include <cstddef>
#include <cstdint>

namespace treelab::bits::kernels {

/// The decode-kernel level: 0, the portable code, the only one there is.
[[nodiscard]] constexpr int level() noexcept { return 0; }

/// The name of level(): "scalar".
[[nodiscard]] constexpr const char* level_name() noexcept { return "scalar"; }

/// "Not found" sentinel of find_first_one.
inline constexpr std::size_t kNpos = ~std::size_t{0};

/// Position of the first set bit at or after `from` within the first
/// `nbits` bits of `words`, or kNpos if the rest is all zeros. Bits of the
/// final word past `nbits` are ignored (BitSpan guarantees them zero, but
/// a corrupt mapping must not fake a terminator).
[[nodiscard]] std::size_t find_first_one(const std::uint64_t* words,
                                         std::size_t nbits,
                                         std::size_t from) noexcept;

}  // namespace treelab::bits::kernels
