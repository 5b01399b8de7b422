// Word-RAM primitives used throughout treelab.
//
// The paper's query-time analysis assumes a word-RAM with word size
// Omega(log n); these helpers are the constant-time operations it relies on
// (most-significant bit, longest common prefix of binary expansions,
// powers-of-two rounding for the 2-approximations of Section 4.3).
#pragma once

#include <bit>
#include <cstdint>

namespace treelab::bits {

/// Number of bits needed to write `x` in binary; bitwidth(0) == 0.
[[nodiscard]] constexpr int bitwidth(std::uint64_t x) noexcept {
  return std::bit_width(x);
}

/// Index of the most significant set bit (0-based); msb(1) == 0.
/// Precondition: x != 0.
[[nodiscard]] constexpr int msb(std::uint64_t x) noexcept {
  return 63 - std::countl_zero(x);
}

/// Index of the least significant set bit (0-based). Precondition: x != 0.
[[nodiscard]] constexpr int lsb(std::uint64_t x) noexcept {
  return std::countr_zero(x);
}

/// ceil(log2(x)). Precondition: x != 0. ceil_log2(1) == 0.
[[nodiscard]] constexpr int ceil_log2(std::uint64_t x) noexcept {
  return x <= 1 ? 0 : msb(x - 1) + 1;
}

/// The paper's 2-approximation ⌊x⌋₂ = 2^⌊log x⌋: the largest power of two
/// not exceeding x (Section 4.3). Precondition: x != 0.
[[nodiscard]] constexpr std::uint64_t pow2_floor(std::uint64_t x) noexcept {
  return std::uint64_t{1} << msb(x);
}

/// Length of the longest common prefix of the w-bit binary expansions of a
/// and b, i.e. the number of leading bits that agree. Used by the Section 4.4
/// constant-time query: MSB(pre(u) XOR pre(v)) locates the trie branching.
[[nodiscard]] constexpr int common_prefix_len(std::uint64_t a, std::uint64_t b,
                                              int w) noexcept {
  const std::uint64_t x = a ^ b;
  if (x == 0) return w;
  const int first_diff = msb(x);  // highest differing bit position
  return first_diff >= w ? 0 : w - 1 - first_diff;
}

/// Mask with the `k` lowest bits set (k in [0,64]).
[[nodiscard]] constexpr std::uint64_t low_mask(int k) noexcept {
  return k >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << k) - 1;
}

}  // namespace treelab::bits
