#include "bits/kernels.hpp"

#include "bits/wordops.hpp"

namespace treelab::bits::kernels {

using std::size_t;
using std::uint64_t;

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

}  // namespace treelab::bits::kernels
