#include "bits/bitio.hpp"

#include <algorithm>
#include <cassert>

#include "bits/kernels.hpp"
#include "bits/wordops.hpp"

namespace treelab::bits {

void BitWriter::put_gamma(std::uint64_t x) {
  assert(x >= 1);
  const int len = bitwidth(x);  // >= 1
  put_unary(static_cast<std::uint64_t>(len - 1));
  if (len > 1) put_bits(x & low_mask(len - 1), len - 1);
}

void BitWriter::put_delta(std::uint64_t x) {
  assert(x >= 1);
  const int len = bitwidth(x);
  put_gamma(static_cast<std::uint64_t>(len));
  if (len > 1) put_bits(x & low_mask(len - 1), len - 1);
}

std::uint64_t BitReader::get_unary() {
  const std::size_t one = find_one();
  if (one == kNoPos) throw DecodeError("BitReader: truncated input");
  const std::uint64_t x = one - pos_;
  pos_ = one + 1;
  return x;
}

std::size_t BitReader::find_one() const noexcept {
  // The kernel ignores bits past end_, so a one stored just after a
  // sub-view cannot pass for a terminator.
  static_assert(kNoPos == kernels::kNpos);
  return kernels::find_first_one(words_, end_, pos_);
}

std::uint64_t BitReader::get_gamma() {
  const std::uint64_t lm1 = get_unary();
  if (lm1 >= 64) throw DecodeError("gamma code too long");
  const int len = static_cast<int>(lm1) + 1;
  std::uint64_t x = std::uint64_t{1} << (len - 1);
  if (len > 1) x |= get_bits(len - 1);
  return x;
}

std::uint64_t BitReader::get_delta() {
  const std::uint64_t len64 = get_gamma();
  if (len64 == 0 || len64 > 64) throw DecodeError("delta code length invalid");
  const int len = static_cast<int>(len64);
  std::uint64_t x = std::uint64_t{1} << (len - 1);
  if (len > 1) x |= get_bits(len - 1);
  return x;
}

}  // namespace treelab::bits
