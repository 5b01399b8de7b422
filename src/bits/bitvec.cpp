#include "bits/bitvec.hpp"

#include <algorithm>
#include <cassert>

namespace treelab::bits {

void BitVec::append_bits(std::uint64_t value, int width) {
  assert(width >= 0 && width <= 64);
  if (width < 64) value &= low_mask(width);
  int done = 0;
  while (done < width) {
    const int off = static_cast<int>(size_ & 63);
    if (off == 0) words_.push_back(0);
    const int take = std::min(64 - off, width - done);
    words_[size_ >> 6] |= (value >> done) << off;
    size_ += static_cast<std::size_t>(take);
    done += take;
  }
}

void BitVec::append(BitSpan other) {
  std::size_t pos = 0;
  const std::size_t n = other.size();
  while (pos < n) {
    const int take = static_cast<int>(std::min<std::size_t>(64, n - pos));
    append_bits(other.read_bits(pos, take), take);
    pos += static_cast<std::size_t>(take);
  }
}

BitVec::BitVec(BitSpan s) : size_(s.size()), words_((s.size() + 63) / 64) {
  for (std::size_t i = 0; i < words_.size(); ++i) {
    const std::size_t pos = i * 64;
    words_[i] = s.read_bits(
        pos, static_cast<int>(std::min<std::size_t>(64, size_ - pos)));
  }
}

BitVec BitSpan::slice(std::size_t pos, std::size_t len) const {
  return BitVec(subspan(pos, len));
}

BitVec BitVec::slice(std::size_t pos, std::size_t len) const {
  return BitSpan(*this).slice(pos, len);
}

bool operator==(BitSpan a, BitSpan b) noexcept {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); i += 64) {
    const int take = static_cast<int>(std::min<std::size_t>(64, a.size() - i));
    if (a.read_bits(i, take) != b.read_bits(i, take)) return false;
  }
  return true;
}

}  // namespace treelab::bits
