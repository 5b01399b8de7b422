#include "bits/monotone.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "bits/wordops.hpp"

namespace treelab::bits {

std::size_t MonotoneSeq::encode_to(BitWriter& w,
                                   std::span<const std::uint64_t> xs,
                                   std::uint64_t universe) {
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (xs[i] > universe)
      throw std::invalid_argument("MonotoneSeq: element exceeds universe");
    if (i > 0 && xs[i] < xs[i - 1])
      throw std::invalid_argument("MonotoneSeq: sequence not monotone");
  }

  const std::size_t before = w.bit_count();
  const std::size_t s = xs.size();
  const std::uint64_t b =
      s == 0 ? 1 : std::max<std::uint64_t>(1, (universe + s) / s);  // ceil(M/s), >=1

  w.put_delta0(static_cast<std::uint64_t>(s));
  w.put_delta0(universe);
  w.put_delta0(b);
  const int low_width = b > 1 ? ceil_log2(b) : 0;
  for (std::uint64_t x : xs) w.put_bits(x % b, low_width);
  std::uint64_t prev_hi = 0;
  for (std::uint64_t x : xs) {
    const std::uint64_t hi = x / b;
    w.put_unary(hi - prev_hi);
    prev_hi = hi;
  }
  return w.bit_count() - before;
}

MonotoneSeq MonotoneSeq::read_from(BitReader& r) {
  const std::size_t start = r.pos();
  MonotoneSeq out;
  const std::uint64_t s = r.get_delta0();
  out.m_ = r.get_delta0();
  out.b_ = r.get_delta0();
  if (out.b_ == 0) throw DecodeError("MonotoneSeq: zero block length");
  // Every element costs at least one high-vector bit, so this bound also
  // keeps s * low_width from wrapping.
  if (s > r.remaining()) throw DecodeError("MonotoneSeq: size exceeds input");
  out.s_ = static_cast<std::size_t>(s);
  out.low_width_ = out.b_ > 1 ? ceil_log2(out.b_) : 0;
  out.lows_off_ = r.pos() - start;
  r.skip(out.s_ * static_cast<std::size_t>(out.low_width_));
  out.highs_off_ = r.pos() - start;
  // Walk the s unary codes of the high vector: walk() relies on it holding
  // exactly s ones and ending with the last.
  std::uint64_t hi_total = 0;
  for (std::size_t i = 0; i < out.s_; ++i) hi_total += r.get_unary();
  if (hi_total > out.m_ / out.b_ + 1)
    throw DecodeError("MonotoneSeq: high parts overflow");
  out.enc_ = r.span().subspan(start, r.pos() - start);
  return out;
}

// Element i is y_i * b + low_i with low_i < b, and its high part y_i is the
// position of the i-th one in the high vector minus i. Walking the ones in
// order, one std::countr_zero each, walks the elements in order. read_from
// checked that the vector holds exactly s_ ones and ends with the last, so
// the walk stops inside enc_.
template <typename Stop>
std::size_t MonotoneSeq::walk(Stop stop) const noexcept {
  std::size_t i = 0;
  for (std::size_t base = 0; i < s_; base += 64) {
    const std::size_t pos = highs_off_ + base;
    const int take =
        static_cast<int>(std::min<std::size_t>(64, enc_.size() - pos));
    for (std::uint64_t w = enc_.read_bits(pos, take); w != 0;
         w &= w - 1, ++i) {
      const std::uint64_t block =
          (base + static_cast<std::size_t>(std::countr_zero(w)) - i) * b_;
      if (stop(i, block)) return i;
    }
  }
  return s_;
}

std::uint64_t MonotoneSeq::get(std::size_t i) const {
  if (i >= s_) throw std::out_of_range("MonotoneSeq::get");
  std::uint64_t block = 0;
  (void)walk([&](std::size_t j, std::uint64_t blk) {
    block = blk;
    return j == i;
  });
  return block + low(i);
}

std::size_t MonotoneSeq::successor(std::uint64_t x) const noexcept {
  // A low part is read only when x falls inside element i's block, the one
  // case its high part cannot decide.
  return walk([&](std::size_t i, std::uint64_t block) {
    return block >= x || (x - block < b_ && block + low(i) >= x);
  });
}

}  // namespace treelab::bits
