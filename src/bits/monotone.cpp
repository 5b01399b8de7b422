#include "bits/monotone.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "bits/kernels.hpp"
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

MonotoneSeq MonotoneSeq::encode(std::span<const std::uint64_t> xs,
                                std::uint64_t universe) {
  BitWriter w;
  (void)encode_to(w, xs, universe);
  MonotoneSeq out;
  out.enc_ = w.take();
  out.attach();
  return out;
}

MonotoneSeq MonotoneSeq::read_from(BitReader& r) {
  // Decode the header to learn the total length, then slice it out.
  const std::size_t start = r.pos();
  const std::uint64_t s = r.get_delta0();
  const std::uint64_t m = r.get_delta0();
  const std::uint64_t b = r.get_delta0();
  if (b == 0) throw DecodeError("MonotoneSeq: zero block length");
  // Every element costs at least one high-vector bit, so this bound also
  // keeps s * low_width from wrapping.
  if (s > r.remaining()) throw DecodeError("MonotoneSeq: size exceeds input");
  const int low_width = b > 1 ? ceil_log2(b) : 0;
  r.skip(static_cast<std::size_t>(s) * static_cast<std::size_t>(low_width));
  // Skip s unary codes in the high vector.
  std::uint64_t hi_total = 0;
  for (std::uint64_t i = 0; i < s; ++i) hi_total += r.get_unary();
  if (hi_total > m / b + 1) throw DecodeError("MonotoneSeq: high parts overflow");
  const std::size_t end = r.pos();

  MonotoneSeq out;
  r.seek(start);
  out.enc_ = r.get_vec(end - start);
  out.attach();
  return out;
}

void MonotoneSeq::attach() {
  // enc_ is our own buffer, validated by encode()/read_from(); the header
  // re-decode skips per-read bounds checks.
  BitReader r(enc_);
  s_ = static_cast<std::size_t>(r.get_delta0_unchecked());
  m_ = r.get_delta0_unchecked();
  b_ = r.get_delta0_unchecked();
  low_width_ = b_ > 1 ? ceil_log2(b_) : 0;
  lows_off_ = r.pos();
  highs_off_ = lows_off_ + s_ * static_cast<std::size_t>(low_width_);
}

std::uint64_t MonotoneSeq::get(std::size_t i) const {
  if (i >= s_) throw std::out_of_range("MonotoneSeq::get");
  const std::uint64_t low =
      low_width_ == 0
          ? 0
          : enc_.read_bits(lows_off_ + i * static_cast<std::size_t>(low_width_),
                           low_width_);
  // y_i = (position of the i-th one in the high vector) - i. The vector
  // holds exactly s_ ones and ends with the last of them, so the word scan
  // finds the i-th one before it reaches the end of enc_.
  const kernels::Ops& k = kernels::ops();
  std::size_t pos = highs_off_;
  std::size_t rem = i;
  for (;;) {
    const int take =
        static_cast<int>(std::min<std::size_t>(64, enc_.size() - pos));
    const std::uint64_t w = enc_.read_bits(pos, take);
    const auto ones = static_cast<std::size_t>(k.popcount(w));
    if (rem < ones) {
      const std::size_t one =
          pos - highs_off_ +
          static_cast<std::size_t>(k.select_in_word(w, static_cast<int>(rem)));
      return (one - i) * b_ + low;
    }
    rem -= ones;
    pos += 64;
  }
}

std::size_t MonotoneSeq::successor(std::uint64_t x) const {
  // Binary search over positions; get() is O(1), so this is O(log s). When
  // s = O(log n) the paper replaces this with a Patrascu–Thorup predecessor
  // structure; the asymptotic label size is unchanged.
  std::size_t lo = 0, hi = s_;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (get(mid) >= x)
      hi = mid;
    else
      lo = mid + 1;
  }
  return lo;
}

std::size_t MonotoneSeq::predecessor(std::uint64_t x) const {
  const std::size_t succ_gt = [&] {
    std::size_t lo = 0, hi = s_;
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (get(mid) > x)
        hi = mid;
      else
        lo = mid + 1;
    }
    return lo;
  }();
  return succ_gt == 0 ? s_ : succ_gt - 1;
}

std::size_t MonotoneSeq::lcs_of_prefixes(const MonotoneSeq& a, std::size_t pa,
                                         const MonotoneSeq& b,
                                         std::size_t pb) {
  assert(pa <= a.size() && pb <= b.size());
  std::size_t t = 0;
  const std::size_t lim = std::min(pa, pb);
  while (t < lim && a.get(pa - 1 - t) == b.get(pb - 1 - t)) ++t;
  return t;
}

}  // namespace treelab::bits
