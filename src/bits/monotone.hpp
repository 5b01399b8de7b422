// MonotoneSeq — the encoding of Lemma 2.2.
//
// A monotone sequence 0 <= x_1 <= ... <= x_s <= M is stored in
// O(s · max(1, log(M/s))) bits as:
//   * header: s, M, and the block length b = max(1, ceil(M/s))   (Elias δ)
//   * low parts  x_i mod b, fixed width ceil(log2 b) each
//   * high parts y_i = x_i div b as the unary difference vector
//     0^{y_1} 1 0^{y_2-y_1} 1 ... (at most s + M/b + 1 bits), exactly as in
//     the paper's proof.
// Supported queries (Lemma 2.2):
//   (1) get(i): the i-th element,
//   (2) successor(x): position of the first element >= x,
//   (3) lcs_of_prefixes: longest common suffix of two specified prefixes.
// The paper obtains O(1) time when s, M = O(log n) because the whole
// encoding fits in O(1) machine words. That is also how (1) and (2) are
// answered here, straight from the high vector a word at a time: both walk
// its ones in order with std::countr_zero, get(i) up to the i-th one and
// successor(x) until an element reaches x, reading a low part only where
// the high part alone cannot decide. (3) is built on get(). In every label
// of random trees at n = 2^14 and 2^18 the high vector is at most 65 bits,
// so the walk covers one or two words.
//
// A MonotoneSeq is a view: read_from() checks an encoding where it lies
// inside a label and records where its parts start, copying nothing. It
// finds the high vector's end, its s-th one, in the same word steps: one
// popcount per word, then a select in the word that holds it.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <span>
#include <stdexcept>

#include "bits/bitio.hpp"
#include "bits/bitvec.hpp"

namespace treelab::bits {

class MonotoneSeq {
 public:
  MonotoneSeq() = default;

  /// Writes the self-delimiting encoding of `xs` (must be non-decreasing,
  /// values <= universe) into `w`. Returns the number of bits written.
  /// Throws std::invalid_argument on violations.
  static std::size_t encode_to(BitWriter& w,
                               std::span<const std::uint64_t> xs,
                               std::uint64_t universe);

  /// Parses the encoding at the reader's cursor, consuming it, and returns
  /// a view of it: the sequence reads the reader's storage in place and is
  /// valid only while that storage lives. The whole encoding is checked
  /// here (headers, lengths, every high part), so get() cannot run past
  /// it. Throws DecodeError on malformed input.
  static MonotoneSeq read_from(BitReader& r);

  [[nodiscard]] std::size_t size() const noexcept { return s_; }
  [[nodiscard]] std::uint64_t universe() const noexcept { return m_; }
  [[nodiscard]] std::size_t bit_size() const noexcept { return enc_.size(); }

  /// Operation (1): the i-th element, i in [0, size()).
  [[nodiscard]] std::uint64_t get(std::size_t i) const;

  /// The last element, get(size() - 1), in O(1): the encoding ends at the
  /// high vector's s-th one, so y_{s-1} = bit_size() - highs_off_ - s.
  /// Throws std::out_of_range on an empty sequence.
  [[nodiscard]] std::uint64_t back() const {
    if (s_ == 0) throw std::out_of_range("MonotoneSeq::back");
    return (enc_.size() - highs_off_ - s_) * b_ + low(s_ - 1);
  }

  /// Operation (2): the smallest i with get(i) >= x, or size() if none.
  [[nodiscard]] std::size_t successor(std::uint64_t x) const noexcept;

 private:
  /// The low part of element i (0 when low_width_ is 0).
  [[nodiscard]] std::uint64_t low(std::size_t i) const noexcept {
    return enc_.read_bits(lows_off_ + i * static_cast<std::size_t>(low_width_),
                          low_width_);
  }

  /// Walks the elements in order and returns the first i for which
  /// stop(i, block) is true, or size() if none; block is y_i * b, the first
  /// value of element i's block.
  template <typename Stop>
  [[nodiscard]] std::size_t walk(Stop stop) const noexcept;

  BitSpan enc_;         // the encoding, in place (this is what is counted)
  std::size_t s_ = 0;   // number of elements
  std::uint64_t m_ = 0; // universe bound M
  std::uint64_t b_ = 1; // block length
  int low_width_ = 0;   // bits per low part
  std::size_t lows_off_ = 0;   // offset of low parts within enc_
  std::size_t highs_off_ = 0;  // offset of unary high vector within enc_;
                               // it runs to the end of enc_
};

/// Operation (3), written once over any sequence with size() and get(i): a
/// MonotoneSeq, or an array decoded from one (k-distance attached labels
/// keep theirs decoded). The longest t such that
///   a[pa-t .. pa-1] == b[pb-t .. pb-1]  (element-wise).
/// pa <= a.size(), pb <= b.size().
template <typename SeqA, typename SeqB>
[[nodiscard]] std::size_t lcs_of_prefixes(const SeqA& a, std::size_t pa,
                                          const SeqB& b, std::size_t pb) {
  assert(pa <= a.size() && pb <= b.size());
  std::size_t t = 0;
  const std::size_t lim = std::min(pa, pb);
  while (t < lim && a.get(pa - 1 - t) == b.get(pb - 1 - t)) ++t;
  return t;
}

}  // namespace treelab::bits
