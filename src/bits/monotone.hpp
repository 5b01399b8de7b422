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
//   (2) successor(seq, x): position of the first element >= x,
//   (3) lcs_of_prefixes: longest common suffix of two specified prefixes.
// The paper obtains O(1) time when s, M = O(log n) because the whole
// encoding fits in O(1) machine words. That is also how (1) is answered
// here: get(i) scans the high vector a word at a time (per-word count, then
// an in-word select), and (2)/(3) are built on get(). In every label of
// random trees at n = 2^14 and 2^18 the high vector is at most 65 bits, so
// the scan is one or two words.
//
// A MonotoneSeq is a view: read_from() checks an encoding where it lies
// inside a label and records where its parts start, copying nothing.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <span>

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

 private:
  BitSpan enc_;         // the encoding, in place (this is what is counted)
  std::size_t s_ = 0;   // number of elements
  std::uint64_t m_ = 0; // universe bound M
  std::uint64_t b_ = 1; // block length
  int low_width_ = 0;   // bits per low part
  std::size_t lows_off_ = 0;   // offset of low parts within enc_
  std::size_t highs_off_ = 0;  // offset of unary high vector within enc_;
                               // it runs to the end of enc_
};

/// Operations (2) and (3) are written once, over any non-decreasing
/// sequence with size() and get(i): a MonotoneSeq, or an array decoded from
/// one (k-distance attached labels keep theirs decoded).
///
/// Operation (2): smallest i with seq.get(i) >= x, or seq.size() if none.
/// Binary search over positions; get() is O(1), so this is O(log s). When
/// s = O(log n) the paper replaces this with a Patrascu-Thorup predecessor
/// structure; the asymptotic label size is unchanged.
template <typename Seq>
[[nodiscard]] std::size_t successor(const Seq& seq, std::uint64_t x) {
  std::size_t lo = 0, hi = seq.size();
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (seq.get(mid) >= x)
      hi = mid;
    else
      lo = mid + 1;
  }
  return lo;
}

/// Operation (3): the longest t such that
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
