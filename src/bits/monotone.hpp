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
// encoding fits in O(1) machine words. That is also how (1) is answered
// here: get(i) scans the high vector a word at a time (per-word count, then
// an in-word select), and (2)/(3) are built on get(). In every label of
// random trees at n = 2^14 and 2^18 the high vector is at most 65 bits, so
// the scan is one or two words.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "bits/bitio.hpp"
#include "bits/bitvec.hpp"

namespace treelab::bits {

class MonotoneSeq {
 public:
  MonotoneSeq() = default;

  /// Encodes `xs` (must be non-decreasing, values <= universe).
  /// Throws std::invalid_argument on violations.
  static MonotoneSeq encode(std::span<const std::uint64_t> xs,
                            std::uint64_t universe);

  /// Writes the same self-delimiting encoding as encode().write_to(w)
  /// directly into `w`, without an intermediate buffer — the
  /// label-construction fast path. Returns the number of bits written.
  static std::size_t encode_to(BitWriter& w,
                               std::span<const std::uint64_t> xs,
                               std::uint64_t universe);

  /// Writes the encoding into `w` (self-delimiting).
  void write_to(BitWriter& w) const { w.append(enc_); }

  /// Attaches to an encoding produced by write_to/encode, consuming it from
  /// the reader. Throws DecodeError on malformed input.
  static MonotoneSeq read_from(BitReader& r);

  [[nodiscard]] std::size_t size() const noexcept { return s_; }
  [[nodiscard]] std::uint64_t universe() const noexcept { return m_; }
  [[nodiscard]] std::size_t bit_size() const noexcept { return enc_.size(); }
  [[nodiscard]] const BitVec& bits() const noexcept { return enc_; }

  /// Operation (1): the i-th element, i in [0, size()).
  [[nodiscard]] std::uint64_t get(std::size_t i) const;

  /// Operation (2): smallest i with get(i) >= x, or size() if none.
  [[nodiscard]] std::size_t successor(std::uint64_t x) const;

  /// Largest i with get(i) <= x, or size() (as "none") if get(0) > x.
  [[nodiscard]] std::size_t predecessor(std::uint64_t x) const;

  /// Operation (3): the longest t such that
  ///   a[pa-t .. pa-1] == b[pb-t .. pb-1]  (element-wise).
  /// pa <= a.size(), pb <= b.size().
  [[nodiscard]] static std::size_t lcs_of_prefixes(const MonotoneSeq& a,
                                                   std::size_t pa,
                                                   const MonotoneSeq& b,
                                                   std::size_t pb);

 private:
  void attach();  // decode the header of enc_ into the scalars below

  BitVec enc_;          // the canonical bit encoding (this is what is counted)
  std::size_t s_ = 0;   // number of elements
  std::uint64_t m_ = 0; // universe bound M
  std::uint64_t b_ = 1; // block length
  int low_width_ = 0;   // bits per low part
  std::size_t lows_off_ = 0;   // offset of low parts within enc_
  std::size_t highs_off_ = 0;  // offset of unary high vector within enc_;
                               // it runs to the end of enc_
};

}  // namespace treelab::bits
