// BitWriter / BitReader: streaming construction and decoding of labels.
//
// Every labeling scheme encodes its label as a sequence of self-delimiting
// fields (Elias codes, unary runs, fixed-width words); these two classes are
// the only way label bits are produced and consumed, which keeps encode and
// decode symmetric by construction.
//
// BitReader decodes in word operations, as the paper's word-RAM bound
// assumes: get_unary, get_gamma and get_delta are inline, and each takes
// one 64-bit peek at the cursor and one std::countr_zero. The peek reads
// the view's bits only: bits past its end read as zero, and it never loads
// a word past the one holding the view's last bit. A field too long for
// one peek (a unary run of 64 zeros or more, a gamma code of x >= 2^32, a
// delta code over 64 bits) or cut off by the view's end takes the
// out-of-line path, which scans with kernels::find_first_one and throws
// every DecodeError.
#pragma once

#include <bit>
#include <cstdint>
#include <stdexcept>

#include "bits/bitvec.hpp"

namespace treelab::bits {

class BitWriter {
 public:
  BitWriter() = default;

  void put_bit(bool b) { out_.push_back(b); }

  /// Append the `width` lowest bits of `value`, LSB first.
  void put_bits(std::uint64_t value, int width) { out_.append_bits(value, width); }

  /// Unary code for x >= 0: x zeros followed by a one.
  void put_unary(std::uint64_t x) {
    for (std::uint64_t i = 0; i < x; ++i) out_.push_back(false);
    out_.push_back(true);
  }

  /// Elias gamma code for x >= 1: unary(len-1) then the low len-1 bits of x.
  void put_gamma(std::uint64_t x);

  /// Elias gamma shifted to accept x >= 0 (encodes x+1).
  void put_gamma0(std::uint64_t x) { put_gamma(x + 1); }

  /// Elias delta code for x >= 1: gamma(len) then the low len-1 bits of x.
  void put_delta(std::uint64_t x);

  /// Elias delta shifted to accept x >= 0 (encodes x+1).
  void put_delta0(std::uint64_t x) { put_delta(x + 1); }

  void append(BitSpan v) { out_.append(v); }

  /// Pad with zero bits to the next 64-bit boundary. LabelArena uses this
  /// between labels so every label starts word-aligned.
  void align_to_word() {
    const int pad = static_cast<int>((64 - (out_.size() & 63)) & 63);
    if (pad != 0) out_.append_bits(0, pad);
  }

  [[nodiscard]] std::size_t bit_count() const noexcept { return out_.size(); }

  /// Finish and take the encoded bits.
  [[nodiscard]] BitVec take() { return std::move(out_); }

  [[nodiscard]] const BitVec& bits() const noexcept { return out_; }

 private:
  BitVec out_;
};

/// Thrown when a label does not decode (truncated / corrupt input). Queries
/// must fail loudly on malformed labels rather than reading out of bounds.
class DecodeError : public std::runtime_error {
 public:
  explicit DecodeError(const char* what) : std::runtime_error(what) {}
};

class BitReader {
 public:
  /// Reads from `v` (a BitVec, a LabelArena view or a sub-view of either);
  /// the underlying storage must outlive the reader and every view it
  /// hands out.
  explicit BitReader(BitSpan v) noexcept
      : words_(v.data()),
        begin_(v.offset()),
        pos_(begin_),
        end_(begin_ + v.size()) {}

  [[nodiscard]] std::size_t pos() const noexcept { return pos_ - begin_; }
  [[nodiscard]] std::size_t remaining() const noexcept { return end_ - pos_; }

  /// Advance the cursor by `n` bits (a decoded length: any value, however
  /// large, either fits the rest of the input or throws).
  void skip(std::size_t n) {
    require(n);
    pos_ += n;
  }

  [[nodiscard]] bool get_bit() {
    require(1);
    const std::size_t b = pos_++;
    return (words_[b >> 6] >> (b & 63)) & 1u;
  }

  [[nodiscard]] std::uint64_t get_bits(int width) {
    require(static_cast<std::size_t>(width));
    const std::uint64_t x = read_word_bits(words_, pos_, width);
    pos_ += static_cast<std::size_t>(width);
    return x;
  }

  /// Unary code: the zeros before the next one. A run that ends inside
  /// the peek costs one std::countr_zero.
  [[nodiscard]] std::uint64_t get_unary() {
    const std::uint64_t w = peek();
    if (w == 0) return get_unary_slow();
    const int z = std::countr_zero(w);
    pos_ += static_cast<std::size_t>(z) + 1;
    return static_cast<std::uint64_t>(z);
  }

  /// Elias gamma: unary(len - 1), then the low len - 1 bits. One peek
  /// holds the 2 len - 1 bits of any x < 2^32.
  [[nodiscard]] std::uint64_t get_gamma() {
    const std::uint64_t w = peek();
    const int z = std::countr_zero(w);  // len - 1; 64 when w == 0
    const std::size_t n = 2 * static_cast<std::size_t>(z) + 1;
    if (z >= 32 || n > remaining()) return get_gamma_slow();
    pos_ += n;
    return (std::uint64_t{1} << z) | ((w >> (z + 1)) & low_mask(z));
  }
  [[nodiscard]] std::uint64_t get_gamma0() { return get_gamma() - 1; }

  /// Elias delta: gamma(len), then the low len - 1 bits, from one peek
  /// when the whole code fits in it.
  [[nodiscard]] std::uint64_t get_delta() {
    const std::uint64_t w = peek();
    const int z = std::countr_zero(w);
    if (z < 6) {  // len < 64
      const int g = 2 * z + 1;  // bits of gamma(len)
      const int len = static_cast<int>((std::uint64_t{1} << z) |
                                       ((w >> (z + 1)) & low_mask(z)));
      const auto n = static_cast<std::size_t>(g + len - 1);
      if (n <= 64 && n <= remaining()) {
        pos_ += n;
        return (std::uint64_t{1} << (len - 1)) | ((w >> g) & low_mask(len - 1));
      }
    }
    return get_delta_slow();
  }
  [[nodiscard]] std::uint64_t get_delta0() { return get_delta() - 1; }

  /// The next `len` bits as a view of the same storage, and advance: a
  /// decoder reads a nested field (an NCA label inside a distance label)
  /// in place. Copy it into a BitVec only where something must own it.
  [[nodiscard]] BitSpan get_span(std::size_t len) {
    require(len);
    const BitSpan out = BitSpan(words_, end_).subspan(pos_, len);
    pos_ += len;
    return out;
  }

  /// Everything this reader reads from (MonotoneSeq::read_from views the
  /// bits it has just walked).
  [[nodiscard]] BitSpan span() const noexcept {
    return BitSpan(words_, end_).subspan(begin_, end_ - begin_);
  }

 private:
  // Compared against what is left, not as pos_ + n: a decoded length near
  // 2^64 would wrap the sum.
  void require(std::size_t n) const {
    if (n > end_ - pos_) throw DecodeError("BitReader: truncated input");
  }

  /// The 64 bits at the cursor, LSB first; bits past the view's end read
  /// as zero. Loads the cursor's word, and the next one only when the view
  /// reaches into it.
  [[nodiscard]] std::uint64_t peek() const noexcept {
    const std::size_t rest = end_ - pos_;
    if (rest == 0) return 0;
    const unsigned off = pos_ & 63;
    const std::uint64_t* w = words_ + (pos_ >> 6);
    std::uint64_t x = w[0] >> off;
    if (off != 0 && rest > 64 - off) x |= w[1] << (64 - off);
    return rest < 64 ? x & low_mask(static_cast<int>(rest)) : x;
  }

  // The out-of-line paths: a field the peek cannot hold, or one the view
  // cuts off (which throws).
  [[nodiscard]] std::uint64_t get_unary_slow();
  [[nodiscard]] std::uint64_t get_gamma_slow();
  [[nodiscard]] std::uint64_t get_delta_slow();

  // Positions count bits from bit 0 of words_[0], so a view's bit offset
  // costs nothing per read.
  const std::uint64_t* words_ = nullptr;
  std::size_t begin_ = 0;  // the view's first bit, < 64
  std::size_t pos_ = 0;    // the cursor
  std::size_t end_ = 0;    // one past the view's last bit
};

}  // namespace treelab::bits
