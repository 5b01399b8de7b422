// BitWriter / BitReader: streaming construction and decoding of labels.
//
// Every labeling scheme encodes its label as a sequence of self-delimiting
// fields (Elias codes, unary runs, fixed-width words); these two classes are
// the only way label bits are produced and consumed, which keeps encode and
// decode symmetric by construction.
#pragma once

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

  /// Word-wise unary decode: kernels::find_first_one scans for the
  /// terminating one 64 bits at a time with a ctz.
  [[nodiscard]] std::uint64_t get_unary();
  [[nodiscard]] std::uint64_t get_gamma();
  [[nodiscard]] std::uint64_t get_gamma0() { return get_gamma() - 1; }
  [[nodiscard]] std::uint64_t get_delta();
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

  static constexpr std::size_t kNoPos = ~std::size_t{0};

  /// Position (in words_) of the next set bit at or after the cursor, or
  /// kNoPos if the rest of the view is all zeros.
  [[nodiscard]] std::size_t find_one() const noexcept;

  // Positions count bits from bit 0 of words_[0], so a view's bit offset
  // costs nothing per read.
  const std::uint64_t* words_ = nullptr;
  std::size_t begin_ = 0;  // the view's first bit, < 64
  std::size_t pos_ = 0;    // the cursor
  std::size_t end_ = 0;    // one past the view's last bit
};

}  // namespace treelab::bits
