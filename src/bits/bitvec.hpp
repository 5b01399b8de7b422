// BitVec: a growable, packed bit string. Labels produced by every scheme in
// treelab are BitVecs or views into a pooled LabelArena; all size accounting
// in the benches is in bits.
//
// BitSpan is the non-owning read-only counterpart: a window of bits, at any
// bit offset, over someone else's storage (a BitVec, one label inside a
// LabelArena, or a field inside such a label). Queries and attach() take
// BitSpan so that label storage can be pooled without copying, and decoders
// read the fields of a label through sub-views of it (subspan()) rather
// than copies. A BitVec converts to a BitSpan implicitly (a view) and a
// BitSpan converts to a BitVec implicitly (a copy).
#pragma once

#include <cassert>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bits/wordops.hpp"

namespace treelab::bits {

class BitVec;

/// `width` (<= 64) bits of `words` starting at absolute bit `pos`,
/// LSB-first. Reads the word after pos's only when the field crosses into
/// it.
[[nodiscard]] inline std::uint64_t read_word_bits(const std::uint64_t* words,
                                                  std::size_t pos,
                                                  int width) noexcept {
  assert(width >= 0 && width <= 64);
  if (width == 0) return 0;
  const std::size_t w = pos >> 6;
  const int off = static_cast<int>(pos & 63);
  std::uint64_t out = words[w] >> off;
  const int have = 64 - off;
  if (have < width) out |= words[w + 1] << have;
  if (width < 64) out &= low_mask(width);
  return out;
}

/// A read-only view of `size` bits starting at any bit of a word array.
/// The underlying words must outlive the span. A view reads only its own
/// bits: a sub-view of a label is followed by more label bits, not by zero
/// padding, so nothing here may rely on what lies past the end.
class BitSpan {
 public:
  constexpr BitSpan() = default;
  // NOLINTNEXTLINE(google-explicit-constructor): implicit view of a BitVec
  BitSpan(const BitVec& v) noexcept;
  /// The first `nbits` bits of `words`, starting at bit 0 of words[0].
  constexpr BitSpan(const std::uint64_t* words, std::size_t nbits) noexcept
      : words_(words), size_(nbits) {}

  [[nodiscard]] constexpr std::size_t size() const noexcept { return size_; }
  [[nodiscard]] constexpr bool empty() const noexcept { return size_ == 0; }
  /// The word holding the view's first bit, at bit offset() within it.
  [[nodiscard]] constexpr const std::uint64_t* data() const noexcept {
    return words_;
  }
  [[nodiscard]] constexpr std::size_t offset() const noexcept { return off_; }

  /// Bit at position i. Precondition: i < size().
  [[nodiscard]] bool get(std::size_t i) const noexcept {
    assert(i < size_);
    const std::size_t b = off_ + i;
    return (words_[b >> 6] >> (b & 63)) & 1u;
  }

  /// Bounds-checked bit access; throws std::out_of_range.
  [[nodiscard]] bool at(std::size_t i) const {
    if (i >= size_) throw std::out_of_range("BitSpan::at: index out of range");
    return get(i);
  }

  /// Read `width` (<= 64) bits starting at `pos`, LSB-first. Precondition:
  /// pos + width <= size().
  [[nodiscard]] std::uint64_t read_bits(std::size_t pos, int width) const {
    assert(pos <= size_ && static_cast<std::size_t>(width) <= size_ - pos);
    return read_word_bits(words_, off_ + pos, width);
  }

  /// The bits [pos, pos+len) as a view of the same storage: no copy.
  /// Precondition: pos + len <= size().
  [[nodiscard]] BitSpan subspan(std::size_t pos, std::size_t len) const {
    assert(pos <= size_ && len <= size_ - pos);
    const std::size_t b = off_ + pos;
    return BitSpan(words_ + (b >> 6), b & 63, len);
  }

  /// The contiguous sub-vector [pos, pos+len) as an owning copy.
  [[nodiscard]] BitVec slice(std::size_t pos, std::size_t len) const;

  /// "0101..." debug rendering (first bit leftmost).
  [[nodiscard]] std::string to_string() const {
    std::string s;
    s.reserve(size_);
    for (std::size_t i = 0; i < size_; ++i) s.push_back(get(i) ? '1' : '0');
    return s;
  }

 private:
  constexpr BitSpan(const std::uint64_t* words, std::size_t off,
                    std::size_t nbits) noexcept
      : words_(words), off_(off), size_(nbits) {}

  const std::uint64_t* words_ = nullptr;
  std::size_t off_ = 0;  // bit offset of the first bit within words_[0], < 64
  std::size_t size_ = 0;
};

class BitVec {
 public:
  BitVec() = default;

  /// A bit vector of `n` zero bits.
  explicit BitVec(std::size_t n) : size_(n), words_((n + 63) / 64, 0) {}

  /// An owning copy of a view. Bits of the last word past the view's end
  /// are zero, whatever followed the view in its storage.
  // NOLINTNEXTLINE(google-explicit-constructor): implicit, symmetric with
  // the BitVec -> BitSpan view conversion above
  BitVec(BitSpan s);

  BitVec(const BitVec&) = default;
  BitVec& operator=(const BitVec&) = default;
  // Moves leave the source empty (a defaulted move would strand size_ != 0
  // over a gutted word array); attach()-style sinks rely on this to take
  // label storage without deep-copying it.
  BitVec(BitVec&& other) noexcept
      : size_(std::exchange(other.size_, 0)), words_(std::move(other.words_)) {
    other.words_.clear();
  }
  BitVec& operator=(BitVec&& other) noexcept {
    if (this != &other) {  // self-move (e.g. std::swap(x, x)) must be a no-op
      size_ = std::exchange(other.size_, 0);
      words_ = std::move(other.words_);
      other.words_.clear();
    }
    return *this;
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  /// Bit at position i (0 = first appended). Precondition: i < size().
  [[nodiscard]] bool get(std::size_t i) const noexcept {
    return (words_[i >> 6] >> (i & 63)) & 1u;
  }

  /// Bounds-checked bit access; throws std::out_of_range.
  [[nodiscard]] bool at(std::size_t i) const {
    if (i >= size_) throw std::out_of_range("BitVec::at: index out of range");
    return get(i);
  }

  void set(std::size_t i, bool v) noexcept {
    const std::uint64_t m = std::uint64_t{1} << (i & 63);
    if (v)
      words_[i >> 6] |= m;
    else
      words_[i >> 6] &= ~m;
  }

  void push_back(bool v) {
    if ((size_ & 63) == 0) words_.push_back(0);
    if (v) words_[size_ >> 6] |= std::uint64_t{1} << (size_ & 63);
    ++size_;
  }

  /// Append the `width` lowest bits of `value`, least significant bit first.
  /// width in [0, 64].
  void append_bits(std::uint64_t value, int width);

  /// Append all bits of another bit string.
  void append(BitSpan other);

  /// Read `width` (<= 64) bits starting at position `pos`, LSB-first, i.e.
  /// the inverse of append_bits. Precondition: pos + width <= size().
  [[nodiscard]] std::uint64_t read_bits(std::size_t pos, int width) const {
    return BitSpan(*this).read_bits(pos, width);
  }

  /// The contiguous sub-vector [pos, pos+len).
  [[nodiscard]] BitVec slice(std::size_t pos, std::size_t len) const;

  [[nodiscard]] std::span<const std::uint64_t> words() const noexcept {
    return words_;
  }

  /// "0101..." debug rendering (first bit leftmost).
  [[nodiscard]] std::string to_string() const {
    return BitSpan(*this).to_string();
  }

 private:
  std::size_t size_ = 0;
  std::vector<std::uint64_t> words_;
};

inline BitSpan::BitSpan(const BitVec& v) noexcept
    : words_(v.words().data()), size_(v.size()) {}

/// Bit-wise equality. Defined over BitSpan so that any mix of BitVec and
/// BitSpan operands compares (both convert).
[[nodiscard]] bool operator==(BitSpan a, BitSpan b) noexcept;

}  // namespace treelab::bits
