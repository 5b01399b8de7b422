// LabelArena — pooled label storage: one contiguous word buffer plus a
// per-label (offset, length) directory, replacing n individually allocated
// BitVecs. Every label starts on a 64-bit boundary (padded with zero bits),
// so label i is served as a BitSpan that behaves exactly like a standalone
// BitVec for every read operation, and bulk I/O (LabelStore) can stream a
// label's bytes straight out of the word buffer.
//
// build() is the one way labels get in: it runs an emitter over [0, n) on a
// deterministic chunked schedule and concatenates the per-chunk buffers in
// chunk order. Because each label is emitted independently and padded to a
// word boundary, the arena contents are bit-identical for every thread
// count — the property the serial-vs-parallel parity tests assert.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "bits/bitio.hpp"
#include "bits/bitvec.hpp"
#include "util/parallel.hpp"

namespace treelab::bits {

class LabelArena {
 public:
  LabelArena() = default;

  /// Number of labels.
  [[nodiscard]] std::size_t size() const noexcept { return len_.size(); }
  [[nodiscard]] bool empty() const noexcept { return len_.empty(); }

  /// Label i as a word-aligned view. Valid while the arena lives.
  [[nodiscard]] BitSpan view(std::size_t i) const noexcept {
    return {words_.data() + start_word_[i], len_[i]};
  }
  [[nodiscard]] BitSpan operator[](std::size_t i) const noexcept {
    return view(i);
  }

  /// Exact bit length of label i (padding not included).
  [[nodiscard]] std::size_t label_bits(std::size_t i) const noexcept {
    return len_[i];
  }

  /// Sum of exact label lengths (padding not included).
  [[nodiscard]] std::size_t total_label_bits() const noexcept;

  /// The word storage of label i (for bulk serialization).
  [[nodiscard]] const std::uint64_t* label_words(std::size_t i) const noexcept {
    return words_.data() + start_word_[i];
  }

  /// The whole word buffer: every label in index order, each starting on a
  /// word boundary — LabelStore's container payload layout.
  [[nodiscard]] std::span<const std::uint64_t> words() const noexcept {
    return words_;
  }

  /// Builds an arena of `n` labels by running `emit(i, writer)` for every
  /// i in [0, n), on up to `threads` threads (0 = TREELAB_THREADS / hardware
  /// default; the result is bit-identical for every thread count). Each
  /// worker chunk operates on its own *copy* of `emit`, so the emitter may
  /// keep mutable scratch state. With threads == 1 the indices are emitted
  /// strictly in order 0, 1, ..., n-1 (LabelStore's stream loader relies on
  /// this).
  template <typename Emit>
  [[nodiscard]] static LabelArena build(std::size_t n, int threads,
                                        const Emit& emit) {
    threads = util::resolve_threads(threads);
    const auto chunks = static_cast<std::size_t>(threads);

    struct Chunk {
      BitVec bits;
      std::vector<std::size_t> lens;
    };
    std::vector<Chunk> parts(std::min(chunks, std::max<std::size_t>(n, 1)));

    util::parallel_for_chunks(
        n, parts.size(), threads,
        [&](std::size_t c, std::size_t begin, std::size_t end) {
          Emit local(emit);
          BitWriter w;
          Chunk& ch = parts[c];
          ch.lens.reserve(end - begin);
          for (std::size_t i = begin; i < end; ++i) {
            const std::size_t before = w.bit_count();
            local(i, w);
            ch.lens.push_back(w.bit_count() - before);
            w.align_to_word();
          }
          ch.bits = w.take();
        });

    LabelArena out;
    out.len_.reserve(n);
    out.start_word_.reserve(n + 1);
    std::size_t word = 0;
    for (const Chunk& ch : parts)
      for (const std::size_t len : ch.lens) {
        out.start_word_.push_back(word);
        out.len_.push_back(len);
        word += (len + 63) / 64;
      }
    out.start_word_.push_back(word);
    out.words_.resize(word);
    std::size_t base = 0;
    for (const Chunk& ch : parts) {
      const std::size_t nw = ch.bits.words().size();
      if (nw != 0)
        std::memcpy(out.words_.data() + base, ch.bits.words().data(),
                    nw * sizeof(std::uint64_t));
      base += nw;
    }
    return out;
  }

  /// Builds an arena of `n` labels by splicing `old`: label i with
  /// dirty[i] == 0 keeps its exact bits from `old` (copied as whole-word
  /// runs — clean stretches move at memcpy speed), label i with
  /// dirty[i] != 0 is re-emitted via `emit(i, writer)`. Labels at index >=
  /// old.size() must be dirty (`n` may exceed old.size(): appends). Because
  /// every label is word-aligned and independently emitted, the result is
  /// bit-identical to build(n, ..., emit_all) whenever the clean labels'
  /// bits are unchanged — the contract IncrementalRelabeler's parity tests
  /// assert. Dirty emission is serial, in index order.
  template <typename Emit>
  [[nodiscard]] static LabelArena patched(const LabelArena& old, std::size_t n,
                                          const std::vector<std::uint8_t>& dirty,
                                          const Emit& emit) {
    BitWriter w;
    std::vector<std::size_t> fresh_len;
    for (std::size_t i = 0; i < n; ++i) {
      if (!dirty[i]) continue;
      const std::size_t before = w.bit_count();
      emit(i, w);
      fresh_len.push_back(w.bit_count() - before);
      w.align_to_word();
    }
    const BitVec fresh = w.take();

    LabelArena out;
    out.len_.reserve(n);
    out.start_word_.reserve(n + 1);
    std::size_t word = 0, df = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t len = dirty[i] ? fresh_len[df++] : old.len_[i];
      out.start_word_.push_back(word);
      out.len_.push_back(len);
      word += (len + 63) / 64;
    }
    out.start_word_.push_back(word);
    out.words_.resize(word);

    std::size_t fresh_word = 0;
    for (std::size_t i = 0; i < n;) {
      if (dirty[i]) {
        const std::size_t nw = (out.len_[i] + 63) / 64;
        if (nw != 0)
          std::memcpy(out.words_.data() + out.start_word_[i],
                      fresh.words().data() + fresh_word,
                      nw * sizeof(std::uint64_t));
        fresh_word += nw;
        ++i;
        continue;
      }
      std::size_t j = i;  // maximal clean run [i, j): contiguous in both
      while (j < n && !dirty[j]) ++j;
      const std::size_t nw = old.start_word_[j] - old.start_word_[i];
      if (nw != 0)
        std::memcpy(out.words_.data() + out.start_word_[i],
                    old.words_.data() + old.start_word_[i],
                    nw * sizeof(std::uint64_t));
      i = j;
    }
    return out;
  }

  /// A borrowed label: `bits` bits in `ceil(bits/64)` words whose bit 0 is
  /// the label's first bit (any word-aligned label — an arena view, a
  /// MappedArena view, a standalone BitVec). The source type of composed().
  struct LabelRef {
    const std::uint64_t* words = nullptr;
    std::size_t bits = 0;
  };

  /// Builds an arena of `n` labels by *copying*: `src(i)` names where label
  /// i's words live (LabelRef). Every label is word-aligned on both sides,
  /// so this is one directory pass plus per-label memcpys — the delta
  /// application / compaction primitive (LabelStore::apply_delta splices a
  /// base arena and a delta payload through it, IncrementalRelabeler's
  /// compact() drops tombstoned slots with it).
  template <typename Src>
  [[nodiscard]] static LabelArena composed(std::size_t n, const Src& src) {
    LabelArena out;
    out.len_.reserve(n);
    out.start_word_.reserve(n + 1);
    std::size_t word = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t bits = src(i).bits;
      out.start_word_.push_back(word);
      out.len_.push_back(bits);
      word += (bits + 63) / 64;
    }
    out.start_word_.push_back(word);
    out.words_.resize(word);
    for (std::size_t i = 0; i < n; ++i) {
      const LabelRef r = src(i);
      const std::size_t nw = (r.bits + 63) / 64;
      if (nw != 0)
        std::memcpy(out.words_.data() + out.start_word_[i], r.words,
                    nw * sizeof(std::uint64_t));
    }
    return out;
  }

  /// An arena holding old's labels at `ids`, in order: out[i] = old[ids[i]].
  /// Order-preserving id compaction is gathered(old, live_ids).
  [[nodiscard]] static LabelArena gathered(const LabelArena& old,
                                           const std::vector<std::size_t>& ids) {
    return composed(ids.size(), [&](std::size_t i) {
      return LabelRef{old.label_words(ids[i]), old.len_[ids[i]]};
    });
  }

 private:
  std::vector<std::uint64_t> words_;
  std::vector<std::size_t> start_word_;  // size() + 1 entries
  std::vector<std::size_t> len_;         // exact bit lengths
};

}  // namespace treelab::bits
