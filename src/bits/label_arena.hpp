// LabelArena — the one container of a labeling: a per-label (offset,
// length) directory over one contiguous word buffer, in place of n
// individually allocated BitVecs. Every label starts on a 64-bit boundary
// (padded with zero bits), so label i is served as a BitSpan that behaves
// exactly like a standalone BitVec for every read operation, and bulk I/O
// (LabelStore) can stream a label's bytes straight out of the word buffer.
//
// The word buffer is immutable once an arena is made, and either owned
// (every factory: build, patched, composed, gathered) or a read-only mmap
// of a LabelStore version-2 file (map(), whose container payload is this
// layout verbatim). Copies share the buffer — a copy costs the directory,
// never the words — and the buffer lives while any arena holding it does,
// so a view stays valid while the arena it came from (or a copy) lives.
//
// build() is the one way new labels get in: it runs an emitter over [0, n)
// on a deterministic chunked schedule and concatenates the per-chunk
// buffers in chunk order. Because each label is emitted independently and
// padded to a word boundary, the arena contents are bit-identical for
// every thread count — the property the serial-vs-parallel parity tests
// assert.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
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

  /// True when the words are an mmap'ed file rather than owned memory.
  [[nodiscard]] bool mapped() const noexcept { return mapped_; }

  /// Label i as a word-aligned view. Valid while the arena (or a copy)
  /// lives.
  [[nodiscard]] BitSpan view(std::size_t i) const noexcept {
    return {words_.get() + start_word_[i], len_[i]};
  }
  [[nodiscard]] BitSpan operator[](std::size_t i) const noexcept {
    return view(i);
  }

  /// Exact bit length of label i (padding not included).
  [[nodiscard]] std::size_t label_bits(std::size_t i) const noexcept {
    return len_[i];
  }

  // The two prefetch helpers are always_inline: gcc 12 infers a
  // prefetch-only function pure and deletes calls to it as dead.

  /// Starts loading label i's directory entry (its start word and length).
  [[gnu::always_inline]] void prefetch_directory(
      std::size_t i) const noexcept {
    __builtin_prefetch(&start_word_[i]);
    __builtin_prefetch(&len_[i]);
  }

  /// Starts loading label i's first word. Reads the directory, so
  /// prefetch_directory() it earlier.
  [[gnu::always_inline]] void prefetch_label(std::size_t i) const noexcept {
    __builtin_prefetch(words_.get() + start_word_[i]);
  }

  /// Sum of exact label lengths (padding not included).
  [[nodiscard]] std::size_t total_label_bits() const noexcept;

  /// The word storage of label i (for bulk serialization).
  [[nodiscard]] const std::uint64_t* label_words(std::size_t i) const noexcept {
    return words_.get() + start_word_[i];
  }

  /// The whole word buffer: every label in index order, each starting on a
  /// word boundary — LabelStore's container payload layout.
  [[nodiscard]] std::span<const std::uint64_t> words() const noexcept {
    return {words_.get(), start_word_.empty() ? 0 : start_word_.back()};
  }

  /// Maps `path` read-only and serves labels from the word buffer that
  /// starts `words_offset` bytes into the file (8-byte aligned; label i
  /// occupies ceil(lens[i]/64) little-endian words, zero-padded past its
  /// last bit). Returns nullopt when zero-copy is impossible — the
  /// mapped_arena.map failpoint, a big-endian host, a misaligned offset, a
  /// file too small for the directory, a failing mmap, or directory
  /// allocation failure — so the caller can fall back to streamed loading
  /// (and report *its* errors, which see the same truncation). The mapping outlives the file's
  /// directory entry: it is released with the last arena sharing it.
  [[nodiscard]] static std::optional<LabelArena> map(
      const char* path, std::size_t words_offset,
      std::vector<std::size_t> lens);

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

    std::vector<std::size_t> lens;
    lens.reserve(n);
    for (const Chunk& ch : parts)
      lens.insert(lens.end(), ch.lens.begin(), ch.lens.end());
    LabelArena out;
    std::uint64_t* const words = out.lay_out(std::move(lens));
    std::size_t base = 0;
    for (const Chunk& ch : parts) {
      const std::size_t nw = ch.bits.words().size();
      if (nw != 0)
        std::memcpy(words + base, ch.bits.words().data(),
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

    std::vector<std::size_t> lens(n);
    for (std::size_t i = 0, df = 0; i < n; ++i)
      lens[i] = dirty[i] ? fresh_len[df++] : old.len_[i];
    LabelArena out;
    std::uint64_t* const words = out.lay_out(std::move(lens));

    std::size_t fresh_word = 0;
    for (std::size_t i = 0; i < n;) {
      if (dirty[i]) {
        const std::size_t nw = (out.len_[i] + 63) / 64;
        if (nw != 0)
          std::memcpy(words + out.start_word_[i],
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
        std::memcpy(words + out.start_word_[i], old.label_words(i),
                    nw * sizeof(std::uint64_t));
      i = j;
    }
    return out;
  }

  /// A borrowed label: `bits` bits in `ceil(bits/64)` words whose bit 0 is
  /// the label's first bit (any word-aligned label — an arena view, owned
  /// or mapped, or a standalone BitVec). The source type of composed().
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
    std::vector<std::size_t> lens(n);
    for (std::size_t i = 0; i < n; ++i) lens[i] = src(i).bits;
    LabelArena out;
    std::uint64_t* const words = out.lay_out(std::move(lens));
    for (std::size_t i = 0; i < n; ++i) {
      const LabelRef r = src(i);
      const std::size_t nw = (r.bits + 63) / 64;
      if (nw != 0)
        std::memcpy(words + out.start_word_[i], r.words,
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
  /// Takes `lens` as the directory; returns the words it spans, or nullopt
  /// when that count would wrap a size_t (only an adversarial directory
  /// can: see map()).
  std::optional<std::size_t> set_directory(std::vector<std::size_t> lens);
  /// set_directory() plus a fresh owned buffer of that many zeroed words,
  /// returned for the factory to fill before the arena is handed out.
  std::uint64_t* lay_out(std::vector<std::size_t> lens);

  std::shared_ptr<const std::uint64_t> words_;  // owned or mapped; shared
  std::vector<std::size_t> start_word_;  // size() + 1 entries
  std::vector<std::size_t> len_;         // exact bit lengths
  bool mapped_ = false;
};

}  // namespace treelab::bits
