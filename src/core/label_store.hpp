// LabelStore — a versioned on-disk container for a labeling.
//
// Labels are meant to be *shipped*: computed once centrally, then handed to
// the nodes/devices/processes that will answer queries locally. LabelStore
// is the format for that hand-off: a magic/version header, the scheme name
// and its scheme-wide parameters (k, eps, ...) as strings, a directory of
// label bit lengths, then one 8-byte-aligned word buffer holding every label
// word-aligned and zero-padded — LabelArena's in-memory layout verbatim. So
// open_mapped() can mmap a file and serve BitSpan views straight out of the
// page cache (bits::LabelArena::map). Loading validates the header and every
// length field and throws std::runtime_error on any corruption. Every
// integer goes through util/bytes.hpp.
//
// Container versions:
//   * version 2 — the one full-labeling container: mappable, written by
//     save_mappable and save_file, read by load_arena and open_mapped.
//   * version 3 — a delta against a base labeling (save_delta/load_delta).
// Any other version in a full-labeling header — such as version 1, the
// compact container of earlier builds — is refused with an error naming it.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "bits/label_arena.hpp"

namespace treelab::core {

/// One tree-shape edit, as recorded in a delta's edit log. The log is the
/// shape half of a delta: label payloads say *what* changed, the log says
/// *why* — consumers that mirror the tree (replicas, replay tooling, the
/// edit fuzzer's repro files) apply it to their own shape copy.
struct LabelEdit {
  enum class Kind : std::uint8_t {
    kInsertLeaf = 0,  ///< a = parent id, b = edge weight (new id = count)
    kDeleteLeaf = 1,  ///< a = leaf id
    kDetach = 2,      ///< a = subtree root id
    kAttach = 3,      ///< a = new parent id, b = edge weight
    kSetWeight = 4,   ///< a = node id, b = new edge weight
    kCompact = 5,     ///< ids renumbered (the delta's dropped runs say how)
  };
  Kind kind = Kind::kInsertLeaf;
  std::uint64_t a = 0;
  std::uint64_t b = 0;

  friend bool operator==(const LabelEdit&, const LabelEdit&) = default;
};

/// A maximal run of consecutive ids [first, first + count).
struct IdRun {
  std::uint64_t first = 0;
  std::uint64_t count = 0;

  friend bool operator==(const IdRun&, const IdRun&) = default;
};

/// Compresses a sorted, duplicate-free id list into maximal IdRuns.
[[nodiscard]] std::vector<IdRun> id_runs(
    const std::vector<std::uint64_t>& sorted_ids);

/// A label delta: everything needed to turn the base-epoch labeling (the
/// one whose length directory hashes to `base_lens_hash`) into the current
/// one. Applied in two steps: first the `dropped` base ids are removed and
/// the survivors renumbered densely (order-preserving — compact()'s remap),
/// then every id in `dirty` (new-id space) takes its payload label; ids not
/// dropped and not dirty keep their base bits at their shifted position.
/// Dropped ids stay run-compressed (a compaction can drop half the tree;
/// runs keep the delta, and every allocation parsing it, proportional to
/// the *change*); dirty ids are expanded (each one carries a payload, so
/// the list is payload-bounded anyway). Produced by
/// IncrementalRelabeler::make_delta(), shipped as the LabelStore version-3
/// container, applied by LabelStore::apply_delta /
/// serve::ForestIndex::apply_delta.
struct LabelDelta {
  std::string scheme;
  std::string params;
  std::uint64_t base_count = 0;     ///< labels in the base arena
  std::uint64_t new_count = 0;      ///< labels after application
  std::uint64_t base_lens_hash = 0; ///< LabelStore::lens_hash of the base
  /// Epoch chain: base_chain is the chain value of the epoch this delta
  /// applies to (lens_hash of the arena for a freshly hand-off'ed base;
  /// the previous delta's new_chain afterwards); new_chain =
  /// LabelStore::chain_hash(base_chain, *this). The chain is
  /// content-derived, so a skipped or reordered delta is rejected even
  /// when the labelings' length directories happen to collide.
  std::uint64_t base_chain = 0;
  std::uint64_t new_chain = 0;
  std::vector<IdRun> dropped;       ///< base-id runs, sorted, disjoint
  std::vector<std::uint64_t> dirty; ///< new-space ids, sorted ascending
  bits::LabelArena payload;         ///< payload[i] = label of dirty[i]
  std::vector<LabelEdit> edits;     ///< shape edits, in order

  /// Ids dropped (sum of run lengths).
  [[nodiscard]] std::uint64_t dropped_count() const noexcept {
    std::uint64_t n = 0;
    for (const IdRun& r : dropped) n += r.count;
    return n;
  }
};

class LabelStore {
 public:
  /// A loaded labeling: owned memory, or an mmap'ed file (open_mapped).
  struct LoadedArena {
    std::string scheme;       ///< e.g. "fgnw", "kdistance"
    std::string params;       ///< e.g. "k=4"; scheme-defined
    bits::LabelArena labels;  ///< indexed by node id
  };
  /// open_mapped()'s result type under its former name.
  using MappedLoaded = LoadedArena;

  /// Writes the version-2 mappable container: directory of bit lengths,
  /// then the arena's word buffer verbatim (8-byte-aligned in the file).
  static void save_mappable(std::ostream& os, std::string_view scheme,
                            const bits::LabelArena& labels,
                            std::string_view params = {});

  /// Parses a version-2 container from the rest of `is` into owned memory.
  /// Throws std::runtime_error on bad magic, any other version (the message
  /// names it), or truncated/oversized fields.
  [[nodiscard]] static LoadedArena load_arena(std::istream& is);

  /// Opens a label file for serving — the serving-side entry point. It
  /// reads only the header and the length directory, then mmaps the word
  /// buffer (labels.mapped() == true, no payload copy). A version-2 file
  /// that cannot be mapped — the mapped_arena.map failpoint, a big-endian
  /// host, a failing mmap, or a word buffer shorter than the directory promises —
  /// is streamed through load_arena() into owned memory instead, which
  /// reports the truncation. Throws what load_arena() throws, including
  /// for any version other than 2.
  [[nodiscard]] static LoadedArena open_mapped(const std::string& path);

  // --- version-3 delta container --------------------------------------------

  /// Structural fingerprint of a labeling: FNV-1a over the label count and
  /// every label's exact bit length. O(n) with no payload reads (cheap even
  /// on an mmap'ed arena — the word buffer is never touched), so
  /// apply_delta can verify a delta targets the right base without paging
  /// the labels in. Identical for owned and mapped arenas of the same
  /// labeling.
  [[nodiscard]] static std::uint64_t lens_hash(const bits::LabelArena& a);

  /// The successor epoch-chain value of applying `d` to an epoch whose
  /// chain value is `base_chain`: FNV-1a over the chain value and the
  /// delta's content (counts, dropped runs, dirty ids, payload bits).
  /// Unlike lens_hash this folds the payload *contents*, so two deltas
  /// producing length-identical labelings still chain apart.
  [[nodiscard]] static std::uint64_t chain_hash(std::uint64_t base_chain,
                                                const LabelDelta& d);

  /// Writes `d` as a version-3 delta container (see README for the byte
  /// layout): header, dropped/dirty id runs, dirty label length directory,
  /// word-aligned payload, edit log, trailing FNV-1a checksum of the whole
  /// delta. Throws std::invalid_argument on a structurally invalid delta
  /// (unsorted runs, payload/dirty size mismatch).
  static void save_delta(std::ostream& os, const LabelDelta& d);

  /// Parses a version-3 container. Every field is validated — bad magic or
  /// version, unsorted/overlapping/out-of-range runs, implausible counts,
  /// truncation anywhere, and checksum mismatch all throw
  /// std::runtime_error; corrupt input never reads out of bounds or makes
  /// count-sized allocations.
  [[nodiscard]] static LabelDelta load_delta(std::istream& is);

  /// Applies `d` to `base` copy-on-write: returns a fresh owned arena, the
  /// base (possibly an mmap'ed file serving concurrent queries) is never
  /// written. Validates that the delta targets this base (count + lens
  /// hash) and that the delta is self-consistent (every id past the
  /// survivor range carries a payload); throws std::runtime_error
  /// otherwise.
  [[nodiscard]] static bits::LabelArena apply_delta(
      const bits::LabelArena& base, const LabelDelta& d);

  // --- crash-safe file writes -----------------------------------------------

  /// save_mappable() written to `path` crash-safely: the bytes go to a
  /// temp file that is fsync'd and atomically renamed over `path`, so a
  /// crash mid-save leaves either the old file or the new one, never a
  /// torn mix. I/O failures throw util::IoError (path + errno).
  static void save_file(const std::string& path, std::string_view scheme,
                        const bits::LabelArena& labels,
                        std::string_view params = {});

  /// save_delta() with the same temp + fsync + rename discipline.
  static void save_delta_file(const std::string& path, const LabelDelta& d);

  /// Re-keys `d` to chain from `base_chain`: overwrites d.base_chain and
  /// recomputes d.new_chain with chain_hash(). Sound because the chain is
  /// content-derived — the delta's effect is untouched, only its position
  /// in an epoch chain moves. This is what a producer does when the
  /// consumer's chain was rebased under it (a journal reset after a
  /// crash, or a replica that reloaded a full file and restarted its
  /// chain at lens_hash).
  static void rechain(LabelDelta& d, std::uint64_t base_chain);
};

}  // namespace treelab::core
