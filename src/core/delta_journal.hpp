// DeltaJournal — crash-safe persistence for a delta-maintained labeling.
//
// The v3 delta stream with its epoch chain (IncrementalRelabeler ->
// LabelStore::save_delta -> apply_delta) is the replication log of the
// serving design; this class makes that log durable. On disk a journaled
// labeling is a *pair* of files:
//
//   <base>          full LabelStore container: the base epoch
//   <base>.journal  header + append-only framed v3 delta records
//
// Journal layout (all integers little-endian):
//   header:  "TLJN" | u32 version=2 | u64 base_chain | u64 base_lens_hash
//            | u64 crc32c (over the 24 bytes before it, zero-extended)
//   record*: "TLRC" | u32 reserved=0 | u64 payload_len | u64 payload_crc32c
//            | payload  (payload = one LabelStore v3 delta container)
// Version 1 carried FNV-1a sums in both places; open() refuses it by
// version without touching the file.
//
// Durability discipline:
//  * append(d) writes the frame and fsyncs (JournalOptions::sync) before
//    the in-memory epoch advances; a failed append poisons the object
//    (the file may now end mid-frame) — reopen() is the only repair path.
//  * Full files (the base, the journal header) are only ever written via
//    util::atomic_write_file (temp + fsync + rename): a crash leaves the
//    old file or the new one, never a torn mix.
//  * checkpoint() folds the chain into a fresh base, then resets the
//    journal — two atomic renames. A crash between them leaves a new
//    base under the old journal; open() detects that by lens hash and
//    resets the journal, discarding exactly the records already folded
//    into the base.
//
// Recovery (open()) replays records in order; each must frame-check
// (magic, length bound, payload CRC), parse as a v3 delta, and chain from
// the running epoch. The first record failing any check is a torn tail:
// the file is truncated at the last good record boundary and replay
// stops. Recovery therefore always lands on the longest committed prefix
// — the "last committed epoch" the crash-recovery fuzzer asserts
// bit-identically against its from-scratch oracle.
//
// Epoch chain across folds: a fresh or reset journal starts its chain at
// lens_hash(base) (the same rebase rule as a full-file hand-off);
// checkpoint() *preserves* the running chain in the new header, so a
// producer shipping deltas never notices a clean fold. Only crash
// recovery rebases — a producer sees chain() != its epoch and re-keys
// its pending delta with LabelStore::rechain().
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "bits/label_arena.hpp"
#include "core/label_store.hpp"
#include "util/thread_annotations.hpp"

namespace treelab::core {

struct JournalOptions {
  /// Fold the chain into a fresh base once the journal holds at least
  /// this many records (auto_checkpoint) — bounds replay work on open.
  std::uint64_t checkpoint_records = 64;
  /// ... or once the journal file exceeds this many bytes.
  std::uint64_t checkpoint_bytes = std::uint64_t{64} << 20;
  /// Checkpoint automatically inside append()/open() when due.
  bool auto_checkpoint = true;
  /// fsync every append before it counts as committed. Turning this off
  /// trades the append-durability guarantee for speed (bulk loads,
  /// tests); recovery correctness is unaffected.
  bool sync = true;
};

/// What open() found and did. A reset/truncation is not an error — it is
/// recovery working as designed — but callers (CLI, ops) want to see it.
struct JournalRecovery {
  std::uint64_t records_replayed = 0;
  std::uint64_t bytes_truncated = 0;  ///< torn tail dropped from the journal
  bool journal_reset = false;  ///< journal missing/stale -> fresh (chain rebased)
  bool created = false;        ///< create() wrote a brand-new pair
};

struct JournalStats {
  std::uint64_t appends = 0;
  std::uint64_t checkpoints = 0;  ///< explicit + automatic
};

// Thread-safety: the journal carries its own internal mutex (mu_). The
// mutating API (append/checkpoint) and the scalar accessors lock it; a
// Tail cursor never touches it — cursors read the journal *file* fenced
// by the lock-free committed/generation publication state, so a tailing
// replicator thread cannot block (or be blocked by) the appender. Moves
// are still allowed (the mutex lives behind a stable unique_ptr) but, as
// with any non-copyable resource owner, must not race other access.
class DeltaJournal {
 public:
  DeltaJournal(DeltaJournal&&) = default;
  DeltaJournal& operator=(DeltaJournal&&) = default;
  DeltaJournal(const DeltaJournal&) = delete;
  DeltaJournal& operator=(const DeltaJournal&) = delete;

  /// Starts a journaled labeling at `base_path`: writes the base file
  /// (atomic, mappable container) and a fresh journal, replacing any
  /// existing pair. Chain starts at lens_hash(initial.labels).
  [[nodiscard]] static DeltaJournal create(const std::string& base_path,
                                           const LabelStore::LoadedArena& initial,
                                           JournalOptions opt = {});

  /// Opens and recovers an existing pair (see the recovery rules above).
  /// Throws util::IoError if the base cannot be read, std::runtime_error
  /// if the base container or the journal *header* is corrupt (headers
  /// are atomically written, so a bad one is real corruption, not a
  /// crash artifact) or names another journal version; either way the
  /// journal file is left as it was. Torn record tails are truncated, not
  /// errors.
  [[nodiscard]] static DeltaJournal open(const std::string& base_path,
                                         JournalOptions opt = {});

  /// The journal file path for a given base path ("<base>.journal").
  [[nodiscard]] static std::string journal_path(const std::string& base_path);

  /// Appends one delta: it must match the scheme/params and chain from
  /// chain(). The frame is on disk (fsync'd when opt.sync) before the
  /// in-memory labeling advances. Any I/O failure (or simulated crash)
  /// poisons the journal — healthy() turns false and further appends
  /// throw std::logic_error; reopen with open() to recover. Integrity
  /// failures (wrong chain/scheme/base) throw without writing anything
  /// and do NOT poison. May auto-checkpoint afterwards.
  void append(const LabelDelta& d) TREELAB_EXCLUDES(*mu_);

  /// Folds the journal into a fresh base file and resets the journal,
  /// preserving the epoch chain. Poisons on I/O failure like append().
  void checkpoint() TREELAB_EXCLUDES(*mu_);

  [[nodiscard]] bool checkpoint_due() const TREELAB_EXCLUDES(*mu_);

  [[nodiscard]] const std::string& base_path() const noexcept {
    return base_path_;
  }
  [[nodiscard]] const std::string& scheme() const noexcept { return scheme_; }
  [[nodiscard]] const std::string& params() const noexcept { return params_; }
  /// The labeling at the last committed epoch. Owner-thread only: the
  /// returned reference aliases state the next append()/checkpoint()
  /// mutates, so it must not be held across either — concurrent readers
  /// use to_loaded()/snapshot_plan() (which copy under the lock) instead.
  /// Justified analysis escape 1 of 2 (see README "Static analysis"): a
  /// by-reference accessor cannot hand back a lock with the data.
  [[nodiscard]] const bits::LabelArena& labels() const noexcept
      TREELAB_NO_THREAD_SAFETY_ANALYSIS {
    return labels_;
  }
  /// Current epoch-chain value (what the next delta's base_chain must be).
  [[nodiscard]] std::uint64_t chain() const TREELAB_EXCLUDES(*mu_);
  [[nodiscard]] std::uint64_t record_count() const TREELAB_EXCLUDES(*mu_);
  [[nodiscard]] std::uint64_t journal_bytes() const TREELAB_EXCLUDES(*mu_);
  [[nodiscard]] bool healthy() const TREELAB_EXCLUDES(*mu_);
  [[nodiscard]] const JournalRecovery& recovery() const noexcept {
    return recovery_;  // immutable after create()/open()
  }
  [[nodiscard]] JournalStats stats() const TREELAB_EXCLUDES(*mu_);

  /// Copy of the committed labeling in hand-off form (e.g. to seed a
  /// ForestIndex entry). Taken under the internal lock: always one
  /// committed epoch, never a mid-append mix.
  [[nodiscard]] LabelStore::LoadedArena to_loaded() const
      TREELAB_EXCLUDES(*mu_);

  /// A consistent (labeling copy, chain) pair taken under one lock hold —
  /// the leader side of snapshot catch-up. The caller then plans a Tail
  /// with tail_from(plan.chain): if a checkpoint folds the journal in
  /// between, tail_from reports nullopt and the caller simply re-plans.
  struct SnapshotPlan {
    LabelStore::LoadedArena loaded;
    std::uint64_t chain = 0;
  };
  [[nodiscard]] SnapshotPlan snapshot_plan() const TREELAB_EXCLUDES(*mu_);

  // --- tail cursors (the replication feed) ----------------------------------
  //
  // A Tail reads committed records out of the journal *file*, in epoch
  // order, from another thread while the owner keeps appending. The commit
  // boundary is published atomically after each successful append — a
  // record whose bytes are mid-write (or written but not yet committed) is
  // never surfaced, so a tailing replicator ships exactly the records a
  // crash-recovery open() would replay. checkpoint() (and crash-recovery
  // resets) replace the journal file; a cursor created before that returns
  // kLost from then on — the reader is "too far behind" and must re-plan
  // from a fresh snapshot of the labeling.

  /// What the shared publication state says about the cursor's position.
  enum class TailStatus : std::uint8_t {
    kRecord = 0,    ///< one committed record was read into `out`
    kCaughtUp = 1,  ///< no committed record past the cursor (yet)
    kLost = 2,      ///< the journal was reset/folded under the cursor
  };

  class Tail {
   public:
    /// Reads the next committed record. On kRecord, `out` holds the delta
    /// and chain() has advanced to its new_chain; on kCaughtUp/kLost, `out`
    /// is untouched. Never blocks, never throws on torn bytes (a frame
    /// that fails any check while inside the committed boundary means the
    /// file was replaced under the cursor: kLost).
    [[nodiscard]] TailStatus next(LabelDelta& out);
    /// Chain value the cursor sits at (base_chain of the next record).
    [[nodiscard]] std::uint64_t chain() const noexcept { return chain_; }
    [[nodiscard]] std::uint64_t offset() const noexcept { return offset_; }
    /// Committed records this cursor has consumed, including the ones
    /// tail_from() skipped to reach its starting epoch. Compared against
    /// the owner's record_count() this is the cursor's replication lag in
    /// records — the `net.server.subscriber_lag_records` gauge.
    [[nodiscard]] std::uint64_t records_read() const noexcept {
      return records_read_;
    }

   private:
    friend class DeltaJournal;
    struct Shared;
    std::string path_;
    std::shared_ptr<const Shared> shared_;
    std::uint64_t generation_ = 0;
    std::uint64_t offset_ = 0;
    std::uint64_t chain_ = 0;
    std::uint64_t records_read_ = 0;
  };

  /// A cursor positioned at the first committed record whose base_chain is
  /// `from_chain` (from_chain == chain() gives an empty cursor at the
  /// committed end). nullopt when that epoch is not in the journal — the
  /// reader is behind the last fold and must catch up from a full
  /// snapshot. Safe to call (and to use the cursor) concurrently with
  /// append() from the owning thread: the walk reads only the journal
  /// file and the lock-free publication state, never mu_-guarded members
  /// — hence EXCLUDES, the cursor plan can never deadlock the appender.
  [[nodiscard]] std::optional<Tail> tail_from(std::uint64_t from_chain) const
      TREELAB_EXCLUDES(*mu_);

 private:
  DeltaJournal() = default;

  /// checkpoint() body; split out so append()'s auto-checkpoint (and
  /// open()'s post-replay fold) run it under the already-held lock
  /// instead of self-deadlocking through the public wrapper.
  void checkpoint_locked() TREELAB_REQUIRES(*mu_);
  [[nodiscard]] bool checkpoint_due_locked() const TREELAB_REQUIRES(*mu_) {
    return record_count_ > 0 && (record_count_ >= opt_.checkpoint_records ||
                                 journal_bytes_ >= opt_.checkpoint_bytes);
  }

  /// Atomically writes a fresh journal holding only a header with
  /// base_chain = chain_ and base_lens_hash = lens_hash(labels_).
  void write_fresh_journal() TREELAB_REQUIRES(*mu_);
  /// labels_ <- apply_delta(labels_, d); validates count + lens hash.
  void apply_in_memory(const LabelDelta& d) TREELAB_REQUIRES(*mu_);

  /// Publishes the commit boundary to cursors (append: committed bytes
  /// grow; checkpoint/reset: generation bumps, boundary rewinds).
  void publish_committed() noexcept TREELAB_REQUIRES(*mu_);

  // Heap-held (not inline) so the defaulted moves keep working — tests
  // and the CLI move journals into std::optional slots. The pointer is
  // set once at construction and never reseated.
  std::unique_ptr<util::Mutex> mu_ = std::make_unique<util::Mutex>();
  std::string base_path_;
  std::string journal_path_;
  JournalOptions opt_;
  std::string scheme_;
  std::string params_;
  bits::LabelArena labels_ TREELAB_GUARDED_BY(*mu_);
  std::uint64_t chain_ TREELAB_GUARDED_BY(*mu_) = 0;
  std::uint64_t record_count_ TREELAB_GUARDED_BY(*mu_) = 0;
  std::uint64_t journal_bytes_ TREELAB_GUARDED_BY(*mu_) = 0;
  bool healthy_ TREELAB_GUARDED_BY(*mu_) = true;
  JournalRecovery recovery_;  ///< written before hand-off, then immutable
  JournalStats stats_ TREELAB_GUARDED_BY(*mu_);
  std::shared_ptr<Tail::Shared> tail_shared_;  ///< set once, pointee atomic
};

}  // namespace treelab::core
