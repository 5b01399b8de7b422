#include "core/delta_journal.hpp"

#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"
#include "util/bytes.hpp"
#include "util/fs.hpp"
#include "util/io_error.hpp"

namespace treelab::core {

using util::crc32c;

namespace {

// Registry references resolved once (the registry never deletes owned
// metrics). Journal metrics are process-wide: every instance feeds the
// same histograms, and the size gauges track the most recently mutated
// journal — one journal per serving process in practice.
struct JournalMetrics {
  obs::Histogram& append_ns;
  obs::Histogram& fsync_ns;
  obs::Histogram& checkpoint_ns;
  obs::Counter& appends;
  obs::Counter& checkpoints;
  obs::Gauge& records;
  obs::Gauge& bytes;
  static JournalMetrics& get() {
    static JournalMetrics m = [] {
      obs::Registry& r = obs::Registry::global();
      return JournalMetrics{r.histogram("journal.append_ns"),
                            r.histogram("journal.fsync_ns"),
                            r.histogram("journal.checkpoint_ns"),
                            r.counter("journal.appends"),
                            r.counter("journal.checkpoints"),
                            r.gauge("journal.records"),
                            r.gauge("journal.bytes")};
    }();
    return m;
  }
};

constexpr char kJournalMagic[4] = {'T', 'L', 'J', 'N'};
constexpr char kRecordMagic[4] = {'T', 'L', 'R', 'C'};
constexpr std::uint32_t kJournalVersion = 2;
constexpr std::size_t kHeaderBytes = 4 + 4 + 8 + 8 + 8;
constexpr std::size_t kFrameBytes = util::kFrameHeaderBytes;
// A single record cannot meaningfully exceed this; anything larger in a
// length field is a torn/garbage frame, not a real delta.
constexpr std::uint64_t kMaxPayload = std::uint64_t{1} << 40;

/// Parses the kHeaderBytes journal header at `p`; false on a bad magic,
/// version or checksum. `version` receives the version field whenever the
/// magic matches, so a caller can tell an older format from corruption.
bool read_journal_header(const char* p, std::uint32_t& version,
                         std::uint64_t& chain, std::uint64_t& lens) {
  if (std::memcmp(p, kJournalMagic, 4) != 0) return false;
  version = util::load_le<std::uint32_t>(p + 4);
  if (version != kJournalVersion ||
      util::load_le<std::uint64_t>(p + kHeaderBytes - 8) !=
          crc32c(p, kHeaderBytes - 8))
    return false;
  chain = util::load_le<std::uint64_t>(p + 8);
  lens = util::load_le<std::uint64_t>(p + 16);
  return true;
}

}  // namespace

/// The cursor publication state: the commit boundary grows after each
/// successful append; a reset (checkpoint fold, recovery) bumps the
/// generation *before* the file is replaced and rewinds the boundary after,
/// so a reader can never mistake bytes of the new file for the old one —
/// any read straddling a reset sees a generation change and reports kLost.
struct DeltaJournal::Tail::Shared {
  std::atomic<std::uint64_t> committed{0};
  std::atomic<std::uint64_t> generation{0};
};

std::string DeltaJournal::journal_path(const std::string& base_path) {
  return base_path + ".journal";
}

void DeltaJournal::publish_committed() noexcept {
  if (tail_shared_ != nullptr)
    tail_shared_->committed.store(journal_bytes_, std::memory_order_release);
}

void DeltaJournal::write_fresh_journal() {
  if (tail_shared_ == nullptr)
    tail_shared_ = std::make_shared<Tail::Shared>();
  // Invalidate cursors before the file changes underneath them.
  tail_shared_->generation.fetch_add(1, std::memory_order_acq_rel);
  std::string hdr;
  hdr.reserve(kHeaderBytes);
  hdr.append(kJournalMagic, 4);
  util::put_le(hdr, kJournalVersion);
  util::put_le(hdr, chain_);
  util::put_le(hdr, LabelStore::lens_hash(labels_));
  util::put_le<std::uint64_t>(hdr, crc32c(hdr.data(), hdr.size()));
  util::atomic_write_file(journal_path_, hdr);
  record_count_ = 0;
  journal_bytes_ = hdr.size();
  publish_committed();
}

void DeltaJournal::apply_in_memory(const LabelDelta& d) {
  labels_ = LabelStore::apply_delta(labels_, d);
}

DeltaJournal DeltaJournal::create(const std::string& base_path,
                                  const LabelStore::LoadedArena& initial,
                                  JournalOptions opt) {
  DeltaJournal j;
  j.base_path_ = base_path;
  j.journal_path_ = journal_path(base_path);
  j.opt_ = opt;
  j.scheme_ = initial.scheme;
  j.params_ = initial.params;
  // Uncontended (j is local until returned) but held so the analysis sees
  // the guarded members initialized under their capability.
  const util::MutexLock lock(*j.mu_);
  j.labels_ = initial.labels;
  LabelStore::save_file(base_path, j.scheme_, j.labels_, j.params_);
  j.chain_ = LabelStore::lens_hash(j.labels_);
  j.write_fresh_journal();
  j.recovery_.created = true;
  return j;
}

DeltaJournal DeltaJournal::open(const std::string& base_path,
                                JournalOptions opt) {
  DeltaJournal j;
  j.base_path_ = base_path;
  j.journal_path_ = journal_path(base_path);
  j.opt_ = opt;
  const util::MutexLock lock(*j.mu_);  // see create()
  {
    const std::string base_bytes = util::read_file(base_path);
    std::istringstream is(base_bytes, std::ios::binary);
    LabelStore::LoadedArena la = LabelStore::load_arena(is);
    j.scheme_ = std::move(la.scheme);
    j.params_ = std::move(la.params);
    j.labels_ = std::move(la.labels);
  }
  const std::uint64_t base_hash = LabelStore::lens_hash(j.labels_);

  if (!util::file_exists(j.journal_path_)) {
    j.chain_ = base_hash;
    j.write_fresh_journal();
    j.recovery_.journal_reset = true;
    return j;
  }

  const std::string jb = util::read_file(j.journal_path_);
  std::uint32_t hdr_version = kJournalVersion;
  std::uint64_t hdr_chain = 0;
  std::uint64_t hdr_lens = 0;
  if (jb.size() < kHeaderBytes ||
      !read_journal_header(jb.data(), hdr_version, hdr_chain, hdr_lens)) {
    // Refused before any record is read, so the file stays as it was: an
    // older journal's records would all fail this version's checksum and
    // read as one torn tail to truncate.
    if (hdr_version != kJournalVersion)
      throw std::runtime_error(
          "DeltaJournal: " + j.journal_path_ + " is journal version " +
          std::to_string(hdr_version) + "; this build reads version " +
          std::to_string(kJournalVersion));
    // Headers only ever land via atomic full-file writes, so a crash
    // cannot tear one: a bad header is real corruption.
    throw std::runtime_error("DeltaJournal: corrupt journal header in " +
                             j.journal_path_);
  }

  if (hdr_lens != base_hash) {
    // The crash window inside checkpoint(): new base renamed in, journal
    // not yet reset. Every journal record is already folded into the
    // base, so the stale journal is simply replaced.
    j.chain_ = base_hash;
    j.write_fresh_journal();
    j.recovery_.journal_reset = true;
    return j;
  }

  j.chain_ = hdr_chain;
  std::size_t off = kHeaderBytes;
  std::size_t committed_end = off;
  while (off < jb.size()) {
    // Frame-check, parse, and chain-check; the first failure is the torn
    // tail — stop, truncate, done.
    util::FrameHeader h;
    if (jb.size() - off < kFrameBytes ||
        !util::read_frame_header(jb.data() + off, kRecordMagic, h))
      break;
    if (h.len > kMaxPayload || h.len > jb.size() - off - kFrameBytes) break;
    const std::string_view payload(jb.data() + off + kFrameBytes,
                                   static_cast<std::size_t>(h.len));
    if (!h.verifies(payload)) break;
    LabelDelta d;
    try {
      std::istringstream ps(std::string(payload), std::ios::binary);
      d = LabelStore::load_delta(ps);
    } catch (const std::runtime_error&) {
      break;
    }
    if (d.scheme != j.scheme_ || d.params != j.params_) break;
    if (d.base_chain != j.chain_) break;
    try {
      j.apply_in_memory(d);
    } catch (const std::runtime_error&) {
      break;
    }
    j.chain_ = d.new_chain;
    ++j.recovery_.records_replayed;
    off += kFrameBytes + payload.size();
    committed_end = off;
  }
  if (committed_end < jb.size()) {
    j.recovery_.bytes_truncated = jb.size() - committed_end;
    util::truncate_file(j.journal_path_, committed_end);
  }
  j.record_count_ = j.recovery_.records_replayed;
  j.journal_bytes_ = committed_end;
  j.tail_shared_ = std::make_shared<Tail::Shared>();
  j.publish_committed();

  if (j.checkpoint_due_locked()) j.checkpoint_locked();
  return j;
}

void DeltaJournal::append(const LabelDelta& d) {
  const util::MutexLock lock(*mu_);
  if (!healthy_)
    throw std::logic_error(
        "DeltaJournal: poisoned by a failed append/checkpoint; reopen to "
        "recover");
  if (d.scheme != scheme_ || d.params != params_)
    throw std::invalid_argument("DeltaJournal: delta scheme/params mismatch");
  if (d.base_chain != chain_)
    throw std::runtime_error(
        "DeltaJournal: delta does not chain from the journal epoch (rebase "
        "with LabelStore::rechain)");
  if (d.new_chain != LabelStore::chain_hash(d.base_chain, d))
    throw std::runtime_error("DeltaJournal: delta new_chain is inconsistent");

  // Validate + materialize the successor epoch BEFORE any byte is
  // written: a bad delta must not reach the file.
  bits::LabelArena patched = LabelStore::apply_delta(labels_, d);

  std::ostringstream ps(std::ios::binary);
  LabelStore::save_delta(ps, d);
  std::string frame;
  util::append_frame(frame, kRecordMagic, 0, ps.str());

  JournalMetrics& m = JournalMetrics::get();
  const std::uint64_t t0 = obs::now_ns();
  std::uint64_t fsync_ns = 0;
  try {
    util::append_file(journal_path_, frame, opt_.sync, &fsync_ns);
  } catch (...) {
    // The file may now end mid-frame; leave it exactly as the crash
    // would have, for open() to truncate.
    healthy_ = false;
    throw;
  }
  m.append_ns.record(obs::now_ns() - t0);
  if (opt_.sync) m.fsync_ns.record(fsync_ns);
  m.appends.add();

  labels_ = std::move(patched);
  chain_ = d.new_chain;
  ++record_count_;
  journal_bytes_ += frame.size();
  ++stats_.appends;
  m.records.set(record_count_);
  m.bytes.set(journal_bytes_);
  publish_committed();

  if (checkpoint_due_locked()) checkpoint_locked();
}

void DeltaJournal::checkpoint() {
  const util::MutexLock lock(*mu_);
  checkpoint_locked();
}

void DeltaJournal::checkpoint_locked() {
  if (!healthy_)
    throw std::logic_error(
        "DeltaJournal: poisoned by a failed append/checkpoint; reopen to "
        "recover");
  JournalMetrics& m = JournalMetrics::get();
  const std::uint64_t t0 = obs::now_ns();
  try {
    LabelStore::save_file(base_path_, scheme_, labels_, params_);
    // Chain intentionally preserved across the fold: producers keep
    // chaining as if nothing happened. Recovery from a crash between the
    // two writes rebases instead (see open()).
    write_fresh_journal();
  } catch (...) {
    healthy_ = false;
    throw;
  }
  m.checkpoint_ns.record(obs::now_ns() - t0);
  m.checkpoints.add();
  m.records.set(record_count_);
  m.bytes.set(journal_bytes_);
  ++stats_.checkpoints;
}

bool DeltaJournal::checkpoint_due() const {
  const util::MutexLock lock(*mu_);
  return checkpoint_due_locked();
}

std::uint64_t DeltaJournal::chain() const {
  const util::MutexLock lock(*mu_);
  return chain_;
}

std::uint64_t DeltaJournal::record_count() const {
  const util::MutexLock lock(*mu_);
  return record_count_;
}

std::uint64_t DeltaJournal::journal_bytes() const {
  const util::MutexLock lock(*mu_);
  return journal_bytes_;
}

bool DeltaJournal::healthy() const {
  const util::MutexLock lock(*mu_);
  return healthy_;
}

JournalStats DeltaJournal::stats() const {
  const util::MutexLock lock(*mu_);
  return stats_;
}

LabelStore::LoadedArena DeltaJournal::to_loaded() const {
  const util::MutexLock lock(*mu_);
  return {scheme_, params_, labels_};
}

DeltaJournal::SnapshotPlan DeltaJournal::snapshot_plan() const {
  const util::MutexLock lock(*mu_);
  return {LabelStore::LoadedArena{scheme_, params_, labels_}, chain_};
}

namespace {

/// Reads and validates one record frame at `off`, strictly inside the
/// committed boundary. Any failure (short read, bad magic, bad checksum,
/// unparsable payload) returns false — within a stable generation the
/// committed prefix always validates, so a failure means the file was
/// replaced under the reader.
bool read_committed_record(std::ifstream& in, std::uint64_t off,
                           std::uint64_t committed, LabelDelta& out,
                           std::uint64_t& next_off) {
  if (off + kFrameBytes > committed) return false;
  char hdr[kFrameBytes];
  in.clear();
  in.seekg(static_cast<std::streamoff>(off));
  util::FrameHeader h;
  if (!in.read(hdr, kFrameBytes) ||
      !util::read_frame_header(hdr, kRecordMagic, h))
    return false;
  if (h.len > kMaxPayload || off + kFrameBytes + h.len > committed)
    return false;
  std::string payload(static_cast<std::size_t>(h.len), '\0');
  if (!in.read(payload.data(), static_cast<std::streamsize>(h.len)) ||
      !h.verifies(payload))
    return false;
  try {
    std::istringstream ps(payload, std::ios::binary);
    out = LabelStore::load_delta(ps);
  } catch (const std::exception&) {
    return false;
  }
  next_off = off + kFrameBytes + h.len;
  return true;
}

}  // namespace

DeltaJournal::TailStatus DeltaJournal::Tail::next(LabelDelta& out) {
  if (shared_->generation.load(std::memory_order_acquire) != generation_)
    return TailStatus::kLost;
  const std::uint64_t committed =
      shared_->committed.load(std::memory_order_acquire);
  if (offset_ + kFrameBytes > committed) {
    // The boundary only rewinds across a reset; re-check the generation so
    // a racing fold reads as kLost, not as a quiet catch-up.
    if (shared_->generation.load(std::memory_order_acquire) != generation_)
      return TailStatus::kLost;
    return TailStatus::kCaughtUp;
  }
  // lint: allow(io-failpoint): lock-free committed-prefix read — torn or
  // lint: allow(io-failpoint): raced bytes surface as kLost by design
  std::ifstream in(path_, std::ios::binary);
  LabelDelta d;
  std::uint64_t next_off = 0;
  const bool ok =
      in.is_open() && read_committed_record(in, offset_, committed, d,
                                            next_off);
  // A fold may have swapped the file mid-read; the bytes are then garbage
  // regardless of whether they happened to frame-check.
  if (shared_->generation.load(std::memory_order_acquire) != generation_)
    return TailStatus::kLost;
  if (!ok || d.base_chain != chain_) return TailStatus::kLost;
  chain_ = d.new_chain;
  offset_ = next_off;
  ++records_read_;
  out = std::move(d);
  return TailStatus::kRecord;
}

std::optional<DeltaJournal::Tail> DeltaJournal::tail_from(
    std::uint64_t from_chain) const {
  Tail t;
  t.path_ = journal_path_;
  t.shared_ = tail_shared_;
  t.generation_ = tail_shared_->generation.load(std::memory_order_acquire);
  const std::uint64_t committed =
      tail_shared_->committed.load(std::memory_order_acquire);
  // lint: allow(io-failpoint): cursor planning reads the committed prefix
  // lint: allow(io-failpoint): lock-free; any failure degrades to nullopt
  std::ifstream in(journal_path_, std::ios::binary);
  char hdr[kHeaderBytes];
  std::uint32_t hdr_version = 0;
  std::uint64_t hdr_lens = 0;
  if (!in.is_open() || !in.read(hdr, kHeaderBytes) ||
      !read_journal_header(hdr, hdr_version, t.chain_, hdr_lens))
    return std::nullopt;
  t.offset_ = kHeaderBytes;
  // Walk the committed records until the running chain meets from_chain;
  // running off the committed end means that epoch predates this journal
  // (or was folded away): the reader needs a snapshot.
  while (t.chain_ != from_chain) {
    LabelDelta d;
    std::uint64_t next_off = 0;
    if (!read_committed_record(in, t.offset_, committed, d, next_off) ||
        d.base_chain != t.chain_)
      return std::nullopt;
    t.chain_ = d.new_chain;
    t.offset_ = next_off;
    ++t.records_read_;  // skipped records still count as consumed
  }
  if (tail_shared_->generation.load(std::memory_order_acquire) !=
      t.generation_)
    return std::nullopt;
  return t;
}

}  // namespace treelab::core
