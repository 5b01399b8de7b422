// DeltaJournal unit coverage: clean round-trips, every recovery rule
// (torn tail, stale journal after a checkpoint crash, missing journal),
// the refusal of an older journal version, the checkpoint/compaction
// policy, chain discipline (refusal + rechain), and poisoning after a
// failed append. The randomized companion is crash_recovery_fuzz_test.
#include "core/delta_journal.hpp"

#include <gtest/gtest.h>

#include <cerrno>
#include <sstream>
#include <string>

#include "core/incremental_relabeler.hpp"
#include "core/label_store.hpp"
#include "tree/generators.hpp"
#include "tree/tree.hpp"
#include "util/bytes.hpp"
#include "util/failpoint.hpp"
#include "util/fs.hpp"
#include "util/hash.hpp"
#include "util/io_error.hpp"

namespace treelab {
namespace {

using core::DeltaJournal;
using core::IncrementalRelabeler;
using core::JournalOptions;
using core::LabelDelta;
using core::LabelStore;
using util::FailMode;
namespace failpoint = util::failpoint;

bool arena_equal(const bits::LabelArena& a, const bits::LabelArena& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (!(a.view(i) == b.view(i))) return false;
  return true;
}

class DeltaJournalTest : public testing::Test {
 protected:
  void SetUp() override {
    base_path_ = testing::TempDir() + "treelab_journal_" +
                 testing::UnitTest::GetInstance()
                     ->current_test_info()
                     ->name() +
                 ".lbl";
    cleanup();
  }
  void TearDown() override {
    failpoint::disarm_all();
    cleanup();
  }
  void cleanup() {
    util::remove_file(base_path_);
    util::remove_file(base_path_ + ".tmp");
    util::remove_file(DeltaJournal::journal_path(base_path_));
    util::remove_file(DeltaJournal::journal_path(base_path_) + ".tmp");
  }

  /// An edit batch shipped as one delta, appended (or not) by the caller.
  static LabelDelta grow(IncrementalRelabeler& r, int leaves) {
    for (int i = 0; i < leaves; ++i)
      r.insert_leaf(static_cast<tree::NodeId>(i % 3));
    LabelDelta d = r.make_delta();
    r.advance_delta(d);
    return d;
  }

  std::string base_path_;
};

TEST_F(DeltaJournalTest, CreateAppendReopenRoundTrip) {
  IncrementalRelabeler r(tree::random_tree(40, 7));
  JournalOptions opt;
  opt.checkpoint_records = 1000;  // no folding in this test
  DeltaJournal j = DeltaJournal::create(base_path_, r.to_loaded(), opt);
  EXPECT_TRUE(j.recovery().created);
  for (int batch = 0; batch < 3; ++batch) j.append(grow(r, 5));
  EXPECT_EQ(j.record_count(), 3u);
  EXPECT_TRUE(arena_equal(j.labels(), r.labels()));

  DeltaJournal j2 = DeltaJournal::open(base_path_, opt);
  EXPECT_EQ(j2.recovery().records_replayed, 3u);
  EXPECT_EQ(j2.recovery().bytes_truncated, 0u);
  EXPECT_FALSE(j2.recovery().journal_reset);
  EXPECT_TRUE(arena_equal(j2.labels(), r.labels()));
  EXPECT_EQ(j2.chain(), j.chain());
  EXPECT_EQ(j2.scheme(), r.scheme_tag());
  // The recovered journal keeps accepting the producer's chain.
  j2.append(grow(r, 4));
  EXPECT_TRUE(arena_equal(j2.labels(), r.labels()));
}

TEST_F(DeltaJournalTest, GarbageTailIsTruncated) {
  IncrementalRelabeler r(tree::random_tree(30, 3));
  JournalOptions opt;
  opt.checkpoint_records = 1000;
  DeltaJournal j = DeltaJournal::create(base_path_, r.to_loaded(), opt);
  j.append(grow(r, 4));
  j.append(grow(r, 4));
  const bits::LabelArena committed = j.labels();
  const std::string jpath = DeltaJournal::journal_path(base_path_);
  const std::uint64_t good_size = util::file_size(jpath);
  // A crash mid-frame: half a record magic and garbage.
  util::append_file(jpath, std::string("TLRC\x01garbage-tail", 17), true);

  DeltaJournal j2 = DeltaJournal::open(base_path_, opt);
  EXPECT_EQ(j2.recovery().records_replayed, 2u);
  EXPECT_EQ(j2.recovery().bytes_truncated, 17u);
  EXPECT_TRUE(arena_equal(j2.labels(), committed));
  EXPECT_EQ(util::file_size(jpath), good_size);  // tail really dropped
}

TEST_F(DeltaJournalTest, TornAppendRecoversToLastCommittedEpoch) {
  IncrementalRelabeler r(tree::random_tree(30, 4));
  JournalOptions opt;
  opt.checkpoint_records = 1000;
  DeltaJournal j = DeltaJournal::create(base_path_, r.to_loaded(), opt);
  j.append(grow(r, 4));
  const bits::LabelArena committed = j.labels();
  const std::uint64_t committed_chain = j.chain();

  // Tear the next append 10 bytes in: the journal object poisons, the
  // file ends mid-frame.
  failpoint::arm("fs.write", FailMode::kTornWrite, 0, 1, 10);
  const LabelDelta d = grow(r, 4);
  EXPECT_THROW(j.append(d), util::FailpointAbort);
  EXPECT_FALSE(j.healthy());
  EXPECT_THROW(j.append(d), std::logic_error);  // poisoned until reopen
  failpoint::disarm_all();

  DeltaJournal j2 = DeltaJournal::open(base_path_, opt);
  EXPECT_GT(j2.recovery().bytes_truncated, 0u);
  EXPECT_TRUE(arena_equal(j2.labels(), committed));
  EXPECT_EQ(j2.chain(), committed_chain);
  // The torn delta can be re-appended verbatim: its base epoch is exactly
  // where recovery landed.
  j2.append(d);
  EXPECT_TRUE(arena_equal(j2.labels(), r.labels()));
}

TEST_F(DeltaJournalTest, CheckpointFoldsAndPreservesChain) {
  IncrementalRelabeler r(tree::random_tree(30, 5));
  JournalOptions opt;
  opt.checkpoint_records = 2;  // auto-fold every second append
  DeltaJournal j = DeltaJournal::create(base_path_, r.to_loaded(), opt);
  j.append(grow(r, 3));
  EXPECT_EQ(j.record_count(), 1u);
  j.append(grow(r, 3));  // triggers the fold
  EXPECT_EQ(j.record_count(), 0u);
  EXPECT_GE(j.stats().checkpoints, 1u);
  // The fold preserved the chain: the producer keeps shipping as if
  // nothing happened.
  j.append(grow(r, 3));
  EXPECT_TRUE(arena_equal(j.labels(), r.labels()));
  // And the folded base alone reproduces the folded epoch on reopen.
  DeltaJournal j2 = DeltaJournal::open(base_path_, opt);
  EXPECT_TRUE(arena_equal(j2.labels(), r.labels()));
  EXPECT_EQ(j2.chain(), j.chain());
}

TEST_F(DeltaJournalTest, StaleJournalAfterCheckpointCrashIsReset) {
  IncrementalRelabeler r(tree::random_tree(30, 6));
  JournalOptions opt;
  opt.checkpoint_records = 1000;
  DeltaJournal j = DeltaJournal::create(base_path_, r.to_loaded(), opt);
  j.append(grow(r, 4));
  // Simulate the checkpoint crash window by hand: keep the OLD journal
  // bytes, let checkpoint() replace the base, then put the old journal
  // back — new base + stale journal is exactly what the window leaves.
  const std::string jpath = DeltaJournal::journal_path(base_path_);
  const std::string old_journal = util::read_file(jpath);
  j.checkpoint();
  const bits::LabelArena committed = j.labels();
  util::atomic_write_file(jpath, old_journal);

  DeltaJournal j2 = DeltaJournal::open(base_path_, opt);
  EXPECT_TRUE(j2.recovery().journal_reset);
  EXPECT_EQ(j2.recovery().records_replayed, 0u);
  EXPECT_TRUE(arena_equal(j2.labels(), committed));
  // The reset rebased the chain; a producer must rechain to follow.
  EXPECT_EQ(j2.chain(), LabelStore::lens_hash(committed));
  LabelDelta d = grow(r, 3);
  EXPECT_THROW(j2.append(d), std::runtime_error);
  LabelStore::rechain(d, j2.chain());
  j2.append(d);
  EXPECT_TRUE(arena_equal(j2.labels(), r.labels()));
}

TEST_F(DeltaJournalTest, MissingJournalIsRecreated) {
  IncrementalRelabeler r(tree::random_tree(25, 8));
  DeltaJournal j = DeltaJournal::create(base_path_, r.to_loaded());
  j.append(grow(r, 3));
  j.checkpoint();
  util::remove_file(DeltaJournal::journal_path(base_path_));
  DeltaJournal j2 = DeltaJournal::open(base_path_);
  EXPECT_TRUE(j2.recovery().journal_reset);
  EXPECT_TRUE(arena_equal(j2.labels(), j.labels()));
}

TEST_F(DeltaJournalTest, CorruptHeaderThrows) {
  IncrementalRelabeler r(tree::random_tree(25, 9));
  DeltaJournal j = DeltaJournal::create(base_path_, r.to_loaded());
  const std::string jpath = DeltaJournal::journal_path(base_path_);
  const std::string good = util::read_file(jpath);
  // A bit inside the atomically-written header, and a high byte of its
  // u64 sum, which holds a zero-extended CRC32C.
  for (const std::size_t at : {std::size_t{9}, std::size_t{31}}) {
    std::string bytes = good;
    bytes[at] ^= 0x40;
    util::atomic_write_file(jpath, bytes);
    EXPECT_THROW((void)DeltaJournal::open(base_path_), std::runtime_error)
        << "byte " << at;
  }
}

TEST_F(DeltaJournalTest, VersionOneJournalIsRefusedByNameAndLeftAlone) {
  IncrementalRelabeler r(tree::random_tree(25, 12));
  DeltaJournal j = DeltaJournal::create(base_path_, r.to_loaded());
  // A well-formed version-1 journal holding one record: the same header
  // and record frames, summed with FNV-1a instead of CRC32C.
  std::string v1;
  v1.append("TLJN", 4);
  util::put_le<std::uint32_t>(v1, 1);
  util::put_le(v1, j.chain());
  util::put_le(v1, LabelStore::lens_hash(j.labels()));
  util::put_le(v1, util::fnv1a(v1.data(), v1.size()));
  std::ostringstream ps(std::ios::binary);
  LabelStore::save_delta(ps, grow(r, 3));
  const std::string payload = ps.str();
  v1.append("TLRC", 4);
  util::put_le<std::uint32_t>(v1, 0);
  util::put_le<std::uint64_t>(v1, payload.size());
  util::put_le(v1, util::fnv1a(payload.data(), payload.size()));
  v1 += payload;
  const std::string jpath = DeltaJournal::journal_path(base_path_);
  util::atomic_write_file(jpath, v1);

  // Refused before any record is read: every version-1 record would fail
  // the CRC and be truncated away as a torn tail.
  try {
    (void)DeltaJournal::open(base_path_);
    FAIL() << "expected the version-1 journal to be refused";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("version 1"), std::string::npos) << what;
    EXPECT_NE(what.find("version 2"), std::string::npos) << what;
  }
  EXPECT_EQ(util::read_file(jpath), v1);
  // A follower planning a tail over the file gets no cursor, so it falls
  // back to a snapshot.
  EXPECT_FALSE(j.tail_from(j.chain()).has_value());
}

TEST_F(DeltaJournalTest, MissingBaseIsIoErrorWithPath) {
  try {
    (void)DeltaJournal::open(base_path_);
    FAIL() << "expected IoError";
  } catch (const util::IoError& e) {
    EXPECT_EQ(e.path(), base_path_);
    EXPECT_EQ(e.error_code(), ENOENT);
  }
}

TEST_F(DeltaJournalTest, ChainAndSchemeMismatchRefusedWithoutPoisoning) {
  IncrementalRelabeler r(tree::random_tree(25, 10));
  DeltaJournal j = DeltaJournal::create(base_path_, r.to_loaded());
  LabelDelta d = grow(r, 3);
  LabelDelta skipped = grow(r, 3);  // chains from d, not from the journal
  EXPECT_THROW(j.append(skipped), std::runtime_error);
  LabelDelta wrong_scheme = d;
  wrong_scheme.scheme = "not-a-scheme";
  EXPECT_THROW(j.append(wrong_scheme), std::invalid_argument);
  EXPECT_TRUE(j.healthy());  // integrity refusals never poison
  j.append(d);
  j.append(skipped);
  EXPECT_TRUE(arena_equal(j.labels(), r.labels()));
}

TEST_F(DeltaJournalTest, UnsyncedAppendsStillRecover) {
  IncrementalRelabeler r(tree::random_tree(30, 11));
  JournalOptions opt;
  opt.sync = false;
  opt.checkpoint_records = 1000;
  DeltaJournal j = DeltaJournal::create(base_path_, r.to_loaded(), opt);
  for (int b = 0; b < 4; ++b) j.append(grow(r, 3));
  DeltaJournal j2 = DeltaJournal::open(base_path_, opt);
  EXPECT_EQ(j2.recovery().records_replayed, 4u);
  EXPECT_TRUE(arena_equal(j2.labels(), r.labels()));
}

}  // namespace
}  // namespace treelab
