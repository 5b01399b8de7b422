// The fault-injection registry itself, plus the fs primitives it steers:
// arming semantics (skip/count/arg, env parsing, trip accounting) and the
// crash discipline of atomic_write_file/append_file — in particular that
// a torn write tears the *temp* file, never the atomic-write target.
#include "util/failpoint.hpp"

#include <gtest/gtest.h>

#include <cerrno>
#include <string>

#include "util/fs.hpp"
#include "util/io_error.hpp"

namespace treelab {
namespace {

using util::FailMode;
using util::FailpointAbort;
using util::IoError;
namespace failpoint = util::failpoint;

// Every test leaves the registry clean, whatever path it exits by.
class FailpointTest : public testing::Test {
 protected:
  void TearDown() override { failpoint::disarm_all(); }
};

TEST_F(FailpointTest, UnarmedSiteNeverFires) {
  EXPECT_FALSE(failpoint::check("never.armed").has_value());
}

TEST_F(FailpointTest, ArmFiresWithModeAndArg) {
  failpoint::arm("t.basic", FailMode::kShortRead, 0, -1, 42);
  const auto hit = failpoint::check("t.basic");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->mode, FailMode::kShortRead);
  EXPECT_EQ(hit->arg, 42u);
  failpoint::disarm("t.basic");
  EXPECT_FALSE(failpoint::check("t.basic").has_value());
}

TEST_F(FailpointTest, SkipAndCountProgress) {
  // skip=2, count=2: pass, pass, fire, fire, then exhausted forever.
  failpoint::arm("t.sc", FailMode::kError, 2, 2);
  EXPECT_FALSE(failpoint::check("t.sc").has_value());
  EXPECT_FALSE(failpoint::check("t.sc").has_value());
  EXPECT_TRUE(failpoint::check("t.sc").has_value());
  EXPECT_TRUE(failpoint::check("t.sc").has_value());
  EXPECT_FALSE(failpoint::check("t.sc").has_value());
  EXPECT_FALSE(failpoint::check("t.sc").has_value());
}

TEST_F(FailpointTest, TripsAccumulateAcrossRearm) {
  const std::uint64_t before = failpoint::trips("t.trips");
  failpoint::arm("t.trips", FailMode::kThrow, 0, 1);
  (void)failpoint::check("t.trips");
  failpoint::disarm("t.trips");
  failpoint::arm("t.trips", FailMode::kThrow, 0, 1);
  (void)failpoint::check("t.trips");
  EXPECT_EQ(failpoint::trips("t.trips"), before + 2);
}

TEST_F(FailpointTest, ParseSpecArmsClauses) {
  ASSERT_TRUE(failpoint::parse_spec("t.env1=torn-write:1:3:77,t.env2=error"));
  EXPECT_FALSE(failpoint::check("t.env1").has_value());  // skip 1
  const auto hit = failpoint::check("t.env1");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->mode, FailMode::kTornWrite);
  EXPECT_EQ(hit->arg, 77u);
  ASSERT_TRUE(failpoint::check("t.env2").has_value());
}

TEST_F(FailpointTest, ParseSpecRejectsGarbageClauses) {
  EXPECT_FALSE(failpoint::parse_spec("t.bad=no-such-mode"));
  EXPECT_FALSE(failpoint::check("t.bad").has_value());
  EXPECT_FALSE(failpoint::parse_spec("=error"));
  EXPECT_FALSE(failpoint::parse_spec("t.bad2=error:x"));
  // A good clause beside a bad one still arms.
  EXPECT_FALSE(failpoint::parse_spec("t.bad3=wat,t.good=throw"));
  EXPECT_TRUE(failpoint::check("t.good").has_value());
}

TEST_F(FailpointTest, ParseSpecNamesRejectedClausesOnStderr) {
  // parse_spec is the TREELAB_FAILPOINTS entry point: a typo'd clause arms
  // nothing, so it must be named on stderr instead of passing silently.
  testing::internal::CaptureStderr();
  EXPECT_FALSE(failpoint::parse_spec("t.typo=eror,t.fine=error"));
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("TREELAB_FAILPOINTS clause 't.typo=eror'"),
            std::string::npos)
      << err;
  EXPECT_EQ(err.find("t.fine"), std::string::npos) << err;
  testing::internal::CaptureStderr();
  EXPECT_TRUE(failpoint::parse_spec("t.fine=error"));
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
}

TEST_F(FailpointTest, RaiseMapsModesToExceptionTypes) {
  EXPECT_THROW(
      failpoint::raise({FailMode::kError, 0}, "t.r", "some/file"),
      IoError);
  EXPECT_THROW(failpoint::raise({FailMode::kThrow, 0}, "t.r", "f"),
               std::runtime_error);
  EXPECT_THROW(failpoint::raise({FailMode::kAllocFail, 0}, "t.r", "f"),
               std::bad_alloc);
  EXPECT_THROW(failpoint::raise({FailMode::kTornWrite, 0}, "t.r", "f"),
               FailpointAbort);
}

TEST_F(FailpointTest, IoErrorCarriesPathAndErrno) {
  try {
    (void)util::read_file(testing::TempDir() + "treelab_no_such_file");
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    EXPECT_NE(e.path().find("treelab_no_such_file"), std::string::npos);
    EXPECT_EQ(e.error_code(), ENOENT);
    EXPECT_NE(std::string(e.what()).find(e.path()), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("errno"), std::string::npos);
  }
}

TEST_F(FailpointTest, ShortReadTruncatesReadFile) {
  const std::string path = testing::TempDir() + "treelab_fp_shortread.bin";
  util::atomic_write_file(path, "0123456789");
  failpoint::arm("fs.read", FailMode::kShortRead, 0, 1, 4);
  EXPECT_EQ(util::read_file(path), "0123");
  EXPECT_EQ(util::read_file(path), "0123456789");  // count exhausted
  util::remove_file(path);
}

TEST_F(FailpointTest, TornWriteTearsTempNotTarget) {
  const std::string path = testing::TempDir() + "treelab_fp_torn.bin";
  util::atomic_write_file(path, "OLD-CONTENT");
  // Tear the overwrite after 3 bytes: the simulated crash must leave the
  // target byte-identical — only the temp file may hold the torn prefix.
  failpoint::arm("fs.write", FailMode::kTornWrite, 0, 1, 3);
  EXPECT_THROW(util::atomic_write_file(path, "NEW-CONTENT"), FailpointAbort);
  EXPECT_EQ(util::read_file(path), "OLD-CONTENT");
  EXPECT_EQ(util::read_file(path + ".tmp"), "NEW");
  // And the write path works again once the failpoint is gone.
  util::atomic_write_file(path, "NEW-CONTENT");
  EXPECT_EQ(util::read_file(path), "NEW-CONTENT");
  util::remove_file(path);
  util::remove_file(path + ".tmp");
}

TEST_F(FailpointTest, ShortWriteReportsErrorAfterPrefix) {
  const std::string path = testing::TempDir() + "treelab_fp_shortw.bin";
  util::atomic_write_file(path, "");
  failpoint::arm("fs.write", FailMode::kShortWrite, 0, 1, 5);
  EXPECT_THROW(util::append_file(path, "0123456789", true), IoError);
  EXPECT_EQ(util::read_file(path), "01234");  // the prefix really landed
  util::remove_file(path);
}

TEST_F(FailpointTest, TornAppendLeavesPrefixForRecovery) {
  const std::string path = testing::TempDir() + "treelab_fp_tornapp.bin";
  util::atomic_write_file(path, "HDR|");
  failpoint::arm("fs.write", FailMode::kTornWrite, 0, 1, 2);
  EXPECT_THROW(util::append_file(path, "RECORD", true), FailpointAbort);
  EXPECT_EQ(util::read_file(path), "HDR|RE");
  util::truncate_file(path, 4);  // what journal recovery does
  EXPECT_EQ(util::read_file(path), "HDR|");
  util::remove_file(path);
}

TEST_F(FailpointTest, FsyncAndRenameFailpointsFire) {
  const std::string path = testing::TempDir() + "treelab_fp_fsync.bin";
  failpoint::arm("fs.fsync", FailMode::kError, 0, 1);
  EXPECT_THROW(util::atomic_write_file(path, "x"), IoError);
  failpoint::disarm_all();
  failpoint::arm("fs.rename", FailMode::kTornWrite, 0, 1);
  EXPECT_THROW(util::atomic_write_file(path, "x"), FailpointAbort);
  failpoint::disarm_all();
  util::atomic_write_file(path, "x");
  EXPECT_EQ(util::read_file(path), "x");
  util::remove_file(path);
  util::remove_file(path + ".tmp");
}

}  // namespace
}  // namespace treelab
