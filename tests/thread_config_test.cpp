// TREELAB_THREADS is operator input: the build side reads it on every
// construction, so rejecting nonsense (zero, garbage, overflow) and
// clamping ambition (more threads than cores) must be exact — a bad value
// silently becoming 0 workers or 2^31 std::threads would take the serving
// node down with it.
#include <gtest/gtest.h>

#include <sched.h>

#include <cstdlib>
#include <string>

#include "obs/metrics.hpp"
#include "serve/forest_index.hpp"
#include "util/parallel.hpp"

namespace {

using treelab::util::parse_thread_count;
using treelab::util::thread_count;

TEST(ThreadConfig, AcceptsWholeNumbersInRange) {
  EXPECT_EQ(parse_thread_count("1", 8), 1);
  EXPECT_EQ(parse_thread_count("4", 8), 4);
  EXPECT_EQ(parse_thread_count("8", 8), 8);
  EXPECT_EQ(parse_thread_count(" 3", 8), 3);  // strtol-style leading blanks
}

TEST(ThreadConfig, RejectsZeroAndNegatives) {
  EXPECT_EQ(parse_thread_count("0", 8), 8);
  EXPECT_EQ(parse_thread_count("-1", 8), 8);
  EXPECT_EQ(parse_thread_count("-999", 8), 8);
}

TEST(ThreadConfig, RejectsGarbage) {
  EXPECT_EQ(parse_thread_count("", 8), 8);
  EXPECT_EQ(parse_thread_count("abc", 8), 8);
  EXPECT_EQ(parse_thread_count("4x", 8), 8);
  EXPECT_EQ(parse_thread_count("4 2", 8), 8);
  EXPECT_EQ(parse_thread_count("1.5", 8), 8);
  EXPECT_EQ(parse_thread_count("0x10", 8), 8);
  EXPECT_EQ(parse_thread_count(nullptr, 8), 8);
}

TEST(ThreadConfig, RejectsOverflowAndClampsToHardware) {
  EXPECT_EQ(parse_thread_count("99999999999999999999999999", 8), 8);
  EXPECT_EQ(parse_thread_count("2147483648", 4), 4);  // > INT_MAX on LP32
  EXPECT_EQ(parse_thread_count("64", 8), 8);          // clamp, not reject
  EXPECT_EQ(parse_thread_count("9", 8), 8);
}

TEST(ThreadConfig, RejectionsAreCountedNotSilent) {
  // A typo'd TREELAB_THREADS must not masquerade as a deliberate setting:
  // every rejection bumps the counter (and the first one prints a stderr
  // warning — the counter is the machine-checkable side of that). Clamping
  // a too-ambitious-but-valid value is not a rejection.
  using treelab::util::thread_env_rejections;
  const std::uint64_t before = thread_env_rejections();
  EXPECT_EQ(parse_thread_count("4", 8), 4);
  EXPECT_EQ(parse_thread_count("64", 8), 8);  // clamp: valid, no rejection
  EXPECT_EQ(parse_thread_count(nullptr, 8), 8);  // unset: the default
  EXPECT_EQ(thread_env_rejections(), before);
  EXPECT_EQ(parse_thread_count("4x", 8), 8);
  EXPECT_EQ(thread_env_rejections(), before + 1);
  EXPECT_EQ(parse_thread_count("0", 8), 8);
  EXPECT_EQ(parse_thread_count("", 8), 8);
  EXPECT_EQ(parse_thread_count("99999999999999999999999999", 8), 8);
  EXPECT_EQ(thread_env_rejections(), before + 4);
  // And through the env-reading entry point too.
  setenv("TREELAB_THREADS", "not-a-number", 1);
  (void)thread_count();
  EXPECT_EQ(thread_env_rejections(), before + 5);
  unsetenv("TREELAB_THREADS");
}

TEST(ThreadConfig, RejectionCounterIsOnTheMetricsRegistry) {
  // The rejection counter's second consumer: the global obs registry
  // exposes it as `util.thread_env_rejections` (e.g. in a Stats RPC dump),
  // and the exposed value is the live counter, not a stale copy.
  using treelab::util::thread_env_rejections;
  (void)parse_thread_count("definitely-not-a-number", 8);
  bool found = false;
  for (const auto& s : treelab::obs::Registry::global().snapshot())
    if (s.name == "util.thread_env_rejections") {
      found = true;
      EXPECT_EQ(s.value, thread_env_rejections());
      EXPECT_GE(s.value, 1u);
    }
  EXPECT_TRUE(found);
}

TEST(ThreadConfig, ThreadCountHonorsTheEnvironment) {
  const int hw = treelab::util::usable_cpus();

  setenv("TREELAB_THREADS", "1", 1);
  EXPECT_EQ(thread_count(), 1);
  setenv("TREELAB_THREADS", "garbage", 1);
  EXPECT_EQ(thread_count(), hw);
  setenv("TREELAB_THREADS", "0", 1);
  EXPECT_EQ(thread_count(), hw);
  setenv("TREELAB_THREADS", std::to_string(hw + 100).c_str(), 1);
  EXPECT_EQ(thread_count(), hw);  // clamped
  unsetenv("TREELAB_THREADS");
  EXPECT_EQ(thread_count(), hw);
}

TEST(ThreadConfig, PinnedToOneCpuCountsOneCpu) {
  // hardware_concurrency() ignores sched_setaffinity and cpusets: a thread
  // pinned to one CPU must neither build nor fan a batch out on more, or
  // every extra thread only time-slices that one core.
  cpu_set_t saved, one;
  ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
  int cpu = 0;
  while (!CPU_ISSET(cpu, &saved)) ++cpu;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
  const int threads = thread_count();
  treelab::serve::ForestOptions opt;
  opt.shards = 4;
  opt.threads = 4;
  const int fanout = treelab::serve::ForestIndex(opt).planned_fanout(8192);
  ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);
  EXPECT_EQ(threads, 1);
  EXPECT_EQ(fanout, 1);
}

}  // namespace
