// Tests for src/common: timers, RNG, options parser, logging, alignment.

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/aligned.hpp"
#include "common/error.hpp"
#include "common/log.hpp"
#include "common/options.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"

namespace sptd {
namespace {

// ---------------------------------------------------------------- timers

TEST(WallTimer, StartsAtZero) {
  WallTimer t;
  EXPECT_EQ(t.seconds(), 0.0);
}

TEST(WallTimer, AccumulatesAcrossIntervals) {
  WallTimer t;
  t.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  t.stop();
  const double first = t.seconds();
  EXPECT_GT(first, 0.0);
  t.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  t.stop();
  EXPECT_GT(t.seconds(), first);
}

TEST(WallTimer, AddSecondsAccumulates) {
  WallTimer t;
  t.add_seconds(1.5);
  t.add_seconds(0.5);
  EXPECT_DOUBLE_EQ(t.seconds(), 2.0);
}

TEST(WallTimer, ResetClears) {
  WallTimer t;
  t.add_seconds(3.0);
  t.reset();
  EXPECT_EQ(t.seconds(), 0.0);
}

TEST(WallTimer, StopWithoutStartIsNoop) {
  WallTimer t;
  t.stop();
  EXPECT_EQ(t.seconds(), 0.0);
}

TEST(RoutineTimers, NamesMatchPaperColumns) {
  EXPECT_STREQ(routine_name(Routine::kMttkrp), "MTTKRP");
  EXPECT_STREQ(routine_name(Routine::kInverse), "INVERSE");
  EXPECT_STREQ(routine_name(Routine::kMatAtA), "MAT A^TA");
  EXPECT_STREQ(routine_name(Routine::kMatNorm), "MAT NORM");
  EXPECT_STREQ(routine_name(Routine::kFit), "CPD FIT");
  EXPECT_STREQ(routine_name(Routine::kSort), "SORT");
}

TEST(RoutineTimers, AccumulateSumsTables) {
  RoutineTimers a, b;
  a.add_seconds(Routine::kMttkrp, 2.0);
  b.add_seconds(Routine::kMttkrp, 3.0);
  b.add_seconds(Routine::kSort, 1.0);
  a.accumulate(b);
  EXPECT_DOUBLE_EQ(a.seconds(Routine::kMttkrp), 5.0);
  EXPECT_DOUBLE_EQ(a.seconds(Routine::kSort), 1.0);
}

TEST(RoutineTimers, ScaleDividesEveryRoutine) {
  RoutineTimers t;
  t.add_seconds(Routine::kMttkrp, 10.0);
  t.add_seconds(Routine::kFit, 4.0);
  t.scale(0.5);
  EXPECT_DOUBLE_EQ(t.seconds(Routine::kMttkrp), 5.0);
  EXPECT_DOUBLE_EQ(t.seconds(Routine::kFit), 2.0);
}

TEST(RoutineTimers, TotalIsSumOfRoutines) {
  RoutineTimers t;
  t.add_seconds(Routine::kMttkrp, 1.0);
  t.add_seconds(Routine::kInverse, 2.0);
  t.add_seconds(Routine::kSort, 3.0);
  EXPECT_DOUBLE_EQ(t.total_seconds(), 6.0);
}

TEST(RoutineTimers, ScopedTimerRecords) {
  RoutineTimers t;
  {
    ScopedRoutineTimer guard(t, Routine::kFit);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_GT(t.seconds(Routine::kFit), 0.0);
  EXPECT_EQ(t.seconds(Routine::kMttkrp), 0.0);
}

// ------------------------------------------------------------------- rng

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    const double v = r.next_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, DoubleRangeRespected) {
  Rng r(8);
  for (int i = 0; i < 1000; ++i) {
    const double v = r.next_double(-3.0, 5.0);
    EXPECT_GE(v, -3.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(Rng, NextBelowInRange) {
  Rng r(9);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(r.next_below(37), 37u);
  }
}

TEST(Rng, NextBelowCoversSmallRange) {
  Rng r(10);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    seen.insert(r.next_below(8));
  }
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, NextBelowApproximatelyUniform) {
  Rng r(11);
  constexpr int kBuckets = 16;
  constexpr int kDraws = 160000;
  std::vector<int> counts(kBuckets, 0);
  for (int i = 0; i < kDraws; ++i) {
    ++counts[r.next_below(kBuckets)];
  }
  const double expected = static_cast<double>(kDraws) / kBuckets;
  for (const int c : counts) {
    EXPECT_NEAR(c, expected, expected * 0.1);
  }
}

TEST(Rng, GaussianMomentsApproximatelyStandard) {
  Rng r(12);
  constexpr int kDraws = 100000;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < kDraws; ++i) {
    const double g = r.next_gaussian();
    sum += g;
    sum_sq += g * g;
  }
  EXPECT_NEAR(sum / kDraws, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / kDraws, 1.0, 0.03);
}

TEST(Rng, SplitStreamsAreIndependent) {
  Rng parent(99);
  Rng child = parent.split();
  // Child stream should not trivially replay the parent stream.
  Rng parent_copy(99);
  parent_copy.split();
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (child.next_u64() == parent.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(SplitMix64, KnownFirstOutputs) {
  // Reference values from the SplitMix64 reference implementation with
  // seed 0: first output is 0xe220a8397b1dcdaf.
  SplitMix64 sm(0);
  EXPECT_EQ(sm.next(), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(sm.next(), 0x6e789e6aa1b965f4ULL);
}

// --------------------------------------------------------------- options

TEST(Options, DefaultsApplyWhenAbsent) {
  Options o("prog", "test");
  o.add("rank", "35", "rank");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(o.parse(1, argv));
  EXPECT_EQ(o.get_int("rank"), 35);
  EXPECT_FALSE(o.given("rank"));
}

TEST(Options, SpaceSeparatedValue) {
  Options o("prog", "test");
  o.add("rank", "35", "rank");
  const char* argv[] = {"prog", "--rank", "17"};
  ASSERT_TRUE(o.parse(3, argv));
  EXPECT_EQ(o.get_int("rank"), 17);
  EXPECT_TRUE(o.given("rank"));
}

TEST(Options, EqualsSeparatedValue) {
  Options o("prog", "test");
  o.add("scale", "1.0", "scale");
  const char* argv[] = {"prog", "--scale=0.25"};
  ASSERT_TRUE(o.parse(2, argv));
  EXPECT_DOUBLE_EQ(o.get_double("scale"), 0.25);
}

TEST(Options, FlagDefaultsFalseAndSetsTrue) {
  Options o("prog", "test");
  o.add_flag("verbose", "verbosity");
  const char* argv0[] = {"prog"};
  Options o2 = o;
  ASSERT_TRUE(o2.parse(1, argv0));
  EXPECT_FALSE(o2.get_bool("verbose"));
  const char* argv1[] = {"prog", "--verbose"};
  ASSERT_TRUE(o.parse(2, argv1));
  EXPECT_TRUE(o.get_bool("verbose"));
}

TEST(Options, IntListParses) {
  Options o("prog", "test");
  o.add("threads", "1,2,4", "thread list");
  const char* argv[] = {"prog", "--threads", "1,2,4,8,16,32"};
  ASSERT_TRUE(o.parse(3, argv));
  EXPECT_EQ(o.get_int_list("threads"),
            (std::vector<int>{1, 2, 4, 8, 16, 32}));
  o.add("core", "8x4x2", "core extents");
  EXPECT_EQ(o.get_int_list("core", 'x'), (std::vector<int>{8, 4, 2}));
}

TEST(Options, IntListRefusesEmptyEntries) {
  // A leading, doubled or trailing separator leaves an empty entry; a
  // list that skipped it would run a smaller grid or core than was typed.
  Options o("prog", "test");
  o.add("core", "4xx4x4", "doubled");
  o.add("grid", "1,,1,1", "doubled");
  o.add("trail", "1,1,1,", "trailing");
  o.add("lead", ",1,1", "leading");
  o.add("lone", ",", "separator only");
  o.add("empty", "", "empty");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(o.parse(1, argv));
  for (const auto& [name, sep] :
       std::vector<std::pair<std::string, char>>{{"core", 'x'},
                                                 {"grid", ','},
                                                 {"trail", ','},
                                                 {"lead", ','},
                                                 {"lone", ','},
                                                 {"empty", ','}}) {
    try {
      (void)o.get_int_list(name, sep);
      ADD_FAILURE() << "--" << name << " accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("--" + name), std::string::npos)
          << e.what();
    }
  }
  o.add("one", "7", "single entry");
  EXPECT_EQ(o.get_int_list("one"), (std::vector<int>{7}));
}

TEST(Options, UnknownOptionThrows) {
  Options o("prog", "test");
  const char* argv[] = {"prog", "--bogus", "1"};
  EXPECT_THROW(o.parse(3, argv), Error);
}

TEST(Options, MissingValueThrows) {
  Options o("prog", "test");
  o.add("rank", "35", "rank");
  const char* argv[] = {"prog", "--rank"};
  EXPECT_THROW(o.parse(2, argv), Error);
}

TEST(Options, BadIntThrows) {
  Options o("prog", "test");
  o.add("rank", "35", "rank");
  const char* argv[] = {"prog", "--rank", "abc"};
  ASSERT_TRUE(o.parse(3, argv));
  EXPECT_THROW((void)o.get_int("rank"), Error);
}

TEST(Options, OutOfIntRangeThrowsInsteadOfWrapping) {
  // 4294967297 == 2^32 + 1 would narrow to 1.
  Options o("prog", "test");
  o.add("chunk", "4294967297", "chunk");
  o.add("grid", "4294967297,1", "grid");
  o.add("threads", "-1", "threads");
  o.add("core", "4294967298x2x2", "core extents");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(o.parse(1, argv));
  EXPECT_THROW((void)o.get_int_at_least("chunk", 1), Error);
  EXPECT_THROW((void)o.get_int_list("grid"), Error);
  EXPECT_THROW((void)o.get_int_list("core", 'x'), Error);
  EXPECT_THROW((void)o.get_int_at_least("threads", 0), Error);
  o.add("ok", "7", "in range");
  EXPECT_EQ(o.get_int_at_least("ok", 7), 7);
}

TEST(Options, FlagErrorsCarryOnlyTheMessage) {
  // A flag error is the user's to fix: its text names the flag and leaves
  // out the checked expression and source location a failed SPTD_CHECK
  // prints.
  Options o("prog", "test");
  o.add("chunk", "16", "chunk");
  o.add("dist-grid", "", "grid");
  const char* argv[] = {"prog", "--chunk", "0", "--dist-grid", "1,,1"};
  ASSERT_TRUE(o.parse(5, argv));
  const auto expect_plain = [](const std::function<void()>& bad,
                               const std::string& flag) {
    try {
      bad();
      ADD_FAILURE() << "--" << flag << " accepted";
    } catch (const Error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("--" + flag), std::string::npos) << what;
      EXPECT_EQ(what.find("check failed"), std::string::npos) << what;
    }
  };
  expect_plain([&] { (void)o.get_int_at_least("chunk", 1); }, "chunk");
  expect_plain([&] { (void)o.get_int_list("dist-grid"); }, "dist-grid");
  const char* unknown[] = {"prog", "--bogus", "1"};
  expect_plain([&] { (void)o.parse(3, unknown); }, "bogus");
}

TEST(Options, BadBoolThrows) {
  Options o("prog", "test");
  o.add("flaky", "maybe", "bad default");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(o.parse(1, argv));
  EXPECT_THROW((void)o.get_bool("flaky"), Error);
}

TEST(Options, PositionalArgumentsCollected) {
  Options o("prog", "test");
  o.add("rank", "35", "rank");
  const char* argv[] = {"prog", "file1.tns", "--rank", "5", "file2.tns"};
  ASSERT_TRUE(o.parse(5, argv));
  EXPECT_EQ(o.positional(),
            (std::vector<std::string>{"file1.tns", "file2.tns"}));
}

TEST(Options, DuplicateRegistrationThrows) {
  Options o("prog", "test");
  o.add("rank", "35", "rank");
  EXPECT_THROW(o.add("rank", "36", "again"), Error);
}

TEST(Options, HelpMentionsOptionsAndDefaults) {
  Options o("prog", "summary line");
  o.add("rank", "35", "decomposition rank");
  const std::string h = o.help();
  EXPECT_NE(h.find("--rank"), std::string::npos);
  EXPECT_NE(h.find("35"), std::string::npos);
  EXPECT_NE(h.find("summary line"), std::string::npos);
}

// ------------------------------------------------------------------ misc

TEST(Error, CheckMacroThrowsWithContext) {
  try {
    SPTD_CHECK(1 == 2, "custom context");
    FAIL() << "expected throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("custom context"), std::string::npos);
  }
}

TEST(Aligned, VectorBufferIsCacheLineAligned) {
  aligned_vector<double> v(100);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) % kCacheLineBytes,
            0u);
}

TEST(Aligned, CachePaddedElementsDoNotShareLines) {
  std::vector<CachePadded<int>> padded(4);
  const auto a = reinterpret_cast<std::uintptr_t>(&padded[0]);
  const auto b = reinterpret_cast<std::uintptr_t>(&padded[1]);
  EXPECT_GE(b - a, kCacheLineBytes);
}

TEST(Log, LevelFilterApplies) {
  set_log_level(LogLevel::kError);
  EXPECT_EQ(log_level(), LogLevel::kError);
  log_info("should be filtered (not asserted, just exercising the path)");
  set_log_level(LogLevel::kWarn);
  EXPECT_EQ(log_level(), LogLevel::kWarn);
}

}  // namespace
}  // namespace sptd
