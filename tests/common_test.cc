#include <gtest/gtest.h>

#include <set>
#include <thread>

#include "common/flags.h"
#include "common/hash.h"
#include "common/interning.h"
#include "common/mem_tracker.h"
#include "common/rng.h"
#include "common/table.h"
#include "common/timer.h"

namespace gstream {
namespace {

TEST(StringInterner, AssignsDenseIdsInOrder) {
  StringInterner interner;
  EXPECT_EQ(interner.Intern("alpha"), 0u);
  EXPECT_EQ(interner.Intern("beta"), 1u);
  EXPECT_EQ(interner.Intern("gamma"), 2u);
  EXPECT_EQ(interner.size(), 3u);
}

TEST(StringInterner, InternIsIdempotent) {
  StringInterner interner;
  uint32_t a = interner.Intern("x");
  EXPECT_EQ(interner.Intern("x"), a);
  EXPECT_EQ(interner.size(), 1u);
}

TEST(StringInterner, LookupRoundTrips) {
  StringInterner interner;
  uint32_t id = interner.Intern("knows");
  EXPECT_EQ(interner.Lookup(id), "knows");
}

TEST(StringInterner, FindDoesNotCreate) {
  StringInterner interner;
  EXPECT_EQ(interner.Find("missing"), StringInterner::kNotFound);
  EXPECT_EQ(interner.size(), 0u);
  interner.Intern("present");
  EXPECT_EQ(interner.Find("present"), 0u);
}

TEST(StringInterner, MemoryGrowsWithContent) {
  StringInterner interner;
  size_t empty = interner.MemoryBytes();
  for (int i = 0; i < 100; ++i) interner.Intern("entity_" + std::to_string(i));
  EXPECT_GT(interner.MemoryBytes(), empty);
}

TEST(Hash, Mix64SpreadsSequentialValues) {
  std::set<uint64_t> seen;
  for (uint64_t i = 0; i < 1000; ++i) seen.insert(Mix64(i));
  EXPECT_EQ(seen.size(), 1000u);
}

TEST(Hash, HashIdsDependsOnOrder) {
  uint32_t a[3] = {1, 2, 3};
  uint32_t b[3] = {3, 2, 1};
  EXPECT_NE(HashIds(a, 3), HashIds(b, 3));
}

TEST(Hash, HashIdsDependsOnLength) {
  uint32_t a[3] = {1, 2, 3};
  EXPECT_NE(HashIds(a, 2), HashIds(a, 3));
}

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(1000), b.Next(1000));
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int diff = 0;
  for (int i = 0; i < 64; ++i)
    if (a.Next(1u << 30) != b.Next(1u << 30)) ++diff;
  EXPECT_GT(diff, 32);
}

TEST(Rng, RangeIsInclusive) {
  Rng rng(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.Range(3, 5);
    ASSERT_GE(v, 3);
    ASSERT_LE(v, 5);
    saw_lo |= v == 3;
    saw_hi |= v == 5;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Zipf, SkewsTowardLowRanks) {
  Rng rng(11);
  ZipfSampler zipf(1000, 1.1);
  size_t low = 0, total = 20000;
  for (size_t i = 0; i < total; ++i)
    if (zipf.Sample(rng) < 10) ++low;
  // With s=1.1 the top-10 ranks should hold a large share of the mass.
  EXPECT_GT(low, total / 5);
}

TEST(Zipf, CoversSupport) {
  Rng rng(13);
  ZipfSampler zipf(4, 1.0);
  std::set<size_t> seen;
  for (int i = 0; i < 5000; ++i) seen.insert(zipf.Sample(rng));
  EXPECT_EQ(seen.size(), 4u);
}

TEST(WallTimer, MeasuresElapsedTime) {
  WallTimer timer;
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_GE(timer.ElapsedMillis(), 4.0);
}

TEST(MemTracker, AggregatesComponents) {
  MemTracker tracker;
  tracker.Add("views", 100);
  tracker.Add("index", 50);
  tracker.Add("views", 25);
  EXPECT_EQ(tracker.TotalBytes(), 175u);
  EXPECT_EQ(tracker.breakdown().at("views"), 125u);
}

TEST(Flags, ParsesKeyValueAndSwitches) {
  const char* argv[] = {"bin", "--edges=5000", "--full", "--name=snb", "pos1"};
  Flags flags = Flags::Parse(5, const_cast<char**>(argv));
  EXPECT_EQ(flags.GetIntAtLeast("edges", 0, 0), 5000);
  EXPECT_TRUE(flags.GetBool("full", false));
  EXPECT_EQ(flags.GetString("name", ""), "snb");
  EXPECT_FALSE(flags.Has("missing"));
  ASSERT_EQ(flags.positional().size(), 1u);
  EXPECT_EQ(flags.positional()[0], "pos1");
}

TEST(Flags, DefaultsWhenAbsent) {
  const char* argv[] = {"bin"};
  Flags flags = Flags::Parse(1, const_cast<char**>(argv));
  EXPECT_EQ(flags.GetIntAtLeast("n", 42, 0), 42);
  EXPECT_DOUBLE_EQ(flags.GetDouble("sigma", 0.25), 0.25);
  EXPECT_FALSE(flags.GetBool("full", false));
}

TEST(Flags, GetPositiveIntAcceptsValidValues) {
  const char* argv[] = {"bin", "--batch=16", "--threads=4"};
  Flags flags = Flags::Parse(3, const_cast<char**>(argv));
  EXPECT_EQ(flags.GetPositiveInt("batch", 1), 16);
  EXPECT_EQ(flags.GetPositiveInt("threads", 1), 4);
  EXPECT_EQ(flags.GetPositiveInt("absent", 7), 7);  // default is unchecked
}

TEST(FlagsDeathTest, GetPositiveIntRejectsZeroNegativeAndJunk) {
  const char* argv[] = {"bin", "--batch=0", "--threads=-3", "--seed=12x"};
  Flags flags = Flags::Parse(4, const_cast<char**>(argv));
  EXPECT_EXIT(flags.GetPositiveInt("batch", 1), ::testing::ExitedWithCode(2),
              "--batch must be >= 1");
  EXPECT_EXIT(flags.GetPositiveInt("threads", 1), ::testing::ExitedWithCode(2),
              "--threads must be >= 1");
  EXPECT_EXIT(flags.GetPositiveInt("seed", 1), ::testing::ExitedWithCode(2),
              "expected an integer");
}

TEST(FlagsDeathTest, GetIntAtLeastRejectsNegativeAndJunkSeeds) {
  // `--seed=-1` used to wrap to 2^64-1 and `--seed=abc` to parse as 0.
  const char* argv[] = {"bin", "--seed=-1", "--fault-seed=abc", "--zero=0"};
  Flags flags = Flags::Parse(4, const_cast<char**>(argv));
  EXPECT_EQ(flags.GetIntAtLeast("zero", 5, 0), 0);
  EXPECT_EXIT(flags.GetIntAtLeast("seed", 42, 0), ::testing::ExitedWithCode(2),
              "--seed must be >= 0");
  EXPECT_EXIT(flags.GetIntAtLeast("fault-seed", 1, 0),
              ::testing::ExitedWithCode(2), "expected an integer");
}

TEST(FlagsDeathTest, RejectsDuplicateFlags) {
  // A repeated flag used to let the last occurrence silently win; it is now
  // an error naming the offending flag.
  const char* argv[] = {"bin", "--batch=4", "--batch=8"};
  EXPECT_EXIT(Flags::Parse(3, const_cast<char**>(argv)),
              ::testing::ExitedWithCode(2), "--batch given more than once");
  const char* argv2[] = {"bin", "--verbose", "--verbose"};
  EXPECT_EXIT(Flags::Parse(3, const_cast<char**>(argv2)),
              ::testing::ExitedWithCode(2), "--verbose given more than once");
}

TEST(TextTable, AlignsColumnsAndMarksTimeouts) {
  TextTable table({"x", "alg"});
  table.AddRow({"10", TextTable::Num(1.5, 2)});
  table.AddRow({"20", TextTable::Num(std::nan(""), 2)});
  std::string s = table.ToString();
  EXPECT_NE(s.find("1.50"), std::string::npos);
  EXPECT_NE(s.find('*'), std::string::npos);
  std::string csv = table.ToCsv();
  EXPECT_NE(csv.find("10,1.50"), std::string::npos);
}

}  // namespace
}  // namespace gstream
