// bench/harness.hpp flag parsing: the shared flags apply, google-benchmark's
// flag family and caller-declared prefixes pass through, and — the regression
// this file pins — an unknown `--` flag is a hard error (exit 2), never a
// silent no-op. A typoed `--shard=4` once ran a serial bench that reported
// itself as sharded.
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench/harness.hpp"

namespace asp::bench {
namespace {

/// argv builder: keeps storage alive and hands out a mutable char** like
/// main() gets.
struct Argv {
  explicit Argv(std::vector<std::string> args) : strings(std::move(args)) {
    strings.insert(strings.begin(), "bench");
    for (std::string& s : strings) ptrs.push_back(s.data());
    ptrs.push_back(nullptr);
  }
  int argc() const { return static_cast<int>(strings.size()); }
  char** argv() { return ptrs.data(); }

  std::vector<std::string> strings;
  std::vector<char*> ptrs;
};

TEST(BenchHarness, AppliesSharedFlags) {
  Argv a({"--shards=16", "--seed=99", "--duration=2.5"});
  Options o = parse_options(a.argc(), a.argv());
  EXPECT_EQ(o.shards, 16);
  EXPECT_EQ(o.seed, 99u);
  EXPECT_DOUBLE_EQ(o.duration_s, 2.5);
}

TEST(BenchHarness, DefaultsSurviveWhenFlagAbsent) {
  Argv a({"--shards=4"});
  Options o = parse_options(a.argc(), a.argv(), {.shards = 8, .duration_s = 10.0});
  EXPECT_EQ(o.shards, 4);          // flag wins
  EXPECT_DOUBLE_EQ(o.duration_s, 10.0);  // default kept
}

TEST(BenchHarness, ClampsToSaneMinima) {
  Argv a({"--shards=0", "--duration=-3"});
  Options o = parse_options(a.argc(), a.argv());
  EXPECT_EQ(o.shards, 1);
  EXPECT_DOUBLE_EQ(o.duration_s, 0);
}

TEST(BenchHarness, BenchmarkFlagsAndPositionalsPassThrough) {
  Argv a({"--benchmark_filter=jit", "--v=2", "trace.dat", "--help"});
  Options o = parse_options(a.argc(), a.argv());  // must not exit
  EXPECT_EQ(o.shards, 1);
}

TEST(BenchHarness, ExtraPrefixesPassThrough) {
  Argv a({"--scenario=x.scn", "--smoke"});
  parse_options(a.argc(), a.argv(), {}, {"--scenario=", "--smoke"});
}

TEST(BenchHarnessDeath, RejectsUnknownFlag) {
  // The historical typo: singular --shard. Must die, not silently serialize.
  EXPECT_EXIT(
      {
        Argv a({"--shard=4"});
        parse_options(a.argc(), a.argv());
      },
      testing::ExitedWithCode(2), "unknown flag '--shard=4'");
}

TEST(BenchHarnessDeath, StripVariantAlsoRejects) {
  EXPECT_EXIT(
      {
        Argv a({"--benchmark_filter=x", "--bogus"});
        int argc = a.argc();
        parse_and_strip_options(argc, a.argv());
      },
      testing::ExitedWithCode(2), "unknown flag '--bogus'");
}

TEST(BenchHarnessDeath, ExtraPrefixOnlyCoversDeclaredDriver) {
  // --scenario= is only legal for drivers that declare it.
  EXPECT_EXIT(
      {
        Argv a({"--scenario=x.scn"});
        parse_options(a.argc(), a.argv());
      },
      testing::ExitedWithCode(2), "unknown flag");
}

TEST(BenchHarnessDeath, RejectionListsTheDriversOwnFlags) {
  // The error names every flag the driver accepts, its own included, from
  // both parsers.
  EXPECT_EXIT(
      {
        Argv a({"--bogus"});
        parse_options(a.argc(), a.argv(), {}, {"--scenario=", "--smoke"});
      },
      testing::ExitedWithCode(2), "known flags: .*--scenario= --smoke");
  EXPECT_EXIT(
      {
        Argv a({"--bogus"});
        int argc = a.argc();
        parse_and_strip_options(argc, a.argv(), {}, {"--scenario="});
      },
      testing::ExitedWithCode(2), "known flags: .*--scenario=");
}

TEST(BenchHarness, StripRemovesOursKeepsTheirs) {
  Argv a({"--shards=2", "--benchmark_filter=abc", "positional", "--seed=7"});
  int argc = a.argc();
  Options o = parse_and_strip_options(argc, a.argv());
  EXPECT_EQ(o.shards, 2);
  EXPECT_EQ(o.seed, 7u);
  ASSERT_EQ(argc, 3);
  EXPECT_STREQ(a.argv()[1], "--benchmark_filter=abc");
  EXPECT_STREQ(a.argv()[2], "positional");
  EXPECT_EQ(a.argv()[3], nullptr);
}

}  // namespace
}  // namespace asp::bench
