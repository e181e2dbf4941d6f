#include "exec/seed_sequence.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <set>
#include <stdexcept>
#include <string>

#include "exec/jobs.hpp"
#include "util/rng.hpp"

namespace scal::exec {
namespace {

TEST(SeedSequence, StatelessAndOrderIndependent) {
  const SeedSequence seq(12345);
  const std::uint64_t late_first = seq.at(7);
  const std::uint64_t early = seq.at(0);
  EXPECT_EQ(seq.at(7), late_first);  // query order doesn't matter
  EXPECT_EQ(seq.at(0), early);
  EXPECT_EQ(SeedSequence(12345).at(7), late_first);  // pure in (root, i)
}

TEST(SeedSequence, SubstreamsAreDistinct) {
  const SeedSequence seq(42);
  std::set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 1000; ++i) seen.insert(seq.at(i));
  EXPECT_EQ(seen.size(), 1000u);
}

TEST(SeedSequence, DifferentRootsDiverge) {
  EXPECT_NE(SeedSequence(1).at(0), SeedSequence(2).at(0));
}

TEST(SeedSequence, MatchesSplitmixStream) {
  // at(i) is defined as the splitmix64 output at position i + 1 of the
  // stream rooted at `root` — the same generator util::RandomStream
  // uses for seeding, which keeps the whole repo on one RNG family.
  const std::uint64_t root = 987654321;
  std::uint64_t state = root;
  const SeedSequence seq(root);
  for (std::uint64_t i = 0; i < 16; ++i) {
    EXPECT_EQ(seq.at(i), util::splitmix64(state)) << "index " << i;
  }
}

TEST(SeedSequence, ChildDerivesNestedStreams) {
  const SeedSequence seq(7);
  const SeedSequence child = seq.child(3);
  EXPECT_EQ(child.root(), seq.at(3));
  EXPECT_NE(child.at(0), seq.at(0));
  EXPECT_NE(child.at(0), seq.at(3));
}

TEST(Jobs, HardwareJobsIsAtLeastOne) {
  EXPECT_GE(hardware_jobs(), 1u);
}

TEST(Jobs, ParsesIntegersAndHwAlias) {
  EXPECT_EQ(parse_jobs("4", 0), 4u);
  EXPECT_EQ(parse_jobs("1", 0), 1u);
  EXPECT_EQ(parse_jobs("hw", 0), hardware_jobs());
  EXPECT_EQ(parse_jobs("auto", 0), hardware_jobs());
}

TEST(Jobs, RejectsGarbageViaFallback) {
  EXPECT_EQ(parse_jobs("", 9), 9u);
  EXPECT_EQ(parse_jobs("zero", 9), 9u);
  EXPECT_EQ(parse_jobs("0", 9), 9u);
  EXPECT_EQ(parse_jobs("-3", 9), 9u);
  EXPECT_EQ(parse_jobs("4x", 9), 9u);
}

TEST(Jobs, EnvJobsRejectsBadText) {
  const char* saved = std::getenv("SCAL_JOBS");
  const std::string restore = saved != nullptr ? saved : "";
  setenv("SCAL_JOBS", "3", 1);
  EXPECT_EQ(env_jobs(1), 3u);
  // Out of range is rejected like garbage, never saturated.
  EXPECT_EQ(parse_jobs("99999999999999999999", 9), 9u);
  for (const char* bad : {"abc", "0", "-2", "4x", "99999999999999999999"}) {
    setenv("SCAL_JOBS", bad, 1);
    EXPECT_THROW(env_jobs(1), std::invalid_argument) << bad;
  }
  setenv("SCAL_JOBS", "", 1);
  EXPECT_EQ(env_jobs(5), 5u);
  unsetenv("SCAL_JOBS");
  EXPECT_EQ(env_jobs(5), 5u);
  if (saved != nullptr) setenv("SCAL_JOBS", restore.c_str(), 1);
}

}  // namespace
}  // namespace scal::exec
