#include "obs/manifest.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "json_checker.hpp"
#include "obs/json.hpp"

namespace scal::obs {
namespace {

RunManifest sample_manifest() {
  RunManifest m;
  m.label = "unit \"quoted\" label \\ with escapes";
  m.started_at = "2026-08-05T10:00:00Z";
  m.git_version = "deadbeef-dirty";
  m.wall_seconds = 1.25;
  // The run blocks arrive pre-rendered (grid::fill_manifest in a real
  // run); the manifest emits them verbatim, in order, after "jobs".
  JsonObject config;
  config.field("rms", "LOWEST")
      .field("seed", std::uint64_t{424242})
      .field("nodes", std::uint64_t{250})
      .field("mean_interarrival", 0.3125);
  JsonObject result;
  result.field("F", 12345.6789).field("efficiency", 0.4012345678901234);
  JsonObject counters;
  counters.field("polls", std::uint64_t{321}).field("G_scheduler", 200.125);
  m.run_blocks = {{"config", config.str()},
                  {"result", result.str()},
                  {"counters", counters.str()}};
  m.anneal_iterations = 24;
  m.anneal_accepted = 10;
  m.anneal_best_objective = 199.0;
  return m;
}

TEST(RunManifest, ToJsonRoundTripsFieldsAndCounters) {
  const RunManifest m = sample_manifest();
  const testjson::Value root = testjson::parse(m.to_json());
  ASSERT_TRUE(root.is_object());

  EXPECT_EQ(root.at("label").string, m.label);
  EXPECT_EQ(root.at("git").string, "deadbeef-dirty");

  const auto& config = root.at("config");
  ASSERT_TRUE(config.is_object());
  EXPECT_EQ(config.at("rms").string, "LOWEST");
  EXPECT_EQ(config.at("seed").number, 424242.0);
  EXPECT_EQ(config.at("nodes").number, 250.0);
  EXPECT_EQ(config.at("mean_interarrival").number, 0.3125);

  const auto& result = root.at("result");
  ASSERT_TRUE(result.is_object());
  // json_number emits shortest-round-trip decimals, so parsing returns
  // the exact double.
  EXPECT_EQ(result.at("F").number, 12345.6789);
  EXPECT_EQ(result.at("efficiency").number, 0.4012345678901234);

  const auto& counters = root.at("counters");
  ASSERT_TRUE(counters.is_object());
  EXPECT_EQ(counters.at("polls").number, 321.0);
  EXPECT_EQ(counters.at("G_scheduler").number, 200.125);

  const auto& anneal = root.at("anneal");
  ASSERT_TRUE(anneal.is_object());
  EXPECT_EQ(anneal.at("iterations").number, 24.0);
  EXPECT_EQ(anneal.at("accepted").number, 10.0);
}

TEST(RunManifest, UnfilledManifestEmitsNoRunBlocks) {
  // A manifest no simulation filled (e.g. a tuner-only bench) carries
  // identity and obs blocks only: no zero-valued config/result/counters.
  RunManifest m;
  m.label = "tuner only";
  m.tuner_evaluations = 4;
  const testjson::Value root = testjson::parse(m.to_json());
  EXPECT_FALSE(root.has("config"));
  EXPECT_FALSE(root.has("result"));
  EXPECT_FALSE(root.has("counters"));
  EXPECT_EQ(root.at("tuner").at("evaluations").number, 4.0);
}

TEST(RunManifest, AppendJsonlWritesOneParsableLinePerRun) {
  const std::string path = ::testing::TempDir() + "manifest_test.jsonl";
  std::remove(path.c_str());

  RunManifest m = sample_manifest();
  ASSERT_TRUE(m.append_jsonl(path));
  m.label = "second run";
  ASSERT_TRUE(m.append_jsonl(path));

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) lines.push_back(line);
  }
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(testjson::parse(lines[0]).at("label").string,
            sample_manifest().label);
  EXPECT_EQ(testjson::parse(lines[1]).at("label").string, "second run");
}

TEST(RunManifest, GitDescribeAndTimestampAreAvailable) {
  EXPECT_FALSE(git_describe().empty());
  const std::string ts = utc_timestamp();
  // ISO-8601 Zulu: "YYYY-MM-DDTHH:MM:SSZ".
  ASSERT_EQ(ts.size(), 20u);
  EXPECT_EQ(ts[4], '-');
  EXPECT_EQ(ts[10], 'T');
  EXPECT_EQ(ts.back(), 'Z');
}

}  // namespace
}  // namespace scal::obs
