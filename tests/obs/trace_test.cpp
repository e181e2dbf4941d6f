#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <map>
#include <sstream>

#include "json_checker.hpp"
#include "obs/telemetry.hpp"
#include "rms/scenario.hpp"

namespace scal::obs {
namespace {

TEST(TraceRecorder, DisabledRecorderRecordsNothing) {
  TraceRecorder trace;
  const TraceTid tid = trace.register_track("t");
  trace.begin(tid, "a", "cat", 1.0);
  trace.end(tid, 2.0);
  trace.instant(tid, "b", "cat", 3.0);
  trace.counter(tid, "c", 4.0, 5.0);
  trace.async_begin(tid, 7, "d", "cat", 5.0);
  trace.async_end(tid, 7, "cat", 6.0);
  EXPECT_EQ(trace.size(), 0u);
}

TEST(TraceRecorder, ScalesSimTimeToTraceMicroseconds) {
  TraceRecorder trace(1000.0);
  trace.set_enabled(true);
  const TraceTid tid = trace.register_track("t");
  trace.begin(tid, "serve", "server", 2.5);
  trace.end(tid, 3.0);
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_DOUBLE_EQ(trace.events()[0].ts, 2500.0);
  EXPECT_DOUBLE_EQ(trace.events()[1].ts, 3000.0);
}

TEST(TraceRecorder, WriteJsonIsValidAndCarriesTrackMetadata) {
  TraceRecorder trace;
  trace.set_enabled(true);
  const TraceTid a = trace.register_track("alpha");
  const TraceTid b = trace.register_track("beta \"quoted\"");
  trace.begin(a, "serve", "server", 1.0, {{"cost", 0.5}});
  trace.end(a, 2.0);
  trace.instant(b, "msg", "rms", 1.5);
  trace.counter(a, "depth", 1.0, 3.0);

  std::ostringstream os;
  trace.write_json(os);
  const testjson::Value root = testjson::parse(os.str());
  ASSERT_TRUE(root.is_object());
  ASSERT_TRUE(root.has("traceEvents"));
  const auto& events = root.at("traceEvents");
  ASSERT_TRUE(events.is_array());

  std::size_t thread_names = 0, spans = 0;
  for (const auto& ev : events.array) {
    ASSERT_TRUE(ev.is_object());
    const std::string ph = ev.at("ph").string;
    if (ph == "M" && ev.at("name").string == "thread_name") ++thread_names;
    if (ph == "B" || ph == "E") ++spans;
  }
  EXPECT_EQ(thread_names, 2u);
  EXPECT_EQ(spans, 2u);
}

grid::GridConfig traced_config() {
  grid::GridConfig config;
  config.rms = grid::RmsKind::kLowest;
  config.topology.nodes = 80;
  config.cluster_size = 20;
  config.horizon = 300.0;
  config.workload.mean_interarrival = 1.0;
  config.seed = 42;
  return config;
}

TEST(TraceExport, GridRunProducesBalancedSpansAndValidJson) {
  TelemetryConfig tc;
  tc.trace_path = ::testing::TempDir() + "trace_test.trace.json";
  Telemetry telemetry(tc);
  grid::GridConfig config = traced_config();
  config.telemetry = &telemetry;
  const grid::SimulationResult result = Scenario(config).run();
  ASSERT_GT(result.jobs_completed, 0u);
  ASSERT_GT(telemetry.trace().size(), 0u);

  // Duration spans: per track, every E follows a B and all pairs close.
  std::map<TraceTid, int> depth;
  // Async spans: per id, balanced b/e.
  std::map<std::uint64_t, int> async_depth;
  for (const TraceEvent& ev : telemetry.trace().events()) {
    switch (ev.phase) {
      case 'B': ++depth[ev.tid]; break;
      case 'E':
        --depth[ev.tid];
        ASSERT_GE(depth[ev.tid], 0) << "E without B on tid " << ev.tid;
        break;
      case 'b': ++async_depth[ev.async_id]; break;
      case 'e':
        --async_depth[ev.async_id];
        ASSERT_GE(async_depth[ev.async_id], 0)
            << "async e without b, id " << ev.async_id;
        break;
      default: break;
    }
  }
  for (const auto& [tid, d] : depth) {
    EXPECT_EQ(d, 0) << "unbalanced span on tid " << tid;
  }
  for (const auto& [id, d] : async_depth) {
    EXPECT_EQ(d, 0) << "unbalanced async span for job " << id;
  }

  // The full export parses as JSON.
  std::ostringstream os;
  telemetry.trace().write_json(os);
  EXPECT_NO_THROW(testjson::parse(os.str()));
}

TEST(TraceExport, MessageInstantsCarryProtocolNames) {
  TelemetryConfig tc;
  tc.trace_path = ::testing::TempDir() + "trace_msgs.trace.json";
  Telemetry telemetry(tc);
  grid::GridConfig config = traced_config();
  // LOWEST polls remote schedulers, so poll events must appear.
  config.workload.mean_interarrival = 0.4;
  config.telemetry = &telemetry;
  (void)Scenario(config).run();

  std::size_t instants = 0;
  for (const TraceEvent& ev : telemetry.trace().events()) {
    if (ev.phase == 'i' && ev.cat == "rms") ++instants;
  }
  EXPECT_GT(instants, 0u);
}

}  // namespace
}  // namespace scal::obs
