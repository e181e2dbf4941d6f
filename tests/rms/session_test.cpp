#include "rms/session.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/tree_cache.hpp"
#include "obs/telemetry.hpp"
#include "rms/scenario.hpp"
#include "util/log.hpp"
#include "workload/generator.hpp"
#include "workload/trace.hpp"
#include "support/result_equal.hpp"

namespace scal::rms {
namespace {

grid::GridConfig small_config() {
  grid::GridConfig config;
  config.rms = grid::RmsKind::kLowest;
  config.topology.nodes = 80;
  config.cluster_size = 20;
  config.horizon = 300.0;
  config.workload.mean_interarrival = 1.0;
  config.seed = 42;
  return config;
}

TEST(SimulationSession, ReusesSystemAcrossTuningChanges) {
  grid::GridConfig base = small_config();
  grid::GridConfig retuned = base;
  retuned.tuning.update_interval = 35.0;
  retuned.tuning.neighborhood_size = 2;

  SimulationSession session;
  test::expect_same_result(session.run(base), Scenario(base).run(),
                           {test::kFromCache});
  test::expect_same_result(session.run(retuned), Scenario(retuned).run(),
                           {test::kFromCache});
  test::expect_same_result(session.run(base), Scenario(base).run(),
                           {test::kFromCache});
  // Three runs, one construction: the tuning-only changes were resets.
  EXPECT_EQ(session.rebuilds(), 1u);
}

TEST(SimulationSession, RebuildsOnStructuralChange) {
  grid::GridConfig base = small_config();
  grid::GridConfig bigger = base;
  bigger.topology.nodes = 100;

  SimulationSession session;
  session.run(base);
  test::expect_same_result(session.run(bigger), Scenario(bigger).run(),
                           {test::kFromCache});
  EXPECT_EQ(session.rebuilds(), 2u);
  // And the bigger system is itself reusable from here on.
  grid::GridConfig bigger_tuned = bigger;
  bigger_tuned.tuning.link_delay_scale = 1.4;
  test::expect_same_result(session.run(bigger_tuned),
                           Scenario(bigger_tuned).run(), {test::kFromCache});
  EXPECT_EQ(session.rebuilds(), 2u);
}

TEST(SimulationSession, TreeSharingIsResultInvisible) {
  // Sessions opt their systems into the shared router-tree cache by
  // default; the results must be bit-identical to a sharing-off session
  // and to the one-shot Scenario::run path.
  net::SharedTreeCache::instance().clear();
  const grid::GridConfig config = small_config();

  SimulationSession sharing;
  ASSERT_TRUE(sharing.tree_sharing());
  const auto with = sharing.run(config);

  SimulationSession isolated;
  isolated.set_tree_sharing(false);
  const auto without = isolated.run(config);

  test::expect_same_result(with, without, {test::kFromCache});
  test::expect_same_result(with, Scenario(config).run(), {test::kFromCache});
  // The sharing session really published trees for others to adopt.
  EXPECT_GT(net::SharedTreeCache::instance().publishes(), 0u);
  net::SharedTreeCache::instance().clear();
}

TEST(SimulationSession, TelemetryKeepsSharingOff) {
  // Adopted trees would skew the profiler's net.route scope counts, so
  // an instrumented run must never share (manifests stay byte-stable).
  net::SharedTreeCache::instance().clear();
  grid::GridConfig config = small_config();
  obs::Telemetry telemetry{{}};
  config.telemetry = &telemetry;

  SimulationSession session;
  ASSERT_TRUE(session.tree_sharing());
  (void)session.run(config);
  EXPECT_EQ(net::SharedTreeCache::instance().publishes(), 0u);
  EXPECT_EQ(net::SharedTreeCache::instance().size(), 0u);
}

// small_config() replaying a 200-row trace in streaming mode, so rows
// are pulled mid-run; row 101's arrival cell is "x" (line 102).
grid::GridConfig bad_trace_config(const std::string& path) {
  workload::WorkloadConfig wl;
  wl.mean_interarrival = 1.0;
  wl.clusters = 4;
  workload::WorkloadGenerator gen(wl, util::RandomStream(42, "session"));
  const std::vector<workload::Job> jobs = gen.generate_until(295.0, 200);
  EXPECT_EQ(jobs.size(), 200u);
  std::stringstream text;
  workload::save_trace(jobs, text);
  std::vector<std::string> lines;
  for (std::string line; std::getline(text, line);) lines.push_back(line);
  const std::string& row = lines.at(101);
  const std::size_t from = row.find(',') + 1;
  lines[101] = row.substr(0, from) + "x" + row.substr(row.find(',', from));
  std::ofstream out(path);
  for (const std::string& line : lines) out << line << '\n';

  grid::GridConfig config = small_config();
  config.result_mode = grid::ResultMode::kStreaming;
  config.workload_source.kind = workload::SourceKind::kTrace;
  config.workload_source.path = path;
  return config;
}

TEST(SimulationSession, ThrowingRunForcesRebuild) {
  // A malformed row throws out of an event.  The session must drop that
  // half-run system: the next call rebuilds and reports the trace error
  // again, instead of failing to reset a kernel stuck "during run".
  const std::string path =
      ::testing::TempDir() + "/scal_session_bad_trace.csv";
  const grid::GridConfig config = bad_trace_config(path);

  SimulationSession session;
  for (std::size_t attempt = 1; attempt <= 2; ++attempt) {
    try {
      (void)session.run(config);
      ADD_FAILURE() << "run " << attempt << " should have thrown";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("line 102"), std::string::npos)
          << e.what();
    }
    EXPECT_EQ(session.rebuilds(), attempt);
  }
  // And the session is still good for a valid config.
  test::expect_same_result(session.run(small_config()),
                           Scenario(small_config()).run(),
                           {test::kFromCache});
  EXPECT_EQ(session.rebuilds(), 3u);
  std::remove(path.c_str());
}

TEST(SimulationSession, ThrowingInstrumentedRunDetachesLogClock) {
  // An instrumented run stamps log lines with its simulated clock.  When
  // it throws, the clock must be detached with it: the dropped system's
  // clock would otherwise be called by the next log line.
  const std::string path =
      ::testing::TempDir() + "/scal_session_bad_trace_telemetry.csv";
  grid::GridConfig config = bad_trace_config(path);
  obs::Telemetry telemetry{{}};
  config.telemetry = &telemetry;
  {
    SimulationSession session;
    EXPECT_THROW((void)session.run(config), std::runtime_error);
  }
  std::ostringstream captured;
  std::streambuf* old = std::clog.rdbuf(captured.rdbuf());
  SCAL_WARN("after the failed run");
  std::clog.rdbuf(old);
  EXPECT_NE(captured.str().find("after the failed run"), std::string::npos);
  EXPECT_EQ(captured.str().find("t="), std::string::npos) << captured.str();
  std::remove(path.c_str());
}

TEST(SessionPool, SlotsAreLazyAndStable) {
  SessionPool pool;
  EXPECT_EQ(pool.size(), 0u);
  SimulationSession& s2 = pool.slot(2);
  EXPECT_EQ(pool.size(), 3u);
  SimulationSession& s0 = pool.slot(0);
  // Growth must not move existing sessions (deque-backed stability).
  EXPECT_EQ(&pool.slot(2), &s2);
  EXPECT_EQ(&pool.slot(0), &s0);
  pool.slot(5);
  EXPECT_EQ(pool.size(), 6u);
  EXPECT_EQ(&pool.slot(2), &s2);
}

}  // namespace
}  // namespace scal::rms
