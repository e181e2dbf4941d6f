#include "rms/session.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "net/tree_cache.hpp"
#include "obs/telemetry.hpp"
#include "rms/scenario.hpp"
#include "util/log.hpp"
#include "workload/arrival_cache.hpp"
#include "workload/generator.hpp"
#include "workload/trace.hpp"
#include "support/draw_jobs.hpp"
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
  // Three runs, one site: the tuning-only changes keep the site key.
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
  // And the bigger site is itself reused from here on.
  grid::GridConfig bigger_tuned = bigger;
  bigger_tuned.tuning.link_delay_scale = 1.4;
  test::expect_same_result(session.run(bigger_tuned),
                           Scenario(bigger_tuned).run(), {test::kFromCache});
  EXPECT_EQ(session.rebuilds(), 2u);
}

TEST(SimulationSession, TreeSharingIsResultInvisible) {
  // Session sites opt into the shared router-tree cache; the results
  // must be bit-identical to the one-shot Scenario::run path, whose
  // private site does not share, and to a second session adopting the
  // first one's trees.
  net::SharedTreeCache::instance().clear();
  const grid::GridConfig config = small_config();

  SimulationSession first;
  const auto settled = first.run(config);
  // The sharing session really published trees for others to adopt.
  EXPECT_GT(net::SharedTreeCache::instance().publishes(), 0u);
  SimulationSession second;
  const auto adopted = second.run(config);
  EXPECT_GT(net::SharedTreeCache::instance().shares(), 0u);

  test::expect_same_result(settled, adopted, {test::kFromCache});
  test::expect_same_result(settled, Scenario(config).run(),
                           {test::kFromCache});
  net::SharedTreeCache::instance().clear();
}

TEST(SimulationSession, TelemetryKeepsSharingOff) {
  // Adopted trees would skew the profiler's net.route scope counts, so
  // an instrumented run gets a private site that never shares
  // (manifests stay byte-stable).
  net::SharedTreeCache::instance().clear();
  grid::GridConfig config = small_config();
  obs::Telemetry telemetry{{}};
  config.telemetry = &telemetry;

  SimulationSession session;
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
  const std::vector<workload::Job> jobs = test::first_jobs(gen, 200);
  EXPECT_LT(jobs.back().arrival, 295.0);
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
  // A malformed row throws out of an event.  The half-run system dies
  // with the call, so the next call builds a new system over the same
  // site and reports the trace error again; the site is never rebuilt.
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
    EXPECT_EQ(session.rebuilds(), 1u);
  }
  // And the session is still good for a valid config on the same site.
  test::expect_same_result(session.run(small_config()),
                           Scenario(small_config()).run(),
                           {test::kFromCache});
  EXPECT_EQ(session.rebuilds(), 1u);
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

// The paper's seven kinds plus HIER and RANDOM.
constexpr grid::RmsKind kEveryRmsKind[] = {
    grid::RmsKind::kCentral,          grid::RmsKind::kLowest,
    grid::RmsKind::kReserve,          grid::RmsKind::kAuction,
    grid::RmsKind::kSenderInitiated,  grid::RmsKind::kReceiverInitiated,
    grid::RmsKind::kSymmetric,        grid::RmsKind::kHierarchical,
    grid::RmsKind::kRandom,
};

TEST(SimulationSession, EveryKindOnOneTopologySharesOneSite) {
  SimulationSession session;
  for (const grid::RmsKind kind : kEveryRmsKind) {
    grid::GridConfig config = small_config();
    config.rms = kind;
    SCOPED_TRACE(grid::to_string(kind));
    test::expect_same_result(session.run(config), Scenario(config).run(),
                             {test::kFromCache});
  }
  EXPECT_EQ(session.rebuilds(), 1u);
}

// One session per cell of kind x faults x control plane x result mode
// runs a tuner-like sequence over one site; every run must equal a
// fresh Scenario build of its config.
using Cell = std::tuple<grid::RmsKind, bool, bool, bool>;

class SessionEquivalence : public ::testing::TestWithParam<Cell> {};

TEST_P(SessionEquivalence, EveryRunMatchesAFreshBuild) {
  const auto [kind, faults, control_plane, streaming] = GetParam();
  grid::GridConfig base = small_config();
  base.rms = kind;
  if (faults) {
    base.faults = fault::FaultPlan::parse(
        "churn:mtbf=150,mttr=20;net:drop=0.05,delayp=0.1,delaym=2");
  }
  base.control_plane = control_plane;
  base.tuning.agg_fanout = 2;
  base.tuning.agg_batch = 8;
  base.tuning.agg_flush = 6.0;
  if (streaming) base.result_mode = grid::ResultMode::kStreaming;

  grid::GridConfig retuned = base;
  retuned.tuning.update_interval = 35.0;
  retuned.tuning.neighborhood_size = 2;
  retuned.tuning.link_delay_scale = 1.5;
  retuned.tuning.agg_fanout = 4;
  retuned.tuning.agg_batch = 16;
  retuned.tuning.agg_flush = 2.5;
  grid::GridConfig rates = retuned;
  rates.service_rate *= 2.0;
  rates.workload.mean_interarrival /= 2.0;
  grid::GridConfig mixed = rates;
  mixed.heterogeneity = 0.4;

  // Both runs of a pair start from an empty arrival cache, so the
  // process-wide counts they report (store skips, provenance) agree.
  auto cold = [] { workload::ArrivalCache::instance().clear(); };
  SimulationSession session;
  int step = 0;
  for (const grid::GridConfig& config :
       {base, retuned, rates, mixed, base}) {
    SCOPED_TRACE("step " + std::to_string(step++));
    cold();
    const grid::SimulationResult fresh = Scenario(config).run();
    cold();
    test::expect_same_result(session.run(config), fresh);
  }
  EXPECT_EQ(session.rebuilds(), 1u);
  cold();
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, SessionEquivalence,
    ::testing::Combine(::testing::ValuesIn(kEveryRmsKind), ::testing::Bool(),
                       ::testing::Bool(), ::testing::Bool()),
    [](const ::testing::TestParamInfo<Cell>& info) {
      std::string name;
      for (const char c : grid::to_string(std::get<0>(info.param))) {
        name += std::isalnum(static_cast<unsigned char>(c)) ? c : '_';
      }
      name += std::get<1>(info.param) ? "_faults" : "_nofaults";
      name += std::get<2>(info.param) ? "_ctrl" : "_noctrl";
      name += std::get<3>(info.param) ? "_streaming" : "_full";
      return name;
    });

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
