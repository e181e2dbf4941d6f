#include "core/experiment_config.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace scal::core {
namespace {

TEST(ExperimentConfig, DefaultsSurviveEmptyIni) {
  const ExperimentConfig config =
      experiment_from_ini(util::IniFile::parse(""));
  const grid::GridConfig defaults;
  EXPECT_EQ(config.grid.topology.nodes, defaults.topology.nodes);
  EXPECT_EQ(config.grid.rms, defaults.rms);
  EXPECT_DOUBLE_EQ(config.grid.service_rate, defaults.service_rate);
  EXPECT_TRUE(config.kinds.empty());
}

TEST(ExperimentConfig, ParsesFullFile) {
  const auto config = experiment_from_ini(util::IniFile::parse(
      "[grid]\n"
      "nodes = 300\n"
      "rms = Sy-I\n"
      "topology = transit-stub\n"
      "service_rate = 16\n"
      "[workload]\n"
      "mean_interarrival = 0.5\n"
      "diurnal_amplitude = 0.4\n"
      "diurnal_period = 200\n"
      "[tuning]\n"
      "neighborhood_size = 5\n"
      "[procedure]\n"
      "case = case3\n"
      "scale_factors = 1, 2, 4\n"
      "[tuner]\n"
      "e0 = 0.7\n"
      "evaluations = 9\n"
      "[experiment]\n"
      "rms_kinds = CENTRAL, LOWEST\n"
      "csv_path = /tmp/out.csv\n"));
  EXPECT_EQ(config.grid.topology.nodes, 300u);
  EXPECT_EQ(config.grid.rms, grid::RmsKind::kSymmetric);
  EXPECT_EQ(config.grid.topology.kind, net::TopologyKind::kTransitStub);
  EXPECT_DOUBLE_EQ(config.grid.service_rate, 16.0);
  EXPECT_DOUBLE_EQ(config.grid.workload.diurnal_amplitude, 0.4);
  EXPECT_EQ(config.grid.tuning.neighborhood_size, 5u);
  EXPECT_EQ(config.procedure.scase.variable,
            ScalingVariableKind::kEstimators);
  EXPECT_EQ(config.procedure.scale_factors, (std::vector<double>{1, 2, 4}));
  EXPECT_DOUBLE_EQ(config.procedure.tuner.e0, 0.7);
  EXPECT_EQ(config.procedure.tuner.evaluations, 9u);
  ASSERT_EQ(config.kinds.size(), 2u);
  EXPECT_EQ(config.kinds[0], grid::RmsKind::kCentral);
  EXPECT_EQ(config.kinds[1], grid::RmsKind::kLowest);
  EXPECT_EQ(config.csv_path, "/tmp/out.csv");
}

TEST(ExperimentConfig, RejectsUnknownKeys) {
  EXPECT_THROW(experiment_from_ini(util::IniFile::parse(
                   "[grid]\nnodez = 100\n")),
               std::runtime_error);
}

TEST(ExperimentConfig, RejectsUnknownCaseAndTopologyAndRms) {
  EXPECT_THROW(experiment_from_ini(
                   util::IniFile::parse("[procedure]\ncase = case9\n")),
               std::runtime_error);
  EXPECT_THROW(experiment_from_ini(
                   util::IniFile::parse("[grid]\ntopology = donut\n")),
               std::runtime_error);
  EXPECT_THROW(experiment_from_ini(
                   util::IniFile::parse("[grid]\nrms = BOGUS\n")),
               std::invalid_argument);
}

TEST(ExperimentConfig, RejectsBadScaleFactorCells) {
  // Each cell is parsed whole and must be a finite factor >= 1; the
  // error names the key and the offending cell.
  for (const std::string cell : {"1.5abc", "x", "", "nan", "inf", "0.5"}) {
    try {
      experiment_from_ini(util::IniFile::parse(
          "[procedure]\nscale_factors = 1, " + cell + ", 4\n"));
      ADD_FAILURE() << "accepted cell '" << cell << "'";
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("procedure.scale_factors"), std::string::npos)
          << what;
      EXPECT_NE(what.find("'" + cell + "'"), std::string::npos) << what;
    }
  }
}

TEST(ExperimentConfig, RejectsCountsThatWouldWrap) {
  // Each count key must be >= 0 and fit its field; the error names the
  // key.  (tuner.evaluations = -1 used to become 2^64 - 1, and
  // tuning.neighborhood_size = 4294967297 used to become 1.)
  const std::pair<const char*, const char*> cases[] = {
      {"grid.nodes", "-1"},
      {"grid.cluster_size", "-20"},
      {"grid.estimators_per_cluster", "-1"},
      {"grid.job_log_capacity", "-9223372036854775808"},
      {"tuning.neighborhood_size", "4294967297"},
      {"tuning.neighborhood_size", "-3"},
      {"procedure.warm_evaluations", "-2"},
      {"tuner.evaluations", "-1"},
      {"tuner.restarts", "-1"},
  };
  for (const auto& [key, value] : cases) {
    const std::string name(key);
    const std::string dot = name.substr(0, name.find('.'));
    const std::string ini = "[" + dot + "]\n" +
                            name.substr(name.find('.') + 1) + " = " + value +
                            "\n";
    try {
      experiment_from_ini(util::IniFile::parse(ini));
      ADD_FAILURE() << "accepted " << key << " = " << value;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(key), std::string::npos)
          << e.what();
    }
  }
  // The largest value that fits is accepted.
  const auto config = experiment_from_ini(
      util::IniFile::parse("[tuning]\nneighborhood_size = 4294967295\n"));
  EXPECT_EQ(config.grid.tuning.neighborhood_size, 4294967295u);
}

TEST(ExperimentConfig, CaseAliases) {
  for (const auto& [name, kind] :
       std::vector<std::pair<std::string, ScalingVariableKind>>{
           {"network_size", ScalingVariableKind::kNetworkSize},
           {"service_rate", ScalingVariableKind::kServiceRate},
           {"estimators", ScalingVariableKind::kEstimators},
           {"neighborhood", ScalingVariableKind::kNeighborhood},
           {"lp", ScalingVariableKind::kNeighborhood}}) {
    const auto config = experiment_from_ini(
        util::IniFile::parse("[procedure]\ncase = " + name + "\n"));
    EXPECT_EQ(config.procedure.scase.variable, kind) << name;
  }
}

TEST(ExperimentConfig, RoundTripsThroughIni) {
  ExperimentConfig original;
  original.grid.topology.nodes = 777;
  original.grid.rms = grid::RmsKind::kAuction;
  original.grid.workload.mean_interarrival = 0.123;
  original.procedure.scase = ScalingCase::case4_neighborhood();
  original.procedure.scale_factors = {1, 3, 5};
  original.procedure.tuner.band = 0.07;
  original.kinds = {grid::RmsKind::kHierarchical, grid::RmsKind::kRandom};
  original.csv_path = "/tmp/x.csv";

  const auto reparsed = experiment_from_ini(experiment_to_ini(original));
  EXPECT_EQ(reparsed.grid.topology.nodes, 777u);
  EXPECT_EQ(reparsed.grid.rms, grid::RmsKind::kAuction);
  EXPECT_DOUBLE_EQ(reparsed.grid.workload.mean_interarrival, 0.123);
  EXPECT_EQ(reparsed.procedure.scase.variable,
            ScalingVariableKind::kNeighborhood);
  EXPECT_EQ(reparsed.procedure.scale_factors,
            (std::vector<double>{1, 3, 5}));
  EXPECT_DOUBLE_EQ(reparsed.procedure.tuner.band, 0.07);
  EXPECT_EQ(reparsed.kinds, original.kinds);
  EXPECT_EQ(reparsed.csv_path, "/tmp/x.csv");
}

TEST(ExperimentConfig, TuningKeysAreThePaperEnablers) {
  // Every paper enabler round-trips under tuning.<name>; the INI has no
  // grid.control_plane key, so it writes and accepts no aggregation key.
  ExperimentConfig original;
  original.grid.tuning.update_interval = 33.5;
  original.grid.tuning.neighborhood_size = 6;
  original.grid.tuning.link_delay_scale = 0.75;
  original.grid.tuning.volunteer_interval = 90.0;
  const util::IniFile ini = experiment_to_ini(original);
  std::vector<std::string> tuning_keys;
  for (const auto& [key, value] : ini.values()) {
    if (key.rfind("tuning.", 0) == 0) tuning_keys.push_back(key);
  }
  EXPECT_EQ(tuning_keys,
            (std::vector<std::string>{
                "tuning.link_delay_scale", "tuning.neighborhood_size",
                "tuning.update_interval", "tuning.volunteer_interval"}));
  const grid::Tuning back = experiment_from_ini(ini).grid.tuning;
  EXPECT_EQ(back.update_interval, 33.5);
  EXPECT_EQ(back.neighborhood_size, 6u);
  EXPECT_EQ(back.link_delay_scale, 0.75);
  EXPECT_EQ(back.volunteer_interval, 90.0);
  EXPECT_THROW(experiment_from_ini(
                   util::IniFile::parse("[tuning]\nagg_batch = 4\n")),
               std::runtime_error);
}

TEST(ExperimentConfig, TracePathKeyIsTheTraceSource) {
  const auto config = experiment_from_ini(
      util::IniFile::parse("[grid]\ntrace_path = runs/jobs.csv\n"));
  EXPECT_EQ(config.grid.workload_source.kind, workload::SourceKind::kTrace);
  EXPECT_EQ(config.grid.workload_source.path, "runs/jobs.csv");
  EXPECT_TRUE(config.grid.workload_source.modulators.empty());

  // A plain trace source writes the key back and reads it again.
  const util::IniFile ini = experiment_to_ini(config);
  EXPECT_EQ(ini.get("grid.trace_path").value_or(""), "runs/jobs.csv");
  const auto reparsed = experiment_from_ini(ini);
  EXPECT_EQ(reparsed.grid.workload_source.kind, workload::SourceKind::kTrace);
  EXPECT_EQ(reparsed.grid.workload_source.path, "runs/jobs.csv");

  // The synthetic default writes no trace key.
  EXPECT_FALSE(experiment_to_ini(ExperimentConfig{})
                   .get("grid.trace_path")
                   .has_value());
}

TEST(ExperimentConfig, SampleConfigsInRepoParse) {
  // The shipped example configs must stay loadable.
  for (const char* path : {"examples/configs/small_case1.ini",
                           "examples/configs/hotspot_case4.ini"}) {
    const std::string full = std::string(SCAL_SOURCE_DIR) + "/" + path;
    EXPECT_NO_THROW({
      const auto config = load_experiment(full);
      config.grid.validate();
    }) << path;
  }
}

}  // namespace
}  // namespace scal::core
