#include "core/scaling.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace scal::core {
namespace {

grid::GridConfig base_config() {
  grid::GridConfig config;
  config.topology.nodes = 200;
  config.cluster_size = 20;
  config.estimators_per_cluster = 1;
  config.service_rate = 8.0;
  config.tuning.neighborhood_size = 2;
  config.workload.mean_interarrival = 1.0;
  return config;
}

TEST(ScalingCase, FourCasesMatchPaperTables) {
  const auto c1 = ScalingCase::case1_network_size();
  EXPECT_EQ(c1.variable, ScalingVariableKind::kNetworkSize);
  EXPECT_EQ(c1.enablers, enabler_set({"update_interval", "neighborhood_size",
                                      "link_delay_scale"}));

  const auto c4 = ScalingCase::case4_neighborhood();
  EXPECT_EQ(c4.variable, ScalingVariableKind::kNeighborhood);
  // L_p is the variable, so the volunteering interval takes the
  // neighborhood size's place.
  EXPECT_EQ(c4.enablers, enabler_set({"update_interval", "link_delay_scale",
                                      "volunteer_interval"}));
}

TEST(ScalingCase, EnablerSetRejectsUnknownName) {
  EXPECT_THROW(enabler_set({"update_interval", "neighbourhood_size"}),
               std::invalid_argument);
}

TEST(ScalingCase, TableRowsIncludeWorkload) {
  for (const auto& scase :
       {ScalingCase::case1_network_size(), ScalingCase::case2_service_rate(),
        ScalingCase::case3_estimators(),
        ScalingCase::case4_neighborhood()}) {
    const auto rows = scase.scaling_variable_rows();
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_NE(rows[1].find("Workload"), std::string::npos);
    EXPECT_EQ(scase.enabler_rows().size(), 3u);
  }
}

TEST(ApplyScale, WorkloadAlwaysScalesWithK) {
  for (const auto& scase :
       {ScalingCase::case1_network_size(), ScalingCase::case2_service_rate(),
        ScalingCase::case3_estimators(),
        ScalingCase::case4_neighborhood()}) {
    const auto scaled = apply_scale(base_config(), scase, 4.0);
    EXPECT_DOUBLE_EQ(scaled.workload.mean_interarrival, 0.25);
  }
}

TEST(ApplyScale, Case1ScalesNodes) {
  const auto scaled =
      apply_scale(base_config(), ScalingCase::case1_network_size(), 3.0);
  EXPECT_EQ(scaled.topology.nodes, 600u);
  EXPECT_DOUBLE_EQ(scaled.service_rate, 8.0);  // untouched
}

TEST(ApplyScale, Case2ScalesServiceRate) {
  const auto scaled =
      apply_scale(base_config(), ScalingCase::case2_service_rate(), 2.5);
  EXPECT_DOUBLE_EQ(scaled.service_rate, 20.0);
  EXPECT_EQ(scaled.topology.nodes, 200u);
}

TEST(ApplyScale, Case3AddsEstimatorNodesKeepsRpFixed) {
  const grid::GridConfig base = base_config();  // 10 clusters
  const auto scaled =
      apply_scale(base, ScalingCase::case3_estimators(), 4.0);
  EXPECT_EQ(scaled.estimators_per_cluster, 4u);
  // 3 extra estimators per cluster, 10 clusters: 30 new RMS nodes.
  EXPECT_EQ(scaled.topology.nodes, 230u);
  EXPECT_EQ(scaled.cluster_size, 23u);
  // Resources per cluster unchanged: cluster_size - 1 - estimators.
  EXPECT_EQ(scaled.cluster_size - 1 - scaled.estimators_per_cluster,
            base.cluster_size - 1 - base.estimators_per_cluster);
}

TEST(ApplyScale, Case4ScalesNeighborhood) {
  const auto scaled =
      apply_scale(base_config(), ScalingCase::case4_neighborhood(), 6.0);
  EXPECT_EQ(scaled.tuning.neighborhood_size, 12u);
}

TEST(ApplyScale, KOneIsIdentityForStructure) {
  const grid::GridConfig base = base_config();
  for (const auto& scase :
       {ScalingCase::case1_network_size(), ScalingCase::case2_service_rate(),
        ScalingCase::case3_estimators(),
        ScalingCase::case4_neighborhood()}) {
    const auto scaled = apply_scale(base, scase, 1.0);
    EXPECT_EQ(scaled.topology.nodes, base.topology.nodes);
    EXPECT_DOUBLE_EQ(scaled.service_rate, base.service_rate);
    EXPECT_EQ(scaled.estimators_per_cluster, base.estimators_per_cluster);
    EXPECT_EQ(scaled.tuning.neighborhood_size,
              base.tuning.neighborhood_size);
  }
}

TEST(ApplyScale, RejectsSubUnityK) {
  EXPECT_THROW(
      apply_scale(base_config(), ScalingCase::case1_network_size(), 0.5),
      std::invalid_argument);
}

TEST(EnablerSpace, VariableSetMatchesCase) {
  const opt::Space s13 = enabler_space(ScalingCase::case1_network_size());
  EXPECT_EQ(s13.size(), 3u);
  EXPECT_NO_THROW(s13.index_of("update_interval"));
  EXPECT_NO_THROW(s13.index_of("neighborhood_size"));
  EXPECT_NO_THROW(s13.index_of("link_delay_scale"));

  const opt::Space s4 = enabler_space(ScalingCase::case4_neighborhood());
  EXPECT_EQ(s4.size(), 3u);
  EXPECT_NO_THROW(s4.index_of("volunteer_interval"));
  EXPECT_THROW(s4.index_of("neighborhood_size"), std::out_of_range);
}

TEST(EnablerSpace, PointTuningRoundTrip) {
  const ScalingCase scase = ScalingCase::case1_network_size();
  grid::Tuning tuning;
  tuning.update_interval = 33.0;
  tuning.neighborhood_size = 5;
  tuning.link_delay_scale = 0.8;
  tuning.volunteer_interval = 77.0;
  const opt::Point p = point_from_tuning(scase, tuning);
  const grid::Tuning back = tuning_from_point(scase, tuning, p);
  EXPECT_DOUBLE_EQ(back.update_interval, 33.0);
  EXPECT_EQ(back.neighborhood_size, 5u);
  EXPECT_DOUBLE_EQ(back.link_delay_scale, 0.8);
  EXPECT_DOUBLE_EQ(back.volunteer_interval, 77.0);  // untouched passthrough
}

TEST(EnablerSpace, TuningFromPointRejectsWrongDimension) {
  const ScalingCase scase = ScalingCase::case1_network_size();
  EXPECT_THROW(tuning_from_point(scase, grid::Tuning{}, {1.0}),
               std::invalid_argument);
}

TEST(EnablerSpace, WithAggregationAppendsKnobsLast) {
  const ScalingCase base = ScalingCase::case1_network_size();
  const ScalingCase agg = base.with_aggregation();
  const opt::Space sb = enabler_space(base);
  const opt::Space sa = enabler_space(agg);
  // Aggregation adds three dimensions after the paper's enablers, so
  // existing indices never shift.
  EXPECT_EQ(sa.size(), sb.size() + 3u);
  for (std::size_t i = 0; i < sb.size(); ++i) {
    EXPECT_EQ(sa.var(i).name, sb.var(i).name);
  }
  EXPECT_EQ(sa.index_of("agg_fanout"), sb.size());
  EXPECT_EQ(sa.index_of("agg_batch"), sb.size() + 1u);
  EXPECT_EQ(sa.index_of("agg_flush"), sb.size() + 2u);
  // The enabler table rows follow the same order.
  const auto rows = agg.enabler_rows();
  ASSERT_GE(rows.size(), 3u);
  EXPECT_EQ(rows[rows.size() - 3], "Aggregation tree fan-out");
  EXPECT_EQ(rows[rows.size() - 2], "Aggregation max batch size");
  EXPECT_EQ(rows[rows.size() - 1], "Aggregation flush interval");
}

/// One expected Space variable: name, integer?, lo, hi, log scale.
struct PinnedVar {
  const char* name;
  bool integer;
  double lo;
  double hi;
  bool log_scale;
};

struct PinnedCase {
  ScalingCase scase;
  std::vector<PinnedVar> space;
  std::vector<std::string> rows;
};

/// Every case's Space, variable by variable and in order (the order
/// fixes the annealer's per-coordinate draws), and its Tables 2-5 rows
/// in the paper's order, with and without the aggregation enablers.
std::vector<PinnedCase> pinned_cases() {
  const PinnedVar update{"update_interval", false, 1.0, 150.0, true};
  const PinnedVar hood{"neighborhood_size", true, 1.0, 8.0, false};
  const PinnedVar link{"link_delay_scale", false, 0.25, 1.6, false};
  const PinnedVar volunteer{"volunteer_interval", false, 10.0, 300.0, true};
  const PinnedVar fanout{"agg_fanout", true, 1.0, 8.0, false};
  const PinnedVar batch{"agg_batch", true, 1.0, 32.0, false};
  const PinnedVar flush{"agg_flush", false, 0.0, 12.0, false};
  const std::vector<PinnedVar> paper{update, hood, link};
  const std::vector<PinnedVar> paper_agg{update, hood,  link,
                                         fanout, batch, flush};
  const std::vector<PinnedVar> lp{update, link, volunteer};
  const std::vector<PinnedVar> lp_agg{update, link,  volunteer,
                                      fanout, batch, flush};
  const std::vector<std::string> rows{"Status update interval",
                                      "Neighborhood set size",
                                      "Network link delay"};
  const std::vector<std::string> lp_rows{
      "Status update interval", "Interval for resource volunteering",
      "Network link delay"};
  const std::vector<std::string> agg_rows{"Aggregation tree fan-out",
                                          "Aggregation max batch size",
                                          "Aggregation flush interval"};
  const auto with_agg = [&agg_rows](std::vector<std::string> r) {
    r.insert(r.end(), agg_rows.begin(), agg_rows.end());
    return r;
  };
  std::vector<PinnedCase> cases;
  for (const ScalingCase& scase :
       {ScalingCase::case1_network_size(), ScalingCase::case2_service_rate(),
        ScalingCase::case3_estimators()}) {
    cases.push_back({scase, paper, rows});
    cases.push_back({scase.with_aggregation(), paper_agg, with_agg(rows)});
  }
  const ScalingCase case4 = ScalingCase::case4_neighborhood();
  cases.push_back({case4, lp, lp_rows});
  cases.push_back({case4.with_aggregation(), lp_agg, with_agg(lp_rows)});
  return cases;
}

TEST(EnablerSpace, PinnedSpaceAndRowsPerCase) {
  const std::vector<PinnedCase> cases = pinned_cases();
  ASSERT_EQ(cases.size(), 8u);
  for (const PinnedCase& pin : cases) {
    SCOPED_TRACE(pin.scase.name);
    const opt::Space space = enabler_space(pin.scase);
    ASSERT_EQ(space.size(), pin.space.size());
    for (std::size_t i = 0; i < space.size(); ++i) {
      SCOPED_TRACE(pin.space[i].name);
      const opt::Variable& var = space.var(i);
      EXPECT_EQ(var.name, pin.space[i].name);
      EXPECT_EQ(var.kind, pin.space[i].integer ? opt::VarKind::kInteger
                                               : opt::VarKind::kContinuous);
      EXPECT_EQ(var.lo, pin.space[i].lo);
      EXPECT_EQ(var.hi, pin.space[i].hi);
      EXPECT_EQ(var.log_scale, pin.space[i].log_scale);
    }
    EXPECT_EQ(pin.scase.enabler_rows(), pin.rows);
  }
}

TEST(EnablerSpace, AggregationPointTuningRoundTrip) {
  const ScalingCase scase = ScalingCase::case2_service_rate().with_aggregation();
  grid::Tuning tuning;
  tuning.update_interval = 21.0;
  tuning.agg_fanout = 5;
  tuning.agg_batch = 12;
  tuning.agg_flush = 7.5;
  const opt::Point p = point_from_tuning(scase, tuning);
  EXPECT_EQ(p.size(), enabler_space(scase).size());
  const grid::Tuning back = tuning_from_point(scase, grid::Tuning{}, p);
  EXPECT_DOUBLE_EQ(back.update_interval, 21.0);
  EXPECT_EQ(back.agg_fanout, 5u);
  EXPECT_EQ(back.agg_batch, 12u);
  EXPECT_DOUBLE_EQ(back.agg_flush, 7.5);
}

}  // namespace
}  // namespace scal::core
