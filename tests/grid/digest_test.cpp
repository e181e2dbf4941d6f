// Pins config_digest, workload_digest and net::graph_digest of two fixed
// configs to literal values.  Evaluation-cache files store config
// digests as keys, so a refactor of the mixers must leave every value
// here unchanged; a changed value is a format change, not a cleanup.

#include "grid/digest.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>

#include "net/topology.hpp"
#include "net/tree_cache.hpp"
#include "util/rng.hpp"

namespace scal::grid {
namespace {

std::string hex(const std::array<std::uint64_t, 2>& d) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%016llx:%016llx",
                static_cast<unsigned long long>(d[0]),
                static_cast<unsigned long long>(d[1]));
  return buf;
}

/// The paper's Case-1 base point, all defaults but size and seed.
GridConfig plain_config() {
  GridConfig config;
  config.topology.nodes = 80;
  config.seed = 42;
  return config;
}

/// A config that moves every digest section off its default: tuning,
/// rates, heterogeneity, control plane, faults, result mode, job log,
/// and a modulated source.
GridConfig busy_config() {
  GridConfig config;
  config.topology.nodes = 120;
  config.topology.kind = net::TopologyKind::kWaxman;
  config.cluster_size = 15;
  config.estimators_per_cluster = 2;
  config.service_rate = 3.5;
  config.heterogeneity = 0.4;
  config.rms = RmsKind::kAuction;
  config.control_plane = true;
  config.tuning.update_interval = 12.5;
  config.tuning.neighborhood_size = 4;
  config.tuning.link_delay_scale = 0.75;
  config.tuning.agg_fanout = 3;
  config.tuning.agg_batch = 6;
  config.tuning.agg_flush = 2.5;
  config.workload.mean_interarrival = 0.3;
  config.workload.origin_hotspot_weight = 0.25;
  config.workload_source.modulators =
      workload::parse_modulators("diurnal:amplitude=0.5,period=400");
  config.seed = 2718;
  config.horizon = 900.0;
  config.control_loss_probability = 0.01;
  config.faults = fault::FaultPlan::parse(
      "churn:mtbf=150,mttr=20;net:drop=0.05,delayp=0.1,delaym=2");
  config.job_log = true;
  config.result_mode = ResultMode::kStreaming;
  return config;
}

std::string topology_digest(const GridConfig& config) {
  util::RandomStream rng(config.seed, "topology");
  return hex(net::graph_digest(net::generate_topology(config.topology, rng)));
}

TEST(Digest, PlainConfigValuesArePinned) {
  const GridConfig config = plain_config();
  EXPECT_EQ(hex(config_digest(config)),
            "8c352411abda71a3:1448a05bc3136d39");
  EXPECT_EQ(hex(workload_digest(config)),
            "d2221bbc175e4405:6f327b9e9824cf9e");
  EXPECT_EQ(topology_digest(config),
            "3eba8cec5afbcb73:5da3bc407fcc8f1b");
}

TEST(Digest, BusyConfigValuesArePinned) {
  const GridConfig config = busy_config();
  EXPECT_EQ(hex(config_digest(config)),
            "216b7ed5c252f301:d6be8e0fcc1b2057");
  EXPECT_EQ(hex(workload_digest(config)),
            "0ccf81f523d31048:9d10643ba74b8df5");
  EXPECT_EQ(topology_digest(config),
            "f2857997224711e4:c1288a6aada794a2");
}

TEST(ConfigDigest, TrackedFieldsMoveTheDigest) {
  const GridConfig base = plain_config();
  const auto d0 = config_digest(base);

  GridConfig tuned = base;
  tuned.tuning.update_interval = 33.0;
  EXPECT_NE(config_digest(tuned), d0);

  GridConfig seeded = base;
  seeded.seed = 7;
  EXPECT_NE(config_digest(seeded), d0);

  GridConfig loaded = base;
  loaded.workload.mean_interarrival = 0.9;
  EXPECT_NE(config_digest(loaded), d0);

  GridConfig robust = base;
  robust.faults.robustness.retry_budget = 5;
  // Robustness knobs are hashed even while no fault class is enabled
  // (to_spec would omit them) so a digest match always means "same run".
  EXPECT_NE(config_digest(robust), d0);
}

TEST(SiteDigest, CoversExactlyTheSiteFields) {
  const GridConfig base = plain_config();
  const auto d0 = site_digest(base);

  // Everything a system decides on its own leaves the site key alone.
  GridConfig run = base;
  run.rms = RmsKind::kSymmetric;
  run.tuning.update_interval = 33.0;
  run.tuning.link_delay_scale = 0.5;
  run.service_rate = 2.0;
  run.heterogeneity = 0.4;
  run.workload.mean_interarrival = 0.9;
  run.control_plane = true;
  run.faults = fault::FaultPlan::parse("churn:mtbf=150,mttr=20");
  run.result_mode = ResultMode::kStreaming;
  run.horizon = 700.0;
  EXPECT_EQ(site_digest(run), d0);

  GridConfig seeded = base;
  seeded.seed = 7;
  EXPECT_NE(site_digest(seeded), d0);
  GridConfig bigger = base;
  bigger.topology.nodes = 100;
  EXPECT_NE(site_digest(bigger), d0);
  GridConfig slower = base;
  slower.topology.latency_max *= 2.0;
  EXPECT_NE(site_digest(slower), d0);
  GridConfig clustered = base;
  clustered.cluster_size = 16;
  EXPECT_NE(site_digest(clustered), d0);
  GridConfig estimated = base;
  estimated.estimators_per_cluster = 2;
  EXPECT_NE(site_digest(estimated), d0);
}

}  // namespace
}  // namespace scal::grid
