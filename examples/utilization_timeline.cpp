// Watch the grid breathe: run one simulation with the time-series probe
// and a pulsing (diurnal) workload, then chart pool utilization, the
// hottest cluster, and the scheduler backlog over time.
//
//   ./utilization_timeline [RMS] [amplitude] [probe.csv]
//
// The probe's CSV (cumulative F/G/H, windowed efficiency, utilizations,
// the state charted below) goes to the third argument, or to
// utilization_timeline.csv in the working directory.

#include <cstdlib>
#include <iostream>
#include <string>

#include "obs/telemetry.hpp"
#include "rms/scenario.hpp"
#include "util/ascii_chart.hpp"

int main(int argc, char** argv) {
  using namespace scal;

  grid::GridConfig config;
  config.rms = argc > 1 ? grid::rms_from_string(argv[1])
                        : grid::RmsKind::kLowest;
  config.topology.nodes = 200;
  config.horizon = 2000.0;
  config.workload.mean_interarrival = 0.55;
  config.workload.diurnal_amplitude =
      argc > 2 ? std::strtod(argv[2], nullptr) : 0.6;
  config.workload.diurnal_period = 600.0;

  obs::TelemetryConfig tc;
  tc.probe_path = argc > 3 ? argv[3] : std::string("utilization_timeline.csv");
  tc.probe_interval = 20.0;
  tc.label = "utilization_timeline";
  obs::Telemetry telemetry(tc);

  const grid::SimulationResult r =
      Scenario(config).telemetry(&telemetry).run();
  const auto& samples = telemetry.probe()->samples();

  util::Series busy{"pool busy", {}, {}};
  util::Series hottest{"hottest cluster", {}, {}};
  for (const obs::ProbeSample& s : samples) {
    busy.x.push_back(s.at);
    busy.y.push_back(s.pool_busy_fraction);
    hottest.x.push_back(s.at);
    hottest.y.push_back(s.hottest_cluster_busy);
  }
  util::AsciiChart chart(
      grid::to_string(config.rms) + " under a pulsing workload",
      "time", "busy fraction");
  chart.add_series(busy);
  chart.add_series(hottest);
  std::cout << chart.render() << "\n";

  util::Series backlog{"scheduler backlog", {}, {}};
  for (const obs::ProbeSample& s : samples) {
    backlog.x.push_back(s.at);
    backlog.y.push_back(static_cast<double>(s.scheduler_backlog));
  }
  util::AsciiChart chart2("RMS backlog over time", "time",
                          "queued work items");
  chart2.add_series(backlog);
  std::cout << chart2.render() << "\n";

  std::cout << "jobs " << r.jobs_succeeded << "/" << r.jobs_arrived
            << " within deadline; E = " << r.efficiency() << "\n";

  if (telemetry.export_all()) {
    std::cout << "probe series written to " << tc.probe_path << "\n";
  } else {
    std::cout << "telemetry export failed (see warnings above)\n";
  }
  return 0;
}
