#include "grid/digest.hpp"

#include "util/mix128.hpp"

namespace scal::grid {

namespace {

using util::Mix128;

void mix_topology(Mix128& mix, const net::TopologyConfig& topo) {
  mix.word(static_cast<std::uint64_t>(topo.kind));
  mix.word(topo.nodes);
  mix.word(topo.pa_edges_per_node);
  mix.real(topo.waxman_alpha);
  mix.real(topo.waxman_beta);
  mix.word(topo.lattice_neighbors);
  mix.word(topo.ts_transit_domains);
  mix.word(topo.ts_transit_size);
  mix.word(topo.ts_stub_size);
  mix.real(topo.ts_backbone_speedup);
  mix.real(topo.latency_min);
  mix.real(topo.latency_max);
  mix.real(topo.bandwidth);
}

/// The workload model.  `clusters` is the word the generator sees:
/// config_digest hashes the field as written, workload_digest the
/// cluster_count() it resolves to at generation time.
void mix_workload_model(Mix128& mix, const workload::WorkloadConfig& w,
                        std::uint64_t clusters) {
  mix.real(w.mean_interarrival);
  mix.word(static_cast<std::uint64_t>(w.exec_model));
  mix.real(w.lognormal_mu);
  mix.real(w.lognormal_sigma);
  mix.real(w.pareto_alpha);
  mix.real(w.pareto_lo);
  mix.real(w.pareto_hi);
  mix.real(w.uniform_lo);
  mix.real(w.uniform_hi);
  mix.real(w.requested_factor_max);
  mix.real(w.t_cpu);
  mix.real(w.benefit_lo);
  mix.real(w.benefit_hi);
  mix.word(clusters);
  mix.real(w.diurnal_amplitude);
  mix.real(w.diurnal_period);
  mix.real(w.origin_hotspot_weight);
}

void mix_source(Mix128& mix, const workload::SourceSpec& src) {
  mix.word(static_cast<std::uint64_t>(src.kind));
  mix.text(src.path);
  mix.real(src.time_scale);
  mix.text(workload::modulators_to_spec(src.modulators));
}

}  // namespace

std::array<std::uint64_t, 2> config_digest(const GridConfig& config) {
  Mix128 mix;
  mix_topology(mix, config.topology);
  mix.word(config.cluster_size);
  mix.word(config.estimators_per_cluster);
  mix.real(config.service_rate);
  mix.real(config.heterogeneity);
  mix.word(static_cast<std::uint64_t>(config.rms));
  mix.word(config.control_plane ? 1u : 0u);

  for (const Enabler& e : kEnablers) {
    if (e.integer()) {
      mix.word(config.tuning.*e.count);
    } else {
      mix.real(config.tuning.*e.real);
    }
  }

  const CostModel& costs = config.costs;
  mix.real(costs.est_process_update);
  mix.real(costs.est_forward_batch);
  mix.real(costs.sched_batch_base);
  mix.real(costs.sched_per_update);
  mix.real(costs.sched_decision_base);
  mix.real(costs.sched_decision_per_candidate);
  mix.real(costs.sched_poll);
  mix.real(costs.sched_transfer);
  mix.real(costs.sched_advert);
  mix.real(costs.sched_bid);
  mix.real(costs.sched_idle_event);
  mix.real(costs.middleware_service);
  mix.real(costs.ctrl_process_update);
  mix.real(costs.ctrl_forward_batch);
  mix.real(costs.job_control);
  mix.real(costs.size_update);
  mix.real(costs.size_control);
  mix.real(costs.size_job);

  const ProtocolParams& protocol = config.protocol;
  mix.real(protocol.t_l);
  mix.real(protocol.delta);
  mix.real(protocol.psi);
  mix.real(protocol.auction_window);
  mix.real(protocol.advert_ttl_factor);
  mix.real(protocol.estimator_batch_window);
  mix.real(protocol.wait_queue_timeout);
  mix.real(protocol.reply_timeout);

  mix_workload_model(mix, config.workload, config.workload.clusters);

  mix.word(config.seed);
  mix.real(config.horizon);
  mix.real(config.control_loss_probability);

  // The spec string covers every enabled fault class; the robustness
  // params are hashed explicitly because to_spec() omits them when no
  // class is enabled (and they still matter the moment one is).
  mix.text(config.faults.to_spec());
  mix.real(config.faults.robustness.staleness_factor);
  mix.word(config.faults.robustness.retry_budget);
  mix.real(config.faults.robustness.retry_backoff_base);
  mix.word(config.faults.robustness.requeue_budget);

  mix.word(config.job_log ? 1u : 0u);
  mix.word(config.job_log_capacity);
  mix.word(static_cast<std::uint64_t>(config.result_mode));
  mix.word(config.update_suppression ? 1u : 0u);

  mix_source(mix, config.workload_source);

  return mix.finish();
}

std::array<std::uint64_t, 2> workload_digest(const GridConfig& config) {
  Mix128 mix;

  // Everything schedule_arrivals feeds into the source stack: the
  // workload model (clusters resolves to cluster_count() at generation
  // time, so hash that), the declared source, the seed the substreams
  // derive from, and the horizon that terminates the stream.
  mix_workload_model(mix, config.workload, config.cluster_count());
  mix_source(mix, config.workload_source);
  mix.word(config.seed);
  mix.real(config.horizon);
  return mix.finish();
}

std::array<std::uint64_t, 2> site_digest(const GridConfig& config) {
  Mix128 mix;
  mix_topology(mix, config.topology);
  mix.word(config.seed);
  mix.word(config.cluster_size);
  mix.word(config.estimators_per_cluster);
  return mix.finish();
}

}  // namespace scal::grid
