#include "grid/system.hpp"

#include <algorithm>
#include <stdexcept>

#include "grid/digest.hpp"
#include "grid/telemetry.hpp"
#include "util/log.hpp"
#include "workload/arrival_cache.hpp"
#include "workload/source.hpp"
#include "workload/trace.hpp"

namespace scal::grid {

GridSystem::GridSystem(GridConfig config, SchedulerFactory factory)
    : GridSystem(nullptr, std::move(config), std::move(factory)) {}

GridSystem::GridSystem(Site& site, GridConfig config, SchedulerFactory factory)
    : GridSystem(&site, std::move(config), std::move(factory)) {}

GridSystem::GridSystem(Site* site, GridConfig config, SchedulerFactory factory)
    : config_(std::move(config)),
      site_(site),
      metrics_(config_.result_mode) {
  config_.validate();
  metrics_.sink().log().set_enabled(config_.job_log);
  metrics_.sink().log().set_capacity(config_.job_log_capacity);
  if (!factory) {
    throw std::invalid_argument("GridSystem: null scheduler factory");
  }
  if (site_ == nullptr) {
    owned_site_ = std::make_unique<Site>(config_);
    site_ = owned_site_.get();
  } else if (site_->key() != site_digest(config_)) {
    throw std::invalid_argument(
        "GridSystem: the site was built for other topology, seed, "
        "cluster_size or estimators_per_cluster values");
  }
  const net::Graph& graph = site_->graph();
  const std::size_t clusters = cluster_count();

  network_ =
      std::make_unique<net::Network>(sim_, next_entity_id_++, site_->router());
  network_->set_delay_scale(config_.tuning.link_delay_scale);
  if (config_.control_loss_probability > 0.0) {
    network_->set_loss(config_.control_loss_probability,
                       util::RandomStream(config_.seed, "control-loss"));
  }

  middleware_ = std::make_unique<Middleware>(
      sim_, next_entity_id_++, config_.costs.middleware_service);

  // Schedulers: one per cluster, or a single central one placed on the
  // best-connected scheduler slot.
  schedulers_.resize(config_.rms == RmsKind::kCentral ? 1 : clusters);
  if (config_.rms == RmsKind::kCentral) {
    net::NodeId central_node = layout().clusters[0].scheduler_node;
    for (const auto& c : layout().clusters) {
      if (graph.degree(c.scheduler_node) > graph.degree(central_node)) {
        central_node = c.scheduler_node;
      }
    }
    schedulers_[0] = factory(*this, next_entity_id_++, 0, central_node);
    std::vector<ClusterId> all(clusters);
    for (std::size_t c = 0; c < clusters; ++c) {
      all[c] = static_cast<ClusterId>(c);
    }
    schedulers_[0]->init_tables(all);
  } else {
    for (std::size_t c = 0; c < clusters; ++c) {
      schedulers_[c] =
          factory(*this, next_entity_id_++, static_cast<ClusterId>(c),
                  layout().clusters[c].scheduler_node);
      schedulers_[c]->init_tables({static_cast<ClusterId>(c)});
    }
  }

  // Estimators forward batches to their cluster's scheduler.
  estimators_.resize(clusters);
  for (std::size_t c = 0; c < clusters; ++c) {
    const auto& cluster = layout().clusters[c];
    estimators_[c].reserve(cluster.estimator_nodes.size());
    for (const net::NodeId est_node : cluster.estimator_nodes) {
      auto forward = [this, c, est_node](StatusBatch batch) {
        SchedulerBase& sched = scheduler_for(static_cast<ClusterId>(c));
        const double size = config_.costs.size_update *
                            static_cast<double>(batch.updates.size());
        network_->send(est_node, sched.node(), size,
                       [&sched, batch = std::move(batch)]() mutable {
                         sched.deliver_batch(std::move(batch));
                       });
      };
      estimators_[c].push_back(std::make_unique<Estimator>(
          sim_, next_entity_id_++, static_cast<ClusterId>(c),
          static_cast<std::uint32_t>(estimators_[c].size()),
          config_.costs.est_process_update, config_.costs.est_forward_batch,
          config_.protocol.estimator_batch_window, std::move(forward)));
    }
  }

  // Per-resource service rates (heterogeneity extension; h = 0 keeps
  // the paper's homogeneous pool bit-for-bit).
  util::RandomStream rate_rng(config_.seed, "heterogeneity");
  auto resource_rate = [&]() {
    double mult = 1.0;
    if (config_.heterogeneity != 0.0) {
      mult = rate_rng.uniform(1.0 - config_.heterogeneity,
                              1.0 + config_.heterogeneity);
    }
    return config_.service_rate * mult;
  };

  // Resources report to every estimator of their cluster: the
  // estimators are replicated status services ("receive the status
  // updates from RP resources and distribute to the scheduling decision
  // makers"), so scaling the estimator count (Case 3) scales the status
  // traffic itself.
  resources_.resize(clusters);
  for (std::size_t c = 0; c < clusters; ++c) {
    const auto& cluster = layout().clusters[c];
    resources_[c].reserve(cluster.resource_nodes.size());
    for (std::size_t r = 0; r < cluster.resource_nodes.size(); ++r) {
      const net::NodeId res_node = cluster.resource_nodes[r];
      auto report = [this, res_node, c, r](const StatusUpdate& u) {
        if (ctrl_active_) {
          // Control plane: the update enters its own node's leaf
          // aggregator directly (same host, no network hop) and climbs
          // the tree from there, coalescing at every hop.
          for (std::size_t e = 0; e < estimators_[c].size(); ++e) {
            ControlTree& ct = ctrl_trees_[c][e];
            ct.aggs[ct.member_of_resource[r]]->ingest({u});
          }
          return;
        }
        const auto& nodes = layout().clusters[c].estimator_nodes;
        for (std::size_t e = 0; e < estimators_[c].size(); ++e) {
          Estimator* est = estimators_[c][e].get();
          // Status updates are periodic and idempotent: losing one only
          // delays freshness, so they ride the unreliable path.
          network_->send_unreliable(res_node, nodes[e],
                                    config_.costs.size_update,
                                    [est, u]() { est->receive_update(u); });
        }
      };
      resources_[c].push_back(std::make_unique<Resource>(
          sim_, next_entity_id_++, static_cast<ClusterId>(c),
          static_cast<ResourceIndex>(r), resource_rate(),
          config_.costs.job_control, metrics_, std::move(report)));
    }
  }

  // Aggregation forest (after resources so every pre-existing entity
  // keeps its id whether or not the control plane is on; aggregator
  // construction schedules no events, so a degenerately-tuned control
  // plane is invisible to the event stream).
  if (config_.control_plane) setup_control_plane();

  mean_service_time_ =
      workload::expected_exec_time(config_.workload) / config_.service_rate;

  if (config_.faults.any()) setup_faults();

  if (config_.telemetry != nullptr) setup_telemetry();
}

void GridSystem::setup_control_plane() {
  const std::size_t clusters = layout().clusters.size();
  ctrl_trees_.resize(clusters);
  for (std::size_t c = 0; c < clusters; ++c) {
    const auto& cluster = layout().clusters[c];
    ctrl_trees_[c].reserve(cluster.estimator_nodes.size());
    for (std::size_t e = 0; e < cluster.estimator_nodes.size(); ++e) {
      ControlTree ct;
      ct.tree = ctrl::build_tree(site_->router(), cluster.estimator_nodes[e],
                                 cluster.resource_nodes,
                                 config_.tuning.agg_fanout);
      // Map each resource to the member hosting its node (first-fit so
      // co-located resources, if a layout ever produced them, still get
      // distinct leaves).
      ct.member_of_resource.assign(cluster.resource_nodes.size(), 0);
      std::vector<bool> claimed(ct.tree.members.size(), false);
      for (std::size_t r = 0; r < cluster.resource_nodes.size(); ++r) {
        for (std::size_t m = 0; m < ct.tree.members.size(); ++m) {
          if (!claimed[m] && ct.tree.members[m] == cluster.resource_nodes[r]) {
            ct.member_of_resource[r] = static_cast<std::uint32_t>(m);
            claimed[m] = true;
            break;
          }
        }
      }
      ct.aggs.reserve(ct.tree.members.size());
      for (std::size_t m = 0; m < ct.tree.members.size(); ++m) {
        const ClusterId cid = static_cast<ClusterId>(c);
        const std::uint32_t member = static_cast<std::uint32_t>(m);
        auto forward = [this, cid, e, member](std::vector<StatusUpdate> ups) {
          forward_up(cid, e, member, std::move(ups));
        };
        ct.aggs.push_back(std::make_unique<ctrl::Aggregator>(
            sim_, next_entity_id_++, ct.tree.members[m],
            config_.costs.ctrl_process_update, config_.costs.ctrl_forward_batch,
            std::move(forward)));
        ct.aggs.back()->configure(config_.tuning.agg_batch,
                                  config_.tuning.agg_flush);
      }
      ctrl_trees_[c].push_back(std::move(ct));
    }
  }
  ctrl_active_ = !config_.tuning.aggregation_degenerate();
}

void GridSystem::forward_up(ClusterId cluster, std::size_t estimator,
                            std::uint32_t member,
                            std::vector<StatusUpdate> updates) {
  if (updates.empty()) return;
  ControlTree& ct = ctrl_trees_[cluster][estimator];
  const net::NodeId from = ct.tree.members[member];
  const double size =
      config_.costs.size_update * static_cast<double>(updates.size());
  const std::int32_t parent = ct.tree.parent[member];
  // Status traffic stays on the unreliable path through the tree, same
  // as the legacy point-to-point sends.
  if (parent == ctrl::kToRoot) {
    Estimator* est = estimators_[cluster][estimator].get();
    const net::NodeId est_node =
        layout().clusters[cluster].estimator_nodes[estimator];
    network_->send_unreliable(from, est_node, size,
                              [est, ups = std::move(updates)]() mutable {
                                est->receive_bundle(std::move(ups));
                              });
  } else {
    ctrl::Aggregator* up = ct.aggs[static_cast<std::size_t>(parent)].get();
    network_->send_unreliable(from, up->node(), size,
                              [up, ups = std::move(updates)]() mutable {
                                up->ingest(std::move(ups));
                              });
  }
}

void GridSystem::setup_faults() {
  const fault::FaultPlan& plan = config_.faults;

  // Flatten the entities so injector hooks address them by dense index;
  // flattening order (cluster-major) is part of the substream contract.
  std::vector<Resource*> res_flat;
  for (auto& cluster : resources_) {
    for (auto& res : cluster) res_flat.push_back(res.get());
  }
  std::vector<Estimator*> est_flat;
  for (auto& cluster : estimators_) {
    for (auto& est : cluster) est_flat.push_back(est.get());
  }
  std::vector<ctrl::Aggregator*> agg_flat;
  for (auto& cluster : ctrl_trees_) {
    for (auto& ct : cluster) {
      for (auto& agg : ct.aggs) agg_flat.push_back(agg.get());
    }
  }

  const exec::SeedSequence seeds = fault::fault_seeds(config_.seed);

  // Message faults ride their own reserved substream, so enabling churn
  // alone leaves the message path untouched (and vice versa).
  if (plan.messages.enabled()) {
    net::NetFaults nf;
    nf.drop = plan.messages.drop;
    nf.duplicate = plan.messages.duplicate;
    nf.delay_probability = plan.messages.delay_probability;
    nf.delay_mean = plan.messages.delay_mean;
    network_->set_faults(
        nf, util::RandomStream(seeds.at(
                fault::FaultInjector::net_stream_index(res_flat.size()))));
  }

  // Robustness mixin on every scheduler.  The staleness window tracks
  // the tuned update interval — the same enabler the paper's procedure
  // searches — so eviction adapts as the tuner moves tau.
  const double window =
      plan.robustness.staleness_factor * config_.tuning.update_interval;
  for (auto& sched : schedulers_) {
    sched->enable_robustness(window, plan.robustness.requeue_budget,
                             plan.robustness.retry_budget,
                             plan.robustness.retry_backoff_base);
  }

  // Crash-killed jobs travel back to the cluster's scheduler over a
  // reliable hop (they carry state) and re-enter as ordinary decisions:
  // the return traffic and the repeat decision work are charged to G(k).
  for (std::size_t c = 0; c < resources_.size(); ++c) {
    for (std::size_t r = 0; r < resources_[c].size(); ++r) {
      const net::NodeId res_node = layout().clusters[c].resource_nodes[r];
      resources_[c][r]->set_kill_handler(
          [this, c, res_node](std::vector<workload::Job> killed) {
            SchedulerBase& sched = scheduler_for(static_cast<ClusterId>(c));
            for (auto& job : killed) {
              network_->send(res_node, sched.node(), config_.costs.size_job,
                             [&sched, job = std::move(job)]() mutable {
                               sched.deliver_requeue(std::move(job));
                             });
            }
          });
    }
  }

  fault::FaultHooks hooks;
  if (plan.churn.enabled()) {
    hooks.crash_resource = [res_flat](std::size_t i) { res_flat[i]->crash(); };
    hooks.recover_resource = [res_flat](std::size_t i) {
      res_flat[i]->recover();
    };
  }
  if (plan.estimator_blackout.enabled()) {
    hooks.estimator_blackout = [est_flat](std::size_t e, bool down) {
      est_flat[e]->set_down(down);
    };
  }
  if (plan.scheduler_blackout.enabled()) {
    hooks.scheduler_blackout = [this](std::size_t s, bool down) {
      schedulers_[s]->set_blackout(down);
    };
  }
  if (plan.aggregator_blackout.enabled()) {
    hooks.aggregator_blackout = [agg_flat](std::size_t a, bool down) {
      agg_flat[a]->set_blackout(down);
    };
  }
  injector_ = std::make_unique<fault::FaultInjector>(
      sim_, next_entity_id_++, plan, seeds, res_flat.size(),
      est_flat.size(), schedulers_.size(), std::move(hooks),
      agg_flat.size());
}

void GridSystem::credit_report_ticks() {
  for (auto& cluster : resources_) {
    for (auto& res : cluster) res->credit_skipped_ticks(sim_.now());
  }
}

void GridSystem::setup_telemetry() {
  obs::Telemetry& telemetry = *config_.telemetry;
  const obs::TelemetryConfig& tc = telemetry.config();

  if (tc.metrics_enabled()) {
    // Phase registration order is fixed so counts_json() / to_json()
    // layouts are identical across runs and worker lanes.
    profiler_ = &telemetry.profiler();
    run_phase_ = profiler_->phase("sim.run");
    workload_phase_ = profiler_->phase("workload.generate");
    const obs::PhaseId decision = profiler_->phase("sched.decision");
    const obs::PhaseId batch = profiler_->phase("sched.batch");
    const obs::PhaseId est_update = profiler_->phase("est.update");
    const obs::PhaseId net_route = profiler_->phase("net.route");
    for (auto& sched : schedulers_) {
      sched->attach_profiler(profiler_, decision, batch);
    }
    for (auto& cluster : estimators_) {
      for (auto& est : cluster) est->attach_profiler(profiler_, est_update);
    }
    site_->router().attach_profiler(profiler_, net_route);

    // Distribution probes: registration order fixes the manifest layout.
    obs::HistogramRegistry& h = telemetry.histograms();
    metrics_.attach_probes(&h.histogram("job_wait"),
                           &h.histogram("job_response"),
                           &h.histogram("job_slowdown"),
                           &h.histogram("sched_queue_depth"),
                           &h.histogram("status_staleness"));
    if (config_.control_plane) {
      // Registered after the legacy five so control-plane-off manifests
      // keep their exact histogram layout.
      obs::Histogram* coalescing = &h.histogram("ctrl_coalescing");
      obs::Histogram* hop_delay = &h.histogram("ctrl_hop_delay");
      for (auto& cluster : ctrl_trees_) {
        for (auto& ct : cluster) {
          for (auto& agg : ct.aggs) agg->attach_probes(coalescing, hop_delay);
        }
      }
    }
  }

  // Probe / manifest need no construction-time wiring.
  if (!tc.trace_enabled()) return;
  trace_ = &telemetry.trace();

  if (tc.metrics_enabled()) {
    // Wall-clock profiler spans land on their own track; all other
    // tracks carry scaled sim time.
    profiler_->attach_trace(trace_,
                            trace_->register_track("profiler (wall us)"));
  }

  // Kernel counters are sampled every 256 fired events, not per event,
  // so instrumentation does not distort G(k) measurements.
  const obs::TraceTid kernel_tid = trace_->register_track("sim/kernel");
  sim_.set_dispatch_observer(
      256, [this, kernel_tid](sim::Time at, std::uint64_t dispatched,
                              std::size_t pending) {
        trace_->counter(kernel_tid, "events_dispatched", at,
                        static_cast<double>(dispatched));
        trace_->counter(kernel_tid, "pending_events", at,
                        static_cast<double>(pending));
      });

  for (auto& sched : schedulers_) {
    sched->attach_trace(trace_, trace_->register_track(sched->name()));
  }
  for (std::size_t c = 0; c < estimators_.size(); ++c) {
    for (std::size_t e = 0; e < estimators_[c].size(); ++e) {
      estimators_[c][e]->attach_trace(
          trace_, trace_->register_track("estimator/" + std::to_string(c) +
                                         "." + std::to_string(e)));
    }
  }
  middleware_->attach_trace(trace_, trace_->register_track("middleware"));
  msg_tid_ = trace_->register_track("rms/messages");
  // Job spans are reconstructed from the lifecycle log after the run.
  metrics_.sink().log().set_enabled(true);
  jobs_tid_ = trace_->register_track("jobs");
}

void GridSystem::probe_tick() {
  credit_report_ticks();
  obs::TimeSeriesProbe* probe = config_.telemetry->probe();
  obs::ProbeSample sample;
  sample.at = sim_.now();
  sample.F = metrics_.snapshot().F;
  sample.G = current_overhead_work();
  sample.H = metrics_.snapshot().H();
  fill_probe_state(sample);
  probe->add(sample);
  // The final row lands exactly at the horizon (appended from the
  // assembled result), so periodic ticks stop strictly before it.
  const double next = sim_.now() + probe->interval();
  if (next < config_.horizon) {
    sim_.schedule_at(next, [this]() { probe_tick(); });
  }
}

void GridSystem::fill_probe_state(obs::ProbeSample& sample) {
  std::size_t resources = 0, busy = 0;
  double load_sum = 0.0;
  for (const auto& cluster : resources_) {
    std::size_t cluster_busy = 0;
    for (const auto& res : cluster) {
      ++resources;
      if (res->busy()) ++cluster_busy;
      load_sum += res->load();
      sample.max_resource_load =
          std::max(sample.max_resource_load, res->load());
    }
    busy += cluster_busy;
    if (!cluster.empty()) {
      sample.hottest_cluster_busy =
          std::max(sample.hottest_cluster_busy,
                   static_cast<double>(cluster_busy) /
                       static_cast<double>(cluster.size()));
    }
  }
  if (resources > 0) {
    sample.pool_busy_fraction =
        static_cast<double>(busy) / static_cast<double>(resources);
    sample.mean_resource_load = load_sum / static_cast<double>(resources);
  }
  for (const auto& sched : schedulers_) {
    sample.scheduler_backlog += sched->queue_length();
  }
  sample.middleware_backlog = middleware_->queue_length();

  // Per-class utilization over the window since the previous sample:
  // busy-time delta divided by the window's capacity (window x servers).
  double sched_busy = 0.0, est_busy = 0.0;
  for (const auto& sched : schedulers_) sched_busy += sched->busy_time();
  std::size_t est_count = 0;
  for (const auto& cluster : estimators_) {
    for (const auto& est : cluster) {
      est_busy += est->busy_time();
      ++est_count;
    }
  }
  const double mw_busy = middleware_->busy_time();
  const double window = sample.at - probe_prev_time_;
  if (window > 0.0) {
    sample.scheduler_util = (sched_busy - probe_prev_sched_busy_) /
                            (window * static_cast<double>(schedulers_.size()));
    if (est_count > 0) {
      sample.estimator_util = (est_busy - probe_prev_est_busy_) /
                              (window * static_cast<double>(est_count));
    }
    sample.middleware_util = (mw_busy - probe_prev_mw_busy_) / window;
  }
  probe_prev_time_ = sample.at;
  probe_prev_sched_busy_ = sched_busy;
  probe_prev_est_busy_ = est_busy;
  probe_prev_mw_busy_ = mw_busy;

  sample.jobs_arrived = metrics_.snapshot().jobs_arrived;
  sample.jobs_completed = metrics_.snapshot().jobs_completed;
  sample.events_dispatched = sim_.dispatched_events();
}

double GridSystem::current_overhead_work() const {
  double g = 0.0;
  for (const auto& sched : schedulers_) g += sched->work_in_system_time();
  for (const auto& cluster : estimators_) {
    for (const auto& est : cluster) g += est->work_in_system_time();
  }
  g += middleware_->work_in_system_time();
  for (const auto& cluster : ctrl_trees_) {
    for (const auto& ct : cluster) {
      for (const auto& agg : ct.aggs) g += agg->work_in_system_time();
    }
  }
  return g;
}

void GridSystem::finish_telemetry(const SimulationResult& result) {
  obs::Telemetry& telemetry = *config_.telemetry;
  if (trace_ != nullptr) {
    for (auto& sched : schedulers_) sched->close_open_span(config_.horizon);
    for (auto& cluster : estimators_) {
      for (auto& est : cluster) est->close_open_span(config_.horizon);
    }
    middleware_->close_open_span(config_.horizon);
    export_job_spans(job_log(), *trace_, jobs_tid_, config_.horizon);
  }
  if (obs::TimeSeriesProbe* probe = telemetry.probe()) {
    // Final row at the horizon, cumulative terms copied from the
    // assembled result so the CSV's last row matches it digit-exactly.
    obs::ProbeSample last;
    last.at = config_.horizon;
    last.F = result.F;
    last.G = result.G();
    last.H = result.H();
    fill_probe_state(last);
    last.jobs_arrived = result.jobs_arrived;
    last.jobs_completed = result.jobs_completed;
    last.events_dispatched = result.events_dispatched;
    probe->add(last);
  }
  if (telemetry.config().manifest_enabled()) {
    fill_manifest(telemetry.manifest(), config_, result);
  }
  telemetry.mark_run_end();
}

GridSystem::~GridSystem() {
  // A lent site outlives this system; leave its router uninstrumented.
  if (profiler_ != nullptr) site_->router().attach_profiler(nullptr, 0);
}

Resource& GridSystem::resource(ClusterId cluster, ResourceIndex index) {
  return *resources_.at(cluster).at(index);
}

SchedulerBase& GridSystem::scheduler_for(ClusterId cluster) {
  if (config_.rms == RmsKind::kCentral) return *schedulers_[0];
  return *schedulers_.at(cluster);
}

void GridSystem::route_message(net::NodeId from_node, RmsMessage msg,
                               bool via_middleware) {
  if (msg.kind == MsgKind::kJobTransfer && msg.job) {
    metrics_.record_job_event(msg.job->id, JobEvent::kTransfer, sim_.now(),
                              msg.to);
  }
  if (trace_ != nullptr) {
    trace_->instant(msg_tid_, to_string(msg.kind), "rms", sim_.now(),
                    {{"from", static_cast<double>(msg.from)},
                     {"to", static_cast<double>(msg.to)}});
  }
  SchedulerBase& dst = scheduler_for(msg.to);
  // Job transfers carry state that must not vanish; everything else is
  // a control message, subject to failure injection.
  const bool reliable = msg.kind == MsgKind::kJobTransfer;
  const double size = reliable ? config_.costs.size_job
                               : config_.costs.size_control;
  const net::NodeId dst_node = dst.node();
  auto ship = [this, reliable](net::NodeId from, net::NodeId to, double sz,
                               sim::EventFn cb) {
    if (reliable) {
      network_->send(from, to, sz, std::move(cb));
    } else {
      network_->send_unreliable(from, to, sz, std::move(cb));
    }
  };
  if (via_middleware) {
    // First hop to the middleware queue, its service time, then the
    // second hop to the destination (paper: superschedulers communicate
    // "through a Grid middleware").
    ship(from_node, site_->middleware_node(), size,
         [this, ship, size, dst_node, &dst, msg = std::move(msg)]() mutable {
           middleware_->relay([this, ship, size, dst_node, &dst,
                               msg = std::move(msg)]() mutable {
             ship(site_->middleware_node(), dst_node, size,
                  [&dst, msg = std::move(msg)]() mutable {
                    dst.deliver_message(std::move(msg));
                  });
           });
         });
  } else {
    ship(from_node, dst_node, size,
         [&dst, msg = std::move(msg)]() mutable {
           dst.deliver_message(std::move(msg));
         });
  }
}

void GridSystem::ship_job_to_resource(net::NodeId from_node,
                                      ClusterId cluster, ResourceIndex index,
                                      workload::Job job) {
  metrics_.record_job_event(job.id, JobEvent::kDispatch, sim_.now(), cluster);
  Resource& res = resource(cluster, index);
  const net::NodeId res_node =
      layout().clusters.at(cluster).resource_nodes.at(index);
  network_->send(from_node, res_node, config_.costs.size_job,
                 [&res, job = std::move(job)]() mutable {
                   res.accept_job(std::move(job));
                 });
}

void GridSystem::deliver_arrival(const workload::Job& job) {
  metrics_.record_arrival(job);
  SchedulerBase& sched = scheduler_for(job.origin_cluster);
  if (config_.rms == RmsKind::kCentral &&
      sched.node() != layout().clusters[job.origin_cluster].scheduler_node) {
    // CENTRAL: the submission point forwards the job to the single
    // central scheduler over the network.
    const net::NodeId gateway =
        layout().clusters[job.origin_cluster].scheduler_node;
    network_->send(gateway, sched.node(), config_.costs.size_job,
                   [&sched, job]() { sched.deliver_job(job); });
  } else {
    sched.deliver_job(job);
  }
}

void GridSystem::schedule_next_arrival() {
  if (!arrivals_->next(pending_)) return;
  stream_stats_.add(pending_);
  sim_.schedule_at(pending_.arrival, [this]() {
    // Copy the job out before chaining: the successor is pulled into
    // pending_.  Chaining before delivering enqueues the next job's event,
    // on a shared arrival time, ahead of anything delivery spawns.
    const workload::Job job = pending_;
    schedule_next_arrival();
    deliver_arrival(job);
  });
}

void GridSystem::schedule_arrivals() {
  workload::WorkloadConfig wl = config_.workload;
  wl.clusters = static_cast<std::uint32_t>(cluster_count());
  // The stream depends only on workload_digest's inputs (never the
  // tuning enablers).  Full mode memoizes it in the process-wide
  // ArrivalCache, so one generation serves every run that shares them;
  // streaming mode pulls a miss live and stores nothing, so one-shot
  // scale runs leave no multi-GB vector behind and peak memory is
  // independent of the job count.
  {
    obs::PhaseProfiler::Scope scope(profiler_, workload_phase_);
    workload::Arrivals pulled = workload::arrivals(
        workload_digest(config_), config_.workload_source, wl, config_.seed,
        config_.horizon, config_.result_mode == ResultMode::kFull);
    arrivals_ = std::move(pulled.source);
    workload_from_cache_ = pulled.from_cache;
  }
  schedule_next_arrival();
}

SimulationResult GridSystem::run() {
  if (ran_) throw std::logic_error("GridSystem::run: already ran");
  ran_ = true;

  obs::Telemetry* telemetry = config_.telemetry;
  // Log lines carry the simulated clock for the duration of the run; the
  // clock is detached on every exit, also when an event throws.
  struct DetachLogClock {
    bool attached;
    ~DetachLogClock() {
      if (attached) util::set_log_time_source(nullptr);
    }
  } log_clock{telemetry != nullptr};
  if (telemetry != nullptr) {
    telemetry->mark_run_start();
    util::set_log_time_source([this]() { return sim_.now(); });
    if (telemetry->probe() != nullptr) {
      sim_.schedule_at(0.0, [this]() { probe_tick(); });
    }
  }

  schedule_arrivals();

  util::RandomStream offset_rng(config_.seed, "report-offsets");
  // Under faults, bound suppression at half the staleness window so a
  // live-but-quiet resource always reports before eviction would hit it.
  const double max_silence =
      config_.faults.any()
          ? 0.5 * config_.faults.robustness.staleness_factor *
                config_.tuning.update_interval
          : 0.0;
  for (auto& cluster : resources_) {
    for (auto& res : cluster) {
      res->start_reporting(config_.tuning.update_interval,
                           offset_rng.uniform(0.0,
                                              config_.tuning.update_interval),
                           config_.update_suppression, max_silence);
    }
  }
  for (auto& sched : schedulers_) sched->on_start();
  if (injector_) injector_->start();

  {
    // The event loop is the root scope: every instrumented phase below
    // it (decisions, batch folds, estimator updates, routing) nests
    // here, so "sim.run" self time is the kernel's own dispatch cost.
    obs::PhaseProfiler::Scope scope(profiler_, run_phase_);
    sim_.run(config_.horizon);
  }
  credit_report_ticks();

  // Horizon sweep: work already invested in still-running jobs is waste.
  for (auto& cluster : resources_) {
    for (auto& res : cluster) {
      if (res->busy()) metrics_.record_unfinished(res->in_service_partial());
    }
  }
  SimulationResult result = assemble_result();
  if (telemetry != nullptr) finish_telemetry(result);
  return result;
}

SimulationResult GridSystem::assemble_result() {
  // F, H and the job, protocol and robustness counters as the collector
  // counted them; the rest is read off the servers, network and caches.
  SimulationResult r = metrics_.snapshot();
  for (const auto& sched : schedulers_) {
    const double work = sched->work_in_system_time();
    r.G_scheduler += work;
    r.G_scheduler_max = std::max(r.G_scheduler_max, work);
  }
  if (r.G_scheduler > 0.0) {
    r.G_scheduler_max_share = r.G_scheduler_max / r.G_scheduler;
  }
  for (const auto& cluster : estimators_) {
    for (const auto& est : cluster) {
      r.G_estimator += est->work_in_system_time();
    }
  }
  r.G_middleware = middleware_->work_in_system_time();
  if (config_.control_plane) {
    for (const auto& cluster : ctrl_trees_) {
      for (const auto& ct : cluster) {
        r.ctrl_tree_depth = std::max(
            r.ctrl_tree_depth, static_cast<std::uint64_t>(ct.tree.depth()));
        for (const auto& agg : ct.aggs) {
          r.G_aggregator += agg->work_in_system_time();
          r.ctrl_updates_in += agg->updates_in();
          r.ctrl_updates_coalesced += agg->updates_coalesced();
          r.ctrl_batches += agg->batches_out();
        }
      }
    }
  }

  r.jobs_unfinished = r.jobs_arrived - r.jobs_completed;
  r.network_messages = network_->messages_sent();
  r.messages_dropped = network_->messages_dropped();
  r.events_dispatched = sim_.dispatched_events();
  r.horizon = config_.horizon;

  if (config_.faults.any()) {
    r.resource_crashes = injector_->counters().crashes;
    r.resource_recoveries = injector_->counters().recoveries;
    r.aggregator_blackouts = injector_->counters().aggregator_blackouts;
    r.messages_delayed = network_->messages_delayed();
    r.messages_duplicated = network_->messages_duplicated();
    // Scheduler-side drops are counted by the mixin; estimator-side
    // drops are the items their down servers discarded.
    for (const auto& cluster : estimators_) {
      for (const auto& est : cluster) {
        r.blackout_drops += est->items_discarded();
      }
    }
    double downtime = 0.0;
    std::size_t pool = 0;
    for (const auto& cluster : resources_) {
      for (const auto& res : cluster) {
        downtime += res->downtime_through(config_.horizon);
        ++pool;
      }
    }
    r.resource_downtime = downtime;
    const double capacity =
        static_cast<double>(pool) * config_.horizon;
    r.availability = capacity > 0.0 ? 1.0 - downtime / capacity : 1.0;
  }

  r.throughput = config_.horizon > 0.0
                     ? static_cast<double>(r.jobs_completed) / config_.horizon
                     : 0.0;
  r.mean_response = metrics_.response_mean();
  r.p95_response = metrics_.response_p95();
  r.workload_stats = stream_stats_.stats();
  r.workload_from_cache = workload_from_cache_;
  r.result_mode = config_.result_mode;
  r.job_log_records = job_log().size();
  r.job_log_dropped = job_log().dropped();
  // One pending slot, refilled once per pulled job.
  r.arena_high_water = 1;
  r.arena_reuses = r.workload_stats.jobs;
  r.arrival_cache_evictions = workload::ArrivalCache::instance().evictions();
  r.arrival_cache_store_skips =
      workload::ArrivalCache::instance().store_skips();
  return r;
}

}  // namespace scal::grid
