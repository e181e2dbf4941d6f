#pragma once
// Synthetic workload generation standing in for the Cirne-Berman moldable
// supercomputer model [22, 23].  Their trace-fit distributions are keyed
// to specific machines; we keep the model's structure — Poisson-ish
// arrivals, heavy-tailed execution times, requested time as an
// over-estimate factor on execution time — with seedable parameters, and
// we expose the LOCAL/REMOTE split fraction so experiments can verify the
// T_CPU classification behaves like the paper's.

#include "util/rng.hpp"
#include "workload/job.hpp"

namespace scal::workload {

enum class ExecTimeModel {
  kLognormal,      ///< default: heavy-tailed, most mass below T_CPU
  kBoundedPareto,  ///< heavier tail variant for sensitivity tests
  kUniform,        ///< flat, for deterministic-ish tests
};

struct WorkloadConfig {
  /// Mean inter-arrival time of the whole stream (time units).  The
  /// paper scales workload with the scaling variable; scaling multiplies
  /// the arrival *rate*, i.e. divides this mean.
  double mean_interarrival = 10.0;

  ExecTimeModel exec_model = ExecTimeModel::kLognormal;
  /// Lognormal parameters of execution time (defaults give a median of
  /// ~400 time units with a tail well past T_CPU = 700).
  double lognormal_mu = 6.0;
  double lognormal_sigma = 0.9;
  /// Bounded-Pareto parameters.
  double pareto_alpha = 1.3;
  double pareto_lo = 50.0;
  double pareto_hi = 20000.0;
  /// Uniform model range.
  double uniform_lo = 100.0;
  double uniform_hi = 2000.0;

  /// Requested time = exec_time * Uniform[1, requested_factor_max].
  double requested_factor_max = 3.0;

  /// LOCAL/REMOTE threshold (paper Table 1: T_CPU = 700 time units).
  double t_cpu = 700.0;

  /// Benefit deadline U_b = u * exec_time, u ~ Uniform[benefit_lo, benefit_hi]
  /// (paper Table 1: u in [2, 5]).
  double benefit_lo = 2.0;
  double benefit_hi = 5.0;

  /// Number of clusters jobs are submitted to (origin chosen uniformly
  /// unless origin_hotspot_weight skews it).
  std::uint32_t clusters = 1;

  /// Diurnal arrival modulation: instantaneous rate
  ///   lambda(t) = lambda0 * (1 + amplitude * sin(2 pi t / period)).
  /// amplitude = 0 disables (homogeneous Poisson).  Implemented by
  /// thinning, so the process stays exact.
  double diurnal_amplitude = 0.0;  ///< in [0, 1)
  double diurnal_period = 0.0;     ///< time units; > 0 when enabled

  /// Submission-site skew: with this probability a job originates at
  /// cluster 0 (the hot spot); otherwise the origin is uniform.
  double origin_hotspot_weight = 0.0;
};

/// Analytic mean of the configured execution-time distribution; the
/// schedulers use it to turn load counts into waiting-time estimates.
double expected_exec_time(const WorkloadConfig& config);

class WorkloadGenerator {
 public:
  WorkloadGenerator(const WorkloadConfig& config, util::RandomStream rng);

  /// Next job in arrival order.  Arrival times are strictly increasing.
  Job next();

  const WorkloadConfig& config() const noexcept { return config_; }

 private:
  double draw_exec_time();

  WorkloadConfig config_;
  util::RandomStream rng_;
  sim::Time clock_ = 0.0;
  JobId next_id_ = 0;
};

}  // namespace scal::workload
