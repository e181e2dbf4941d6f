#include "workload/generator.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

namespace scal::workload {

double expected_exec_time(const WorkloadConfig& config) {
  switch (config.exec_model) {
    case ExecTimeModel::kLognormal:
      return std::exp(config.lognormal_mu +
                      0.5 * config.lognormal_sigma * config.lognormal_sigma);
    case ExecTimeModel::kBoundedPareto: {
      const double a = config.pareto_alpha;
      const double lo = config.pareto_lo;
      const double hi = config.pareto_hi;
      if (a == 1.0) {
        return std::log(hi / lo) / (1.0 / lo - 1.0 / hi);
      }
      const double num = std::pow(lo, a) / (1.0 - std::pow(lo / hi, a));
      return num * (a / (a - 1.0)) *
             (1.0 / std::pow(lo, a - 1.0) - 1.0 / std::pow(hi, a - 1.0));
    }
    case ExecTimeModel::kUniform:
      return 0.5 * (config.uniform_lo + config.uniform_hi);
  }
  throw std::logic_error("expected_exec_time: unknown exec model");
}

WorkloadGenerator::WorkloadGenerator(const WorkloadConfig& config,
                                     util::RandomStream rng)
    : config_(config), rng_(rng) {
  if (!(config_.mean_interarrival > 0.0)) {
    throw std::invalid_argument("WorkloadGenerator: bad interarrival mean");
  }
  if (!(config_.t_cpu > 0.0) || config_.clusters == 0 ||
      !(config_.benefit_lo >= 1.0) ||
      !(config_.benefit_hi >= config_.benefit_lo) ||
      !(config_.requested_factor_max >= 1.0)) {
    throw std::invalid_argument("WorkloadGenerator: bad configuration");
  }
  // Written so that NaN fails; a wave needs a finite positive period.
  if (!(config_.diurnal_amplitude >= 0.0 && config_.diurnal_amplitude < 1.0) ||
      (config_.diurnal_amplitude > 0.0 &&
       !(config_.diurnal_period > 0.0 &&
         std::isfinite(config_.diurnal_period)))) {
    throw std::invalid_argument("WorkloadGenerator: bad diurnal modulation");
  }
  if (config_.origin_hotspot_weight < 0.0 ||
      config_.origin_hotspot_weight > 1.0) {
    throw std::invalid_argument("WorkloadGenerator: bad hotspot weight");
  }
}

double WorkloadGenerator::draw_exec_time() {
  switch (config_.exec_model) {
    case ExecTimeModel::kLognormal:
      return rng_.lognormal(config_.lognormal_mu, config_.lognormal_sigma);
    case ExecTimeModel::kBoundedPareto:
      return rng_.bounded_pareto(config_.pareto_alpha, config_.pareto_lo,
                                 config_.pareto_hi);
    case ExecTimeModel::kUniform:
      return rng_.uniform(config_.uniform_lo, config_.uniform_hi);
  }
  throw std::logic_error("WorkloadGenerator: unknown exec model");
}

Job WorkloadGenerator::next() {
  Job job;
  job.id = next_id_++;
  if (config_.diurnal_amplitude > 0.0) {
    // Thinning: candidates at the peak rate, accepted with probability
    // lambda(t) / lambda_peak, yields an exact inhomogeneous Poisson
    // process.
    const double peak_interarrival =
        config_.mean_interarrival / (1.0 + config_.diurnal_amplitude);
    for (;;) {
      clock_ += rng_.exponential(peak_interarrival);
      const double relative_rate =
          (1.0 + config_.diurnal_amplitude *
                     std::sin(2.0 * std::numbers::pi * clock_ /
                              config_.diurnal_period)) /
          (1.0 + config_.diurnal_amplitude);
      if (rng_.uniform() < relative_rate) break;
    }
  } else {
    clock_ += rng_.exponential(config_.mean_interarrival);
  }
  job.arrival = clock_;
  job.exec_time = draw_exec_time();
  job.requested_time =
      job.exec_time * rng_.uniform(1.0, config_.requested_factor_max);
  job.partition_size = 1;      // paper Section 3.1
  job.cancellable = false;     // paper Section 3.1
  job.job_class = job.exec_time <= config_.t_cpu ? JobClass::kLocal
                                                 : JobClass::kRemote;
  job.benefit_factor = rng_.uniform(config_.benefit_lo, config_.benefit_hi);
  job.benefit_deadline = job.exec_time * job.benefit_factor;
  if (config_.origin_hotspot_weight > 0.0 &&
      rng_.bernoulli(config_.origin_hotspot_weight)) {
    job.origin_cluster = 0;
  } else {
    job.origin_cluster = static_cast<std::uint32_t>(rng_.uniform_int(
        0, static_cast<std::int64_t>(config_.clusters) - 1));
  }
  return job;
}

}  // namespace scal::workload
