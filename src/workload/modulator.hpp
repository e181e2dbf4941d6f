#pragma once
// Composable load modulators: deterministic time warps layered over any
// workload source (docs/WORKLOADS.md).  A modulator with rate profile
// r(s) >= r_min > 0 maps each base arrival t onto s = Lambda^{-1}(t)
// where Lambda(s) = integral_0^s r(u) du.  The warp is monotone, so it
// preserves arrival order and job count while reshaping the local
// arrival rate by exactly r(s) — diurnal waves, flash crowds, and
// heavy-tailed burst trains compose by chaining warps.  Stochastic
// modulators (burst trains) draw from their own SeedSequence substream,
// so adding or reordering one never perturbs the base stream or its
// siblings and runs stay bit-identical at any --jobs.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "exec/seed_sequence.hpp"
#include "util/rng.hpp"

namespace scal::workload {

enum class ModulatorKind : std::uint8_t {
  kDiurnal,  ///< sinusoidal rate wave: r(s) = 1 + amplitude*sin(2*pi*s/period)
  kFlash,    ///< flash crowd: r(s) = factor on [at, at+width), 1 elsewhere
  kBurst,    ///< random burst train: Exp-spaced bursts with Pareto heights
};

std::string to_string(ModulatorKind kind);

/// One modulator clause.  Only the fields of its kind are meaningful;
/// the spec-string grammar (docs/WORKLOADS.md) round-trips via
/// to_spec() / parse_modulators():
///   diurnal:amplitude=0.6,period=500
///   flash:at=600,width=60,factor=8
///   burst:every=300,width=25,alpha=1.4,max=12
struct ModulatorSpec {
  ModulatorKind kind = ModulatorKind::kDiurnal;

  // kDiurnal: relative amplitude in [0, 1) and wave period (> 0).
  double amplitude = 0.0;
  double period = 0.0;

  // kFlash: onset time, window width, and rate multiplier (>= 1).
  double at = 0.0;
  double width = 0.0;
  double factor = 1.0;

  // kBurst: mean gap between bursts, mean burst width, and the
  // bounded-Pareto shape/upper bound of the per-burst rate multiplier
  // (heights drawn on [1, max_factor]).
  double every = 0.0;
  double mean_width = 0.0;
  double alpha = 1.5;
  double max_factor = 8.0;

  /// Throws std::invalid_argument on out-of-range parameters.
  void validate() const;
  std::string to_spec() const;
};

/// Parse a ';'-separated chain of modulator clauses (empty string =
/// no modulators).  Throws std::invalid_argument on grammar errors.
std::vector<ModulatorSpec> parse_modulators(const std::string& spec);

/// Inverse of parse_modulators: clauses joined with ';' in chain order.
std::string modulators_to_spec(const std::vector<ModulatorSpec>& chain);

/// Substream tree for the modulator chain: position i in the chain
/// derives its RNG from modulator_seeds(seed).at(i), mirroring the
/// fault subsystem's seed discipline — independent of the base source's
/// "workload" stream and of every other chain position.
inline exec::SeedSequence modulator_seeds(std::uint64_t seed) {
  return exec::SeedSequence(
      util::RandomStream(seed, "workload-modulators").bits());
}

/// The Lambda^{-1} evaluator for one modulator.  warp() must be called
/// with nondecreasing inputs (arrival streams are sorted); stochastic
/// profiles are realized lazily from `rng` as the input advances, so a
/// warp's output prefix depends only on the spec, the seed, and the
/// inputs seen so far.
class TimeWarp {
 public:
  TimeWarp(const ModulatorSpec& spec, util::RandomStream rng);

  /// Map base arrival `t` to the modulated arrival Lambda^{-1}(t).
  /// Monotone nondecreasing; always <= t (modulators add load, never
  /// stretch the stream past its base span).
  double warp(double t);

 private:
  double invert_diurnal(double t);
  /// The bisection midpoints whose comparison Lambda(mid) < t is in
  /// doubt: below the interval it certifiably holds, above it it
  /// certifiably fails.  {-inf, +inf} when nothing is certified.
  std::pair<double, double> diurnal_doubt_window(double t, double c,
                                                 double lo, double hi);
  double invert_flash(double t) const;
  double invert_burst(double t);
  /// Extend the lazily realized burst profile until Lambda covers
  /// `target` (cumulative base time).
  void extend_burst(double target);

  ModulatorSpec spec_;
  util::RandomStream rng_;
  double last_input_ = 0.0;

  // Diurnal Newton warm start: the last finite input, the root
  // returned for it, and Lambda's slope near that root.  They only move
  // the certified window, never the returned bits.
  double diurnal_t_ = 0.0;
  double diurnal_root_ = 0.0;
  double diurnal_slope_ = 1.0;

  // Burst-train state: the current piecewise-constant-rate segment
  // [seg_start_, seg_end_) with Lambda(seg_start_) = seg_lambda_.
  double seg_start_ = 0.0;
  double seg_end_ = 0.0;
  double seg_lambda_ = 0.0;
  double seg_rate_ = 1.0;
  bool in_burst_ = false;
};

}  // namespace scal::workload
