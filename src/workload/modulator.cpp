#include "workload/modulator.hpp"

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <limits>
#include <numbers>
#include <sstream>
#include <stdexcept>

#include "workload/source.hpp"

namespace scal::workload {

namespace {

[[noreturn]] void bad(const std::string& what) {
  throw std::invalid_argument("modulator spec: " + what);
}

double number(const std::string& key, const std::string& text) {
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0') {
    bad("'" + key + "' expects a number, got '" + text + "'");
  }
  return v;
}

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> parts;
  std::istringstream in(text);
  std::string part;
  while (std::getline(in, part, sep)) parts.push_back(part);
  return parts;
}

constexpr double kTwoPi = 2.0 * std::numbers::pi;

/// Lambda(s) = s + c * (1 - cos(2*pi*s/period)) exactly as the diurnal
/// bisection evaluates it: every computed comparison goes through here.
double diurnal_lambda(double s, double c, double period) {
  return s + c * (1.0 - std::cos(kTwoPi * s / period));
}

/// Trims trailing ".000000" noise from default double formatting.
std::string fmt(double v) {
  std::ostringstream out;
  out << v;
  return out.str();
}

}  // namespace

std::string to_string(ModulatorKind kind) {
  switch (kind) {
    case ModulatorKind::kDiurnal: return "diurnal";
    case ModulatorKind::kFlash: return "flash";
    case ModulatorKind::kBurst: return "burst";
  }
  return "?";
}

void ModulatorSpec::validate() const {
  // Every check is written so that NaN fails it.
  const auto finite = [](std::initializer_list<double> fields) {
    for (const double v : fields) {
      if (!std::isfinite(v)) return false;
    }
    return true;
  };
  switch (kind) {
    case ModulatorKind::kDiurnal:
      if (!finite({amplitude, period})) {
        bad("diurnal parameters must be finite");
      }
      // amplitude < 1 keeps the rate profile strictly positive, so the
      // warp stays strictly monotone (invertible).
      if (!(amplitude >= 0.0 && amplitude < 1.0)) {
        bad("diurnal amplitude must be in [0, 1)");
      }
      if (amplitude > 0.0 && !(period > 0.0)) {
        bad("diurnal amplitude > 0 requires period > 0");
      }
      break;
    case ModulatorKind::kFlash:
      if (!finite({at, width, factor})) {
        bad("flash parameters must be finite");
      }
      if (!(factor >= 1.0)) bad("flash factor must be >= 1");
      if (!(at >= 0.0 && width >= 0.0)) {
        bad("flash at/width must be non-negative");
      }
      if (factor > 1.0 && !(width > 0.0)) {
        bad("flash factor > 1 requires width > 0");
      }
      break;
    case ModulatorKind::kBurst:
      if (!finite({every, mean_width, alpha, max_factor})) {
        bad("burst parameters must be finite");
      }
      if (!(every > 0.0) || !(mean_width > 0.0)) {
        bad("burst every/width must be positive");
      }
      if (!(alpha > 0.0)) bad("burst alpha must be positive");
      if (!(max_factor >= 1.0)) bad("burst max must be >= 1");
      break;
  }
}

std::string ModulatorSpec::to_spec() const {
  std::ostringstream out;
  switch (kind) {
    case ModulatorKind::kDiurnal:
      out << "diurnal:amplitude=" << fmt(amplitude)
          << ",period=" << fmt(period);
      break;
    case ModulatorKind::kFlash:
      out << "flash:at=" << fmt(at) << ",width=" << fmt(width)
          << ",factor=" << fmt(factor);
      break;
    case ModulatorKind::kBurst:
      out << "burst:every=" << fmt(every) << ",width=" << fmt(mean_width)
          << ",alpha=" << fmt(alpha) << ",max=" << fmt(max_factor);
      break;
  }
  return out.str();
}

std::vector<ModulatorSpec> parse_modulators(const std::string& spec) {
  std::vector<ModulatorSpec> chain;
  if (spec.empty()) return chain;
  for (const std::string& clause : split(spec, ';')) {
    const auto colon = clause.find(':');
    if (colon == std::string::npos) {
      bad("clause '" + clause + "' is missing ':'");
    }
    const std::string name = clause.substr(0, colon);
    ModulatorSpec m;
    if (name == "diurnal") {
      m.kind = ModulatorKind::kDiurnal;
    } else if (name == "flash") {
      m.kind = ModulatorKind::kFlash;
    } else if (name == "burst") {
      m.kind = ModulatorKind::kBurst;
    } else {
      bad("unknown modulator '" + name + "'");
    }
    for (const std::string& kv : split(clause.substr(colon + 1), ',')) {
      const auto eq = kv.find('=');
      if (eq == std::string::npos) {
        bad("'" + kv + "' in clause '" + name + "' is missing '='");
      }
      const std::string key = kv.substr(0, eq);
      const std::string val = kv.substr(eq + 1);
      if (m.kind == ModulatorKind::kDiurnal) {
        if (key == "amplitude") {
          m.amplitude = number(key, val);
        } else if (key == "period") {
          m.period = number(key, val);
        } else {
          bad("unknown diurnal key '" + key + "'");
        }
      } else if (m.kind == ModulatorKind::kFlash) {
        if (key == "at") {
          m.at = number(key, val);
        } else if (key == "width") {
          m.width = number(key, val);
        } else if (key == "factor") {
          m.factor = number(key, val);
        } else {
          bad("unknown flash key '" + key + "'");
        }
      } else {
        if (key == "every") {
          m.every = number(key, val);
        } else if (key == "width") {
          m.mean_width = number(key, val);
        } else if (key == "alpha") {
          m.alpha = number(key, val);
        } else if (key == "max") {
          m.max_factor = number(key, val);
        } else {
          bad("unknown burst key '" + key + "'");
        }
      }
    }
    m.validate();
    chain.push_back(m);
  }
  return chain;
}

std::string modulators_to_spec(const std::vector<ModulatorSpec>& chain) {
  std::string out;
  for (const ModulatorSpec& m : chain) {
    if (!out.empty()) out += ';';
    out += m.to_spec();
  }
  return out;
}

TimeWarp::TimeWarp(const ModulatorSpec& spec, util::RandomStream rng)
    : spec_(spec), rng_(rng) {
  spec_.validate();
}

double TimeWarp::warp(double t) {
  if (t < last_input_) {
    throw std::logic_error("TimeWarp: inputs must be nondecreasing");
  }
  last_input_ = t;
  if (t <= 0.0) return t;
  switch (spec_.kind) {
    case ModulatorKind::kDiurnal: return invert_diurnal(t);
    case ModulatorKind::kFlash: return invert_flash(t);
    case ModulatorKind::kBurst: return invert_burst(t);
  }
  return t;
}

double TimeWarp::invert_diurnal(double t) {
  if (spec_.amplitude <= 0.0) return t;
  // Lambda(s) = s + c * (1 - cos(2*pi*s/period)), c = amplitude*period/2pi,
  // so Lambda(s) - s is in [0, 2c]: the root lies in [t - 2c, t].  A
  // bisection of at most 80 steps reaches double resolution
  // deterministically (no tolerance-dependent branching).
  const double c = spec_.amplitude * spec_.period / kTwoPi;
  double lo = t - 2.0 * c;
  if (lo < 0.0) lo = 0.0;
  double hi = t;
  // Only midpoints inside the doubt window pay for a cos; outside it the
  // comparison's outcome is certified, so the (lo, hi) sequence and the
  // returned bits are the plain loop's.
  const auto [doubt_lo, doubt_hi] = diurnal_doubt_window(t, c, lo, hi);
  for (int i = 0; i < 80; ++i) {
    const double mid = 0.5 * (lo + hi);
    const bool below =
        mid < doubt_lo ||
        (!(mid > doubt_hi) && diurnal_lambda(mid, c, spec_.period) < t);
    // Each step is a pure function of (lo, hi): once one leaves them
    // unchanged, so does every later step.
    if (mid == (below ? lo : hi)) break;
    (below ? lo : hi) = mid;
  }
  const double s = 0.5 * (lo + hi);
  if (std::isfinite(s)) {
    diurnal_t_ = t;
    diurnal_root_ = s;
  }
  return s;
}

std::pair<double, double> TimeWarp::diurnal_doubt_window(double t, double c,
                                                         double lo,
                                                         double hi) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double period = spec_.period;
  const double slack = 1.0 - spec_.amplitude;
  // Not covered: non-finite t, an argument 2*pi*t/period that overflows
  // (cos would return NaN), and a slope floor too close to rounding noise.
  if (!std::isfinite(t) || !std::isfinite(kTwoPi * t / period) ||
      !(slack >= 0x1p-20)) {
    return {-kInf, kInf};
  }

  // Error bound E on f(m) = diurnal_lambda(m) against the exact
  // g(m) = m + c * (1 - cos(theta)), theta = kTwoPi * m / period, for
  // m in [0, t], with u = 2^-53 and the computed c as given:
  //   argument:  two roundings, |x - theta| <= 2.0001 u theta, and
  //              c * kTwoPi / period <= amplitude (1 + u)^2, so the
  //              cos shift is at most 2.001 u t;
  //   cos:       libm's error is at most 1 ulp <= 2u, times c;
  //   1 - cos:   a result in [0, 2], rounding <= 2u, times c;
  //   c * (.):   a product <= 2c, rounding <= 2.01 u c;
  //   m + (.):   a sum <= t + 2.01c, rounding <= u (t + 2.01c);
  // total u (3.01 t + 8.1 c), plus under 2^-1072 (1 + c) if anything
  // underflows.  E below is over 4.9x the first part and 2^50x the
  // second; the surplus also absorbs the roundings of d and s -/+ d.
  const double err = 0x1p-50 * (2.0 * t + 5.0 * c) + 0x1p-1022 * (1.0 + c);
  // g'(m) = 1 + (c * kTwoPi / period) sin(theta) >= 1 - amplitude - 3u,
  // which this floor stays below because slack >= 2^-20.
  const double k = slack * (1.0 - 0x1p-20);

  // Newton toward the root, warm-started from the previous arrival's
  // (inputs are nondecreasing).  Its accuracy only sets the window width.
  const double w = c * kTwoPi / period;
  double s = std::clamp(diurnal_root_ + (t - diurnal_t_) / diurnal_slope_,
                        lo, hi);
  for (int step = 0; step < 2; ++step) {
    diurnal_slope_ = 1.0 + w * std::sin(kTwoPi * s / period);
    const double delta = (diurnal_lambda(s, c, period) - t) / diurnal_slope_;
    s = std::clamp(s - delta, lo, hi);
    if (std::abs(delta) <= err) break;
  }

  // With s, m in [0, t]:  f(m) <= f(s) + 2E - k (s - m) for m < s, which
  // is < t once s - m > d;  f(m) >= f(s) - 2E + k (m - s) for m > s,
  // which is >= t once m - s > d.
  const double d =
      (std::abs(diurnal_lambda(s, c, period) - t) + 2.0 * err) / k;
  // A NaN or bracket-wide window certifies nothing.
  if (!(d < hi - lo)) return {-kInf, kInf};
  return {s - d, s + d};
}

double TimeWarp::invert_flash(double t) const {
  // Lambda(s) = s + (factor-1) * clamp(s - at, 0, width): exact
  // piecewise-linear inverse, no RNG.
  const double extra = spec_.factor - 1.0;
  if (extra <= 0.0 || t <= spec_.at) return t;
  const double window_end = spec_.at + spec_.factor * spec_.width;
  if (t <= window_end) return spec_.at + (t - spec_.at) / spec_.factor;
  return t - extra * spec_.width;
}

double TimeWarp::invert_burst(double t) {
  extend_burst(t);
  return seg_start_ + (t - seg_lambda_) / seg_rate_;
}

void TimeWarp::extend_burst(double target) {
  // Alternating quiet / burst segments realized lazily: quiet gaps are
  // Exp(every) at rate 1, burst widths Exp(mean_width) at a
  // bounded-Pareto height on [1, max].  Draw order is fixed, so the
  // realized profile is a pure function of (spec, seed) and the prefix
  // consumed — the determinism the 1-vs-N jobs contract needs.
  if (seg_end_ <= seg_start_) {
    seg_end_ = seg_start_ + rng_.exponential(spec_.every);
    seg_rate_ = 1.0;
    in_burst_ = false;
  }
  for (;;) {
    const double seg_span = (seg_end_ - seg_start_) * seg_rate_;
    if (seg_lambda_ + seg_span > target) return;
    seg_lambda_ += seg_span;
    seg_start_ = seg_end_;
    if (in_burst_) {
      seg_end_ = seg_start_ + rng_.exponential(spec_.every);
      seg_rate_ = 1.0;
      in_burst_ = false;
    } else {
      seg_end_ = seg_start_ + rng_.exponential(spec_.mean_width);
      seg_rate_ = spec_.max_factor > 1.0
                      ? rng_.bounded_pareto(spec_.alpha, 1.0, spec_.max_factor)
                      : 1.0;
      in_burst_ = true;
    }
  }
}

ModulatedSource::ModulatedSource(std::unique_ptr<WorkloadSource> base,
                                 const ModulatorSpec& spec,
                                 std::uint64_t warp_seed)
    : base_(std::move(base)),
      warp_(std::make_unique<TimeWarp>(spec, util::RandomStream(warp_seed))) {}

ModulatedSource::~ModulatedSource() = default;

bool ModulatedSource::next(Job& out) {
  if (!base_->next(out)) return false;
  out.arrival = warp_->warp(out.arrival);
  return true;
}

}  // namespace scal::workload
