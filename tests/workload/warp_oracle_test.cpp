// Oracle tests for the diurnal TimeWarp: its certified fast path must
// return exactly the bits of the plain fixed-iteration bisection, kept
// here as a private copy that shares no code with src/.
//
// The default input count keeps the suite at a few seconds; set
// SCAL_WARP_ORACLE_SCALE=N to multiply it (N=11 sweeps over 10M inputs).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <limits>
#include <numbers>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "workload/modulator.hpp"

namespace scal::workload {
namespace {

/// The diurnal inverse as a fixed 80-step bisection with one cos per
/// step, including warp()'s pass-through of t <= 0.
double reference_warp(double t, double amplitude, double period) {
  if (t <= 0.0 || amplitude <= 0.0) return t;
  const double two_pi = 2.0 * std::numbers::pi;
  const double c = amplitude * period / two_pi;
  double lo = t - 2.0 * c;
  if (lo < 0.0) lo = 0.0;
  double hi = t;
  for (int i = 0; i < 80; ++i) {
    const double mid = 0.5 * (lo + hi);
    const double lam = mid + c * (1.0 - std::cos(two_pi * mid / period));
    if (lam < t) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

std::uint64_t bits(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

std::size_t scaled(std::size_t n) {
  const char* env = std::getenv("SCAL_WARP_ORACLE_SCALE");
  const long scale = env != nullptr ? std::strtol(env, nullptr, 10) : 1;
  return n * static_cast<std::size_t>(std::max(1L, scale));
}

ModulatorSpec diurnal(double amplitude, double period) {
  ModulatorSpec spec;
  spec.kind = ModulatorKind::kDiurnal;
  spec.amplitude = amplitude;
  spec.period = period;
  return spec;
}

/// Tallies fast-path vs oracle disagreements, remembering the first.
struct Tally {
  std::size_t checked = 0;
  std::size_t mismatches = 0;
  std::string first;

  void check(double t, double amplitude, double period, double got) {
    ++checked;
    const double want = reference_warp(t, amplitude, period);
    if (bits(got) == bits(want)) return;
    if (mismatches++ == 0) {
      std::ostringstream out;
      out.precision(17);
      out << "t=" << t << " amplitude=" << amplitude << " period=" << period
          << ": got " << got << ", want " << want;
      first = out.str();
    }
  }
};

/// Warps the sorted inputs through one long-lived TimeWarp (warm starts
/// from every previous root) and checks each against the oracle.
void check_stream(Tally& tally, double amplitude, double period,
                  std::vector<double> ts) {
  std::sort(ts.begin(), ts.end());
  TimeWarp warp(diurnal(amplitude, period), util::RandomStream(1));
  for (const double t : ts) tally.check(t, amplitude, period, warp.warp(t));
}

/// Log-uniform draw on [lo, hi].
double log_uniform(std::mt19937_64& rng, double lo, double hi) {
  std::uniform_real_distribution<double> u(std::log(lo), std::log(hi));
  return std::exp(u(rng));
}

/// A random (amplitude, period) pair spanning the whole covered range:
/// amplitudes 1e-9 .. 0.99999 (dense near 1), periods 1e-6 .. 1e12.
std::pair<double, double> random_params(std::mt19937_64& rng) {
  const double amplitude = std::bernoulli_distribution(0.5)(rng)
                               ? log_uniform(rng, 1e-9, 0.99999)
                               : 1.0 - log_uniform(rng, 1e-5, 1.0);
  return {amplitude, log_uniform(rng, 1e-6, 1e12)};
}

// The last two leave a slope floor 1 - amplitude too thin to certify,
// so they take the plain loop.
const std::vector<double> kAmplitudes = {
    1e-9, 1e-6, 1e-3, 0.1, 0.5, 0.6, 0.9, 0.99, 0.999, 0.9999, 0.99999,
    1.0 - 0x1p-21, 1.0 - 1e-12};
const std::vector<double> kPeriods = {1e-6, 1e-3, 1.0, 500.0, 1e4, 1e8, 1e12};

void expect_no_mismatches(const Tally& tally) {
  std::cout << "[ oracle   ] " << tally.mismatches << " mismatches in "
            << tally.checked << " inputs\n";
  EXPECT_GT(tally.checked, 0u);
  EXPECT_EQ(tally.mismatches, 0u) << "first: " << tally.first;
}

TEST(WarpOracle, RandomInputsUpTo2000) {
  std::mt19937_64 rng(2000);
  Tally tally;
  const std::size_t streams = scaled(600);
  for (std::size_t i = 0; i < streams; ++i) {
    const auto [amplitude, period] = random_params(rng);
    std::uniform_real_distribution<double> t_dist(0.0, 2000.0);
    std::vector<double> ts(500);
    for (double& t : ts) t = t_dist(rng);
    check_stream(tally, amplitude, period, ts);
  }
  expect_no_mismatches(tally);
}

TEST(WarpOracle, RandomInputsUpTo2Pow60) {
  std::mt19937_64 rng(60);
  Tally tally;
  const std::size_t streams = scaled(600);
  for (std::size_t i = 0; i < streams; ++i) {
    const auto [amplitude, period] = random_params(rng);
    std::vector<double> ts(500);
    for (double& t : ts) t = log_uniform(rng, 1e-3, 0x1p60);
    check_stream(tally, amplitude, period, ts);
  }
  expect_no_mismatches(tally);
}

TEST(WarpOracle, InputsNearZero) {
  std::mt19937_64 rng(0);
  Tally tally;
  const std::size_t streams = scaled(300);
  for (std::size_t i = 0; i < streams; ++i) {
    const auto [amplitude, period] = random_params(rng);
    std::vector<double> ts(500);
    for (double& t : ts) t = log_uniform(rng, 1e-310, 1e-2);
    ts.push_back(std::numeric_limits<double>::denorm_min());
    ts.push_back(std::numeric_limits<double>::min());
    check_stream(tally, amplitude, period, ts);
  }
  expect_no_mismatches(tally);
}

TEST(WarpOracle, ParameterGridAtTheClampAndTheWaveExtremes) {
  std::mt19937_64 rng(4);
  Tally tally;
  const std::size_t reps = scaled(50);
  for (const double amplitude : kAmplitudes) {
    for (const double period : kPeriods) {
      const double c = amplitude * period / (2.0 * std::numbers::pi);
      const double two_c = 2.0 * c;
      for (std::size_t r = 0; r < reps; ++r) {
        std::vector<double> ts;
        // The lo clamp: t - 2c is exactly 0 at t = 2c, negative one ulp
        // below it.
        ts.push_back(two_c);
        ts.push_back(std::nextafter(two_c, 0.0));
        ts.push_back(std::nextafter(two_c, 1e300));
        // Lambda is steepest at s = P/4 + kP (Lambda = s + c) and
        // flattest at s = 3P/4 + kP (Lambda = s + c as well, since
        // cos = 0 at both): jitter t around both for a few cycles.
        const double cycle = std::floor(log_uniform(rng, 1.0, 1e6));
        for (const double phase : {0.25, 0.75}) {
          const double t = (cycle + phase) * period + c;
          ts.push_back(t);
          for (int j = 1; j <= 4; ++j) {
            ts.push_back(std::nextafter(t, 0.0) * (1.0 - j * 1e-15));
            ts.push_back(t * (1.0 + j * 1e-15));
            ts.push_back(t + j * 1e-6 * period);
          }
        }
        std::uniform_real_distribution<double> t_dist(0.0, 5.0 * period);
        for (int j = 0; j < 30; ++j) ts.push_back(t_dist(rng));
        check_stream(tally, amplitude, period, ts);
      }
    }
  }
  expect_no_mismatches(tally);
}

TEST(WarpOracle, NonFiniteAndNonPositiveInputs) {
  Tally tally;
  for (const double amplitude : kAmplitudes) {
    for (const double period : kPeriods) {
      TimeWarp warp(diurnal(amplitude, period), util::RandomStream(1));
      for (const double t : {0.0, 1.0, 1e300,
                             std::numeric_limits<double>::max(),
                             std::numeric_limits<double>::infinity()}) {
        tally.check(t, amplitude, period, warp.warp(t));
      }
    }
  }
  expect_no_mismatches(tally);
}

TEST(WarpOracle, WarmWarpMatchesAFreshOne) {
  // One warp sees the whole sorted stream (warm starts from earlier
  // roots, including far-away ones); a fresh warp per input starts
  // cold.  Both must return the same bits.
  std::mt19937_64 rng(5);
  std::size_t compared = 0;
  for (std::size_t i = 0; i < scaled(50); ++i) {
    const auto [amplitude, period] = random_params(rng);
    std::vector<double> ts(200);
    for (double& t : ts) t = log_uniform(rng, 1e-6, 1e15);
    std::sort(ts.begin(), ts.end());
    TimeWarp warm(diurnal(amplitude, period), util::RandomStream(1));
    for (const double t : ts) {
      TimeWarp fresh(diurnal(amplitude, period), util::RandomStream(1));
      ASSERT_EQ(bits(warm.warp(t)), bits(fresh.warp(t)))
          << "t=" << t << " amplitude=" << amplitude << " period=" << period;
      ++compared;
    }
  }
  EXPECT_GT(compared, 0u);
}

TEST(WarpOracle, PinnedBitsOfTheBenchmarkWave) {
  // diurnal:amplitude=0.6,period=500 warped in order by one TimeWarp;
  // the expected bits were recorded with the plain 80-step bisection.
  struct Pin {
    double t;
    std::uint64_t bits;
  };
  const Pin pins[] = {
      {0x1.12e0be826d695p-30, 0x3e112e0be826d694ull},
      {0x1p-2, 0x3fcff84b330672a2ull},
      {0x1p+0, 0x3fefe15914543e22ull},
      {0x1.ep+1, 0x400d9669178ad67cull},
      {0x1.7ep+5, 0x4044b672da5755c2ull},
      {0x1.7ep+6, 0x4052e33946bfe522ull},
      {0x1.9p+6, 0x4053a3f3c8f3ca90ull},
      {0x1.f4p+6, 0x4057b905bacfb71cull},
      {0x1.77p+7, 0x4060c751839a42f6ull},
      {0x1.f4p+7, 0x4065ce8a17887d8aull},
      {0x1.77p+8, 0x4071bbba798985c4ull},
      {0x1.a42p+8, 0x40770751499075c2ull},
      {0x1.f4p+8, 0x407f400000000000ull},
      {0x1.84d999999999ap+9, 0x4085ad67f1a02996ull},
      {0x1.f4p+9, 0x408f400000000000ull},
      {0x1.34ap+10, 0x409230bae2aba80eull},
      {0x1.76f999999999ap+10, 0x40976f998fb5bf16ull},
      {0x1.388p+12, 0x40b3880000000000ull},
      {0x1.e240c9fbe76c9p+16, 0x40fe23656a818958ull},
      {0x1.dcd65p+29, 0x41cdcd6500000000ull},
      {0x1p+40, 0x426ffffffff58e96ull},
  };
  const ModulatorSpec spec =
      parse_modulators("diurnal:amplitude=0.6,period=500").front();
  TimeWarp warp(spec, util::RandomStream(1));
  for (const Pin& pin : pins) {
    EXPECT_EQ(bits(warp.warp(pin.t)), pin.bits) << "t=" << pin.t;
  }
}

}  // namespace
}  // namespace scal::workload
