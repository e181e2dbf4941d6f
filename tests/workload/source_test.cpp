#include "workload/source.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "workload/arrival_cache.hpp"
#include "workload/generator.hpp"
#include "support/draw_jobs.hpp"

namespace scal::workload {
namespace {

WorkloadConfig small_workload() {
  WorkloadConfig config;
  config.mean_interarrival = 2.0;
  config.clusters = 6;
  return config;
}

TEST(SyntheticSource, MatchesGeneratorJobForJob) {
  const WorkloadConfig config = small_workload();
  WorkloadGenerator gen(config, util::RandomStream(42, "workload"));
  SyntheticSource source(config, util::RandomStream(42, "workload"));
  const auto expected = test::first_jobs(gen, 250);
  const auto actual = test::first_jobs(source, 250);
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(actual[i].id, expected[i].id);
    EXPECT_DOUBLE_EQ(actual[i].arrival, expected[i].arrival);
    EXPECT_DOUBLE_EQ(actual[i].exec_time, expected[i].exec_time);
    EXPECT_DOUBLE_EQ(actual[i].benefit_factor, expected[i].benefit_factor);
    EXPECT_EQ(actual[i].origin_cluster, expected[i].origin_cluster);
  }
}

TEST(SourceSpec, DefaultIsLegacySyntheticPath) {
  const SourceSpec spec;
  EXPECT_TRUE(spec.is_default());
  EXPECT_NO_THROW(spec.validate());
  EXPECT_EQ(spec.summary(), "synthetic");
}

TEST(SourceSpec, ParsesEveryCliForm) {
  EXPECT_TRUE(SourceSpec::parse("").is_default());
  EXPECT_TRUE(SourceSpec::parse("synthetic").is_default());

  const SourceSpec trace = SourceSpec::parse("trace:runs/wl.csv");
  EXPECT_EQ(trace.kind, SourceKind::kTrace);
  EXPECT_EQ(trace.path, "runs/wl.csv");

  const SourceSpec swf = SourceSpec::parse("swf:logs/kth.swf");
  EXPECT_EQ(swf.kind, SourceKind::kSwf);
  EXPECT_EQ(swf.path, "logs/kth.swf");
  EXPECT_DOUBLE_EQ(swf.time_scale, 1.0);

  const SourceSpec scaled = SourceSpec::parse("swf:logs/kth.swf@0.01");
  EXPECT_EQ(scaled.path, "logs/kth.swf");
  EXPECT_DOUBLE_EQ(scaled.time_scale, 0.01);
}

TEST(SourceSpec, RejectsBadText) {
  EXPECT_THROW(SourceSpec::parse("bogus:x"), std::invalid_argument);
  EXPECT_THROW(SourceSpec::parse("trace"), std::invalid_argument);
  EXPECT_THROW(SourceSpec::parse("trace:"), std::invalid_argument);
  EXPECT_THROW(SourceSpec::parse("swf:p@0"), std::invalid_argument);
  EXPECT_THROW(SourceSpec::parse("swf:p@nope"), std::invalid_argument);
}

TEST(SourceSpec, ValidateCatchesMissingPathAndBadScale) {
  SourceSpec spec;
  spec.kind = SourceKind::kSwf;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec.path = "x.swf";
  spec.time_scale = 0.0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

TEST(SourceSpec, RejectsNonFiniteTimeScale) {
  EXPECT_THROW(SourceSpec::parse("swf:p@inf"), std::invalid_argument);
  EXPECT_THROW(SourceSpec::parse("swf:p@nan"), std::invalid_argument);
  SourceSpec spec;
  spec.kind = SourceKind::kSwf;
  spec.path = "x.swf";
  spec.time_scale = std::numeric_limits<double>::infinity();
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

TEST(SourceSpec, SummaryNamesTheFullStack) {
  SourceSpec spec = SourceSpec::parse("swf:d.swf@0.5");
  spec.modulators = parse_modulators("diurnal:amplitude=0.6,period=500");
  EXPECT_EQ(spec.summary(),
            "swf:d.swf@0.5+diurnal(amplitude=0.6,period=500)");
}

TEST(Modulators, SpecRoundTrips) {
  const std::string text =
      "diurnal:amplitude=0.6,period=500;flash:at=600,width=60,factor=8;"
      "burst:every=300,width=25,alpha=1.4,max=12";
  const auto chain = parse_modulators(text);
  ASSERT_EQ(chain.size(), 3u);
  EXPECT_EQ(chain[0].kind, ModulatorKind::kDiurnal);
  EXPECT_DOUBLE_EQ(chain[0].amplitude, 0.6);
  EXPECT_EQ(chain[1].kind, ModulatorKind::kFlash);
  EXPECT_DOUBLE_EQ(chain[1].factor, 8.0);
  EXPECT_EQ(chain[2].kind, ModulatorKind::kBurst);
  EXPECT_DOUBLE_EQ(chain[2].max_factor, 12.0);
  EXPECT_EQ(modulators_to_spec(chain), text);
  EXPECT_TRUE(parse_modulators("").empty());
}

TEST(Modulators, RejectsBadGrammarAndParameters) {
  EXPECT_THROW(parse_modulators("diurnal"), std::invalid_argument);
  EXPECT_THROW(parse_modulators("wave:amplitude=0.5"),
               std::invalid_argument);
  EXPECT_THROW(parse_modulators("diurnal:amplitude"),
               std::invalid_argument);
  EXPECT_THROW(parse_modulators("diurnal:volume=0.5"),
               std::invalid_argument);
  EXPECT_THROW(parse_modulators("diurnal:amplitude=1.0,period=10"),
               std::invalid_argument);
  EXPECT_THROW(parse_modulators("flash:at=0,width=10,factor=0.5"),
               std::invalid_argument);
  EXPECT_THROW(parse_modulators("burst:every=0,width=10"),
               std::invalid_argument);
  // Non-finite values: NaN passes a plain range test such as
  // `a < 0 || a >= 1`, and an infinity passes most range tests.
  EXPECT_THROW(parse_modulators("diurnal:amplitude=nan"),
               std::invalid_argument);
  EXPECT_THROW(parse_modulators("diurnal:amplitude=0.6,period=inf"),
               std::invalid_argument);
  EXPECT_THROW(parse_modulators("diurnal:amplitude=0,period=nan"),
               std::invalid_argument);
  EXPECT_THROW(parse_modulators("flash:at=nan,width=60,factor=8"),
               std::invalid_argument);
  EXPECT_THROW(parse_modulators("flash:at=600,width=60,factor=inf"),
               std::invalid_argument);
  EXPECT_THROW(parse_modulators("flash:at=600,width=nan,factor=8"),
               std::invalid_argument);
  EXPECT_THROW(parse_modulators("burst:every=inf,width=25"),
               std::invalid_argument);
  EXPECT_THROW(parse_modulators("burst:every=300,width=25,alpha=nan"),
               std::invalid_argument);
  EXPECT_THROW(parse_modulators("burst:every=300,width=25,max=inf"),
               std::invalid_argument);
}

TEST(TimeWarp, RejectsNonFiniteHandBuiltSpecs) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  ModulatorSpec diurnal;
  diurnal.kind = ModulatorKind::kDiurnal;
  diurnal.amplitude = nan;
  diurnal.period = 500.0;
  EXPECT_THROW(TimeWarp(diurnal, util::RandomStream(1)),
               std::invalid_argument);
  diurnal.amplitude = 0.6;
  diurnal.period = inf;
  EXPECT_THROW(TimeWarp(diurnal, util::RandomStream(1)),
               std::invalid_argument);

  ModulatorSpec flash;
  flash.kind = ModulatorKind::kFlash;
  flash.at = nan;
  flash.width = 60.0;
  flash.factor = 8.0;
  EXPECT_THROW(TimeWarp(flash, util::RandomStream(1)), std::invalid_argument);
  flash.at = 600.0;
  flash.factor = inf;
  EXPECT_THROW(TimeWarp(flash, util::RandomStream(1)), std::invalid_argument);

  ModulatorSpec burst;
  burst.kind = ModulatorKind::kBurst;
  burst.every = 300.0;
  burst.mean_width = nan;
  EXPECT_THROW(TimeWarp(burst, util::RandomStream(1)), std::invalid_argument);
}

TEST(TimeWarp, DiurnalInvertsItsRateIntegral) {
  ModulatorSpec spec;
  spec.kind = ModulatorKind::kDiurnal;
  spec.amplitude = 0.7;
  spec.period = 400.0;
  TimeWarp warp(spec, util::RandomStream(1));
  const double two_pi = 2.0 * 3.14159265358979323846;
  const double c = spec.amplitude * spec.period / two_pi;
  double prev = 0.0;
  for (double t = 5.0; t < 2000.0; t += 7.3) {
    const double s = warp.warp(t);
    EXPECT_LE(s, t);                // modulators only add load
    EXPECT_GE(s, prev);             // monotone
    // Lambda(s) == t to bisection resolution.
    const double lam = s + c * (1.0 - std::cos(two_pi * s / spec.period));
    EXPECT_NEAR(lam, t, 1e-6 * t);
    prev = s;
  }
}

TEST(TimeWarp, FlashCompressesTheWindowExactly) {
  ModulatorSpec spec;
  spec.kind = ModulatorKind::kFlash;
  spec.at = 100.0;
  spec.width = 50.0;
  spec.factor = 4.0;
  TimeWarp warp(spec, util::RandomStream(1));
  // Before the onset: identity.
  EXPECT_DOUBLE_EQ(warp.warp(60.0), 60.0);
  EXPECT_DOUBLE_EQ(warp.warp(100.0), 100.0);
  // Inside the flash the base stream maps into [at, at + width) at 4x
  // density: Lambda covers [100, 300) of base time over s in [100, 150).
  EXPECT_DOUBLE_EQ(warp.warp(200.0), 125.0);
  EXPECT_DOUBLE_EQ(warp.warp(300.0), 150.0);
  // Past the window: a constant shift of (factor-1)*width = 150.
  EXPECT_DOUBLE_EQ(warp.warp(500.0), 350.0);
}

TEST(TimeWarp, BurstIsDeterministicAndMonotone) {
  ModulatorSpec spec;
  spec.kind = ModulatorKind::kBurst;
  spec.every = 100.0;
  spec.mean_width = 20.0;
  spec.alpha = 1.4;
  spec.max_factor = 6.0;
  TimeWarp a(spec, util::RandomStream(77));
  TimeWarp b(spec, util::RandomStream(77));
  TimeWarp c(spec, util::RandomStream(78));
  double prev = 0.0;
  bool seed_matters = false;
  for (double t = 1.0; t < 5000.0; t += 11.7) {
    const double sa = a.warp(t);
    EXPECT_DOUBLE_EQ(sa, b.warp(t));  // same seed: same realized train
    if (sa != c.warp(t)) seed_matters = true;
    EXPECT_LE(sa, t);
    EXPECT_GE(sa, prev);
    prev = sa;
  }
  EXPECT_TRUE(seed_matters);
}

TEST(TimeWarp, RejectsDecreasingInputs) {
  ModulatorSpec spec;
  spec.kind = ModulatorKind::kDiurnal;
  spec.amplitude = 0.5;
  spec.period = 100.0;
  TimeWarp warp(spec, util::RandomStream(1));
  warp.warp(10.0);
  EXPECT_THROW(warp.warp(9.0), std::logic_error);
}

TEST(MakeSource, ModulatorsReshapeArrivalsOnly) {
  const WorkloadConfig config = small_workload();
  SourceSpec plain;
  SourceSpec modulated;
  modulated.modulators =
      parse_modulators("diurnal:amplitude=0.8,period=250");
  const auto base = test::first_jobs(*make_source(plain, config, 42, 1e9), 500);
  const auto warped =
      test::first_jobs(*make_source(modulated, config, 42, 1e9), 500);
  ASSERT_EQ(warped.size(), base.size());  // count preserved
  double prev = -1.0;
  for (std::size_t i = 0; i < base.size(); ++i) {
    EXPECT_LE(warped[i].arrival, base[i].arrival);
    EXPECT_GE(warped[i].arrival, prev);  // order preserved
    prev = warped[i].arrival;
    // Everything but the arrival instant is untouched.
    EXPECT_EQ(warped[i].id, base[i].id);
    EXPECT_DOUBLE_EQ(warped[i].exec_time, base[i].exec_time);
    EXPECT_DOUBLE_EQ(warped[i].benefit_factor, base[i].benefit_factor);
    EXPECT_EQ(warped[i].origin_cluster, base[i].origin_cluster);
  }
}

TEST(MakeSource, ChainPositionsDrawFromIsolatedSubstreams) {
  // Appending a stage must not perturb the stages before it: position i
  // always derives its RNG from modulator_seeds(seed).at(i).
  const WorkloadConfig config = small_workload();
  SourceSpec just_burst;
  just_burst.modulators = parse_modulators("burst:every=80,width=15");
  SourceSpec burst_plus_identity = just_burst;
  // A zero-amplitude diurnal warps nothing, so any output difference
  // could only come from the burst stage drawing a different substream.
  burst_plus_identity.modulators.push_back(
      parse_modulators("diurnal:amplitude=0,period=1").front());
  const auto a =
      test::first_jobs(*make_source(just_burst, config, 42, 1e9), 300);
  const auto b = test::first_jobs(
      *make_source(burst_plus_identity, config, 42, 1e9), 300);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].arrival, b[i].arrival);
  }
}

TEST(ArrivalCacheTest, MissGeneratesThenHitsRecall) {
  ArrivalCache::instance().clear();
  const WorkloadConfig config = small_workload();
  const SourceSpec spec;
  const std::array<std::uint64_t, 2> key = {0xabcdefULL, 0x123456ULL};
  const Arrivals first = arrivals(key, spec, config, 42, 400.0, true);
  EXPECT_FALSE(first.from_cache);
  const auto stored = ArrivalCache::instance().lookup(key);
  ASSERT_TRUE(stored);
  EXPECT_FALSE(stored->empty());
  const Arrivals second = arrivals(key, spec, config, 42, 400.0, true);
  EXPECT_TRUE(second.from_cache);
  // Shared, not copied: the cache still holds the one vector.
  EXPECT_EQ(ArrivalCache::instance().lookup(key).get(), stored.get());
  EXPECT_EQ(ArrivalCache::instance().size(), 1u);
  EXPECT_GE(ArrivalCache::instance().hits(), 1u);
}

TEST(ArrivalCacheTest, FirstInsertWins) {
  ArrivalCache& cache = ArrivalCache::instance();
  cache.clear();
  const std::array<std::uint64_t, 2> key = {7ULL, 9ULL};
  auto first = std::make_shared<const std::vector<Job>>(1);
  auto second = std::make_shared<const std::vector<Job>>(2);
  EXPECT_EQ(cache.store(key, first).get(), first.get());
  // A racing second insert is dropped; the canonical vector survives.
  EXPECT_EQ(cache.store(key, second).get(), first.get());
  EXPECT_EQ(cache.size(), 1u);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
}

}  // namespace
}  // namespace scal::workload
