#include "core/eval_store.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "core/tuner.hpp"
#include "support/result_equal.hpp"

namespace scal::core {
namespace {

namespace fs = std::filesystem;

/// Fresh path under the system temp dir, removed on destruction.
struct TempFile {
  fs::path path;
  explicit TempFile(const std::string& name)
      : path(fs::temp_directory_path() / name) {
    std::error_code ec;
    fs::remove(path, ec);
  }
  ~TempFile() {
    std::error_code ec;
    fs::remove(path, ec);
  }
  std::string str() const { return path.string(); }
};

/// Fresh directory under the system temp dir, removed with its contents
/// on destruction; lets a test see every file a save leaves behind.
struct TempDir {
  fs::path path;
  explicit TempDir(const std::string& name)
      : path(fs::temp_directory_path() /
             (name + "-" + std::to_string(::getpid()))) {
    std::error_code ec;
    fs::remove_all(path, ec);
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string str(const std::string& file) const {
    return (path / file).string();
  }
  std::set<std::string> listing() const {
    std::set<std::string> names;
    for (const auto& entry : fs::directory_iterator(path)) {
      names.insert(entry.path().filename().string());
    }
    return names;
  }
};

/// Whole file contents; empty when the file is missing.
std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

opt::EvalKey key(double a, double b, std::uint64_t d0 = 11,
                 std::uint64_t d1 = 22) {
  opt::EvalKey k;
  k.digest = {d0, d1};
  k.point = {a, b};
  return k;
}

/// A result with every serialized field set to a distinct value,
/// including doubles without exact binary representations — the store
/// must round-trip bit patterns, not decimal renderings.  Walks the
/// result schema, so a new field is covered without touching the test.
grid::SimulationResult make_result(double base) {
  grid::SimulationResult r;
  const auto u = static_cast<std::uint64_t>(base);
  std::uint64_t n = 0;
  grid::for_each_field(
      [&](grid::FieldName, auto& v) {
        using T = std::decay_t<decltype(v)>;
        ++n;
        if constexpr (std::is_same_v<T, double>) {
          v = base + static_cast<double>(n) / 7.0;
        } else if constexpr (std::is_same_v<T, bool> || std::is_enum_v<T>) {
          v = static_cast<T>((u + n) % 2);
        } else {
          v = static_cast<T>(u + n);
        }
      },
      r);
  return r;
}

std::uint64_t bits(double v) {
  std::uint64_t out = 0;
  std::memcpy(&out, &v, sizeof(out));
  return out;
}

#define EXPECT_BITEQ(a, b) EXPECT_EQ(bits(a), bits(b))

TEST(EvalStore, RoundTripIsBitwiseExact) {
  TempFile file("eval_store_roundtrip.evc");
  EvalCache source;
  source.fulfill(key(1.5, 2.5), make_result(3.0));
  source.fulfill(key(-0.75, 1e9, 33, 44), make_result(7.0));
  source.fulfill(key(0.0, -0.0), make_result(11.0));
  ASSERT_EQ(save_eval_cache(source, file.str(), "test-v1"), 3u);

  EvalCache loaded;
  const auto stats = load_eval_cache(loaded, file.str(), "test-v1");
  EXPECT_TRUE(stats.found);
  EXPECT_FALSE(stats.version_mismatch);
  EXPECT_EQ(stats.entries_in_file, 3u);
  EXPECT_EQ(stats.loaded, 3u);
  EXPECT_EQ(loaded.preloaded(), 3u);

  for (const auto& [k, v] : source.snapshot()) {
    const auto got = loaded.acquire(k);
    ASSERT_TRUE(got.has_value()) << "key lost in round trip";
    test::expect_same_result(v, *got);
  }
}

TEST(EvalStore, SavedFilesAreByteDeterministic) {
  TempFile a("eval_store_det_a.evc");
  TempFile b("eval_store_det_b.evc");
  // Different insertion orders into different caches: the sorted writer
  // must still emit identical bytes.
  EvalCache first;
  first.fulfill(key(1.0, 2.0), make_result(1.0));
  first.fulfill(key(3.0, 4.0, 5, 6), make_result(2.0));
  first.fulfill(key(-1.0, 0.5), make_result(3.0));
  EvalCache second;
  second.fulfill(key(-1.0, 0.5), make_result(3.0));
  second.fulfill(key(1.0, 2.0), make_result(1.0));
  second.fulfill(key(3.0, 4.0, 5, 6), make_result(2.0));
  ASSERT_EQ(save_eval_cache(first, a.str(), "test-v1"), 3u);
  ASSERT_EQ(save_eval_cache(second, b.str(), "test-v1"), 3u);

  std::ifstream fa(a.path, std::ios::binary);
  std::ifstream fb(b.path, std::ios::binary);
  const std::string bytes_a((std::istreambuf_iterator<char>(fa)),
                            std::istreambuf_iterator<char>());
  const std::string bytes_b((std::istreambuf_iterator<char>(fb)),
                            std::istreambuf_iterator<char>());
  ASSERT_FALSE(bytes_a.empty());
  EXPECT_EQ(bytes_a, bytes_b);
}

TEST(EvalStore, CodeVersionMismatchDiscardsWholeFile) {
  TempFile file("eval_store_version.evc");
  EvalCache source;
  source.fulfill(key(1.0, 1.0), make_result(1.0));
  ASSERT_EQ(save_eval_cache(source, file.str(), "v1.0-abc"), 1u);

  EvalCache loaded;
  const auto stats = load_eval_cache(loaded, file.str(), "v1.1-def");
  EXPECT_TRUE(stats.found);
  EXPECT_TRUE(stats.version_mismatch);
  EXPECT_EQ(stats.loaded, 0u);
  EXPECT_EQ(loaded.size(), 0u);
}

TEST(EvalStore, MissingFileIsACleanColdStart) {
  EvalCache cache;
  const auto stats =
      load_eval_cache(cache, "/nonexistent/dir/never.evc", "test-v1");
  EXPECT_FALSE(stats.found);
  EXPECT_FALSE(stats.version_mismatch);
  EXPECT_EQ(stats.loaded, 0u);
}

TEST(EvalStore, CorruptAndTruncatedFilesAreDiscarded) {
  TempFile file("eval_store_corrupt.evc");
  EvalCache source;
  source.fulfill(key(1.0, 1.0), make_result(1.0));
  source.fulfill(key(2.0, 2.0), make_result(2.0));
  ASSERT_EQ(save_eval_cache(source, file.str(), "test-v1"), 2u);

  // Truncate: keep the header plus part of an entry.  Whole-file
  // discard — a partially-written cache must not half-load.
  std::ifstream in(file.path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  {
    std::ofstream out(file.path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size() - 16));
  }
  EvalCache truncated;
  auto stats = load_eval_cache(truncated, file.str(), "test-v1");
  EXPECT_TRUE(stats.found);
  EXPECT_TRUE(stats.version_mismatch);
  EXPECT_EQ(truncated.size(), 0u);

  // Garbage magic.
  {
    std::ofstream out(file.path, std::ios::binary | std::ios::trunc);
    out << "not an eval cache at all";
  }
  EvalCache garbage;
  stats = load_eval_cache(garbage, file.str(), "test-v1");
  EXPECT_TRUE(stats.found);
  EXPECT_TRUE(stats.version_mismatch);
  EXPECT_EQ(garbage.size(), 0u);

  // Empty file.
  { std::ofstream out(file.path, std::ios::binary | std::ios::trunc); }
  EvalCache empty;
  stats = load_eval_cache(empty, file.str(), "test-v1");
  EXPECT_TRUE(stats.found);
  EXPECT_TRUE(stats.version_mismatch);
  EXPECT_EQ(empty.size(), 0u);
}

TEST(EvalStore, SaveSkipsInFlightClaims) {
  TempFile file("eval_store_claims.evc");
  EvalCache cache;
  cache.fulfill(key(1.0, 1.0), make_result(1.0));
  ASSERT_FALSE(cache.acquire(key(2.0, 2.0)).has_value());  // never fulfilled
  EXPECT_EQ(save_eval_cache(cache, file.str(), "test-v1"), 1u);
  cache.abandon(key(2.0, 2.0));
}

/// Fulfills `entries` results keyed at points (base + i, base - i).
void fill(EvalCache& cache, double base, int entries) {
  for (int i = 0; i < entries; ++i) {
    cache.fulfill(key(base + i, base - i), make_result(base + i));
  }
}

TEST(EvalStore, SecondSaveReplacesTheFirstAndLeavesNoTempFile) {
  TempDir dir("eval_store_replace");
  const std::string path = dir.str("cache.evc");
  EvalCache first;
  fill(first, 1.0, 3);
  EvalCache second;
  fill(second, 100.0, 2);
  ASSERT_EQ(save_eval_cache(first, path, "test-v1"), 3u);
  ASSERT_EQ(save_eval_cache(second, path, "test-v1"), 2u);

  EvalCache loaded;
  const auto stats = load_eval_cache(loaded, path, "test-v1");
  EXPECT_FALSE(stats.version_mismatch);
  EXPECT_EQ(stats.loaded, 2u);
  EXPECT_TRUE(loaded.acquire(key(101.0, 99.0)).has_value());
  EXPECT_FALSE(loaded.acquire(key(1.0, 1.0)).has_value());
  EXPECT_EQ(dir.listing(), std::set<std::string>{"cache.evc"});
}

TEST(EvalStore, FailedRenameThrowsAndLeavesNoTempFile) {
  TempDir dir("eval_store_rename");
  // A directory in the target's place: the temp file is written, but
  // renaming it over the target fails.
  fs::create_directory(dir.path / "cache.evc");
  EvalCache cache;
  fill(cache, 1.0, 3);
  EXPECT_THROW(save_eval_cache(cache, dir.str("cache.evc"), "test-v1"),
               std::runtime_error);
  EXPECT_EQ(dir.listing(), std::set<std::string>{"cache.evc"});
  EXPECT_TRUE(fs::is_directory(dir.path / "cache.evc"));
}

TEST(EvalStore, ConcurrentSavesNeverLeaveATornFile) {
  TempDir dir("eval_store_concurrent");
  // Large enough that one save takes many write calls.
  EvalCache a;
  fill(a, 1.0, 300);
  EvalCache b;
  fill(b, 1000.0, 200);
  save_eval_cache(a, dir.str("a.evc"), "test-v1");
  save_eval_cache(b, dir.str("b.evc"), "test-v1");
  const std::string bytes_a = read_bytes(dir.str("a.evc"));
  const std::string bytes_b = read_bytes(dir.str("b.evc"));
  ASSERT_NE(bytes_a, bytes_b);

  const std::string shared = dir.str("shared.evc");
  std::atomic<bool> writing{true};
  std::atomic<int> torn{0};
  std::thread reader([&] {
    while (writing.load()) {
      const std::string bytes = read_bytes(shared);
      if (!bytes.empty() && bytes != bytes_a && bytes != bytes_b) ++torn;
    }
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < 4; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < 25; ++i) {
        save_eval_cache((i + w) % 2 == 0 ? a : b, shared, "test-v1");
      }
    });
  }
  for (std::thread& t : writers) t.join();
  writing = false;
  reader.join();

  EXPECT_EQ(torn.load(), 0);
  const std::string final_bytes = read_bytes(shared);
  EXPECT_TRUE(final_bytes == bytes_a || final_bytes == bytes_b);
  EvalCache loaded;
  const auto stats = load_eval_cache(loaded, shared, "test-v1");
  EXPECT_FALSE(stats.version_mismatch);
  EXPECT_TRUE(stats.loaded == 300u || stats.loaded == 200u);
  EXPECT_EQ(dir.listing(),
            (std::set<std::string>{"a.evc", "b.evc", "shared.evc"}));
}

/// Analytic stand-in with a known interior optimum (mirrors
/// tuner_test.cpp) so warm-vs-cold objective identity is checkable
/// without running the simulator.
grid::SimulationResult fake_sim(const grid::GridConfig& config) {
  const double tau = config.tuning.update_interval;
  grid::SimulationResult r;
  r.G_scheduler = 100.0 + 2000.0 / tau + 3.0 * tau;
  const double e = 0.60 - 0.004 * std::abs(tau - 20.0);
  r.F = 1000.0;
  r.H_control = r.F / e - r.F - r.G_scheduler;
  return r;
}

TEST(EvalStore, WarmTuneIsBitIdenticalAndRunsNothing) {
  TempFile file("eval_store_warm.evc");
  const ScalingCase scase = ScalingCase::case1_network_size();
  grid::GridConfig config;
  config.topology.nodes = 100;
  TunerConfig tuner;
  tuner.e0 = 0.58;
  tuner.band = 0.02;
  tuner.evaluations = 40;

  EvalCache cold_cache;
  tuner.cache = &cold_cache;
  std::atomic<int> cold_runs{0};
  const auto cold = tune_enablers(
      config, scase, tuner,
      [&](const grid::GridConfig& c) { ++cold_runs; return fake_sim(c); });
  ASSERT_GT(cold_runs.load(), 0);
  ASSERT_GT(save_eval_cache(cold_cache, file.str(), "test-v1"), 0u);

  EvalCache warm_cache;
  const auto stats = load_eval_cache(warm_cache, file.str(), "test-v1");
  ASSERT_GT(stats.loaded, 0u);
  tuner.cache = &warm_cache;
  std::atomic<int> warm_runs{0};
  const auto warm = tune_enablers(
      config, scase, tuner,
      [&](const grid::GridConfig& c) { ++warm_runs; return fake_sim(c); });

  // The search replays the same points: every evaluation answers from
  // disk, and the outcome is bit-identical to the cold run.
  EXPECT_EQ(warm_runs.load(), 0);
  EXPECT_GT(warm_cache.disk_hits(), 0u);
  EXPECT_BITEQ(warm.objective, cold.objective);
  EXPECT_BITEQ(warm.tuning.update_interval, cold.tuning.update_interval);
  EXPECT_EQ(warm.feasible, cold.feasible);
  EXPECT_EQ(warm.evaluations, cold.evaluations);
  // Hit STATS legitimately differ: warm, every evaluation is a
  // prior-epoch hit against the preloaded entries; cold, only the
  // search's own repeats count.  The outcome above is what must match.
  EXPECT_GE(warm.cache_hits, cold.cache_hits);
  EXPECT_GT(warm.cache_prior_hits, 0u);
  EXPECT_EQ(cold.cache_prior_hits, 0u);
}

}  // namespace
}  // namespace scal::core
