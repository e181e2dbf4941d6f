#include "core/eval_store.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "obs/manifest.hpp"

namespace scal::core {

namespace {

constexpr char kMagic[4] = {'S', 'E', 'V', 'C'};
constexpr std::uint32_t kEndianProbe = 0x01020304u;
constexpr std::uint32_t kFormatVersion = 1;
// Bump whenever the serialized SimulationResult field set changes; the
// static_assert below trips on silent struct growth so the bump cannot
// be forgotten.
constexpr std::uint32_t kValueSchema = 1;
#if defined(__x86_64__) && defined(__linux__)
static_assert(sizeof(grid::SimulationResult) == 496,
              "SimulationResult layout changed: extend write_value/"
              "read_value and bump kValueSchema");
#endif

// A single field walk shared by the writer and the reader keeps the two
// in lockstep by construction: each Codec maps f64/u64/b8/u32e onto
// stream writes or stream reads.

struct Writer {
  std::ostream& out;
  void raw64(std::uint64_t bits) {
    char buf[8];
    std::memcpy(buf, &bits, sizeof(buf));
    out.write(buf, sizeof(buf));
  }
  void raw32(std::uint32_t bits) {
    char buf[4];
    std::memcpy(buf, &bits, sizeof(buf));
    out.write(buf, sizeof(buf));
  }
  void f64(const double& v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    raw64(bits);
  }
  void u64(const std::uint64_t& v) { raw64(v); }
  void usize(const std::size_t& v) { raw64(static_cast<std::uint64_t>(v)); }
  void b8(const bool& v) { out.put(v ? '\1' : '\0'); }
  void u32e(const grid::ResultMode& v) {
    raw32(static_cast<std::uint32_t>(v));
  }
  bool ok() const { return static_cast<bool>(out); }
};

struct Reader {
  std::istream& in;
  bool good = true;
  std::uint64_t raw64() {
    char buf[8];
    in.read(buf, sizeof(buf));
    if (!in) {
      good = false;
      return 0;
    }
    std::uint64_t bits = 0;
    std::memcpy(&bits, buf, sizeof(bits));
    return bits;
  }
  std::uint32_t raw32() {
    char buf[4];
    in.read(buf, sizeof(buf));
    if (!in) {
      good = false;
      return 0;
    }
    std::uint32_t bits = 0;
    std::memcpy(&bits, buf, sizeof(bits));
    return bits;
  }
  void f64(double& v) {
    const std::uint64_t bits = raw64();
    std::memcpy(&v, &bits, sizeof(v));
  }
  void u64(std::uint64_t& v) { v = raw64(); }
  void usize(std::size_t& v) { v = static_cast<std::size_t>(raw64()); }
  void b8(bool& v) {
    const int c = in.get();
    if (c == std::istream::traits_type::eof()) {
      good = false;
      v = false;
      return;
    }
    v = c != 0;
  }
  void u32e(grid::ResultMode& v) {
    v = static_cast<grid::ResultMode>(raw32());
  }
  bool ok() const { return good && static_cast<bool>(in); }
};

/// Every SimulationResult field except the non-owning telemetry pointer
/// (meaningless across processes; deserialized values leave it null).
template <typename Codec, typename Result>
void visit_value(Codec& c, Result& r) {
  c.f64(r.F);
  c.f64(r.G_scheduler);
  c.f64(r.G_estimator);
  c.f64(r.G_middleware);
  c.f64(r.G_aggregator);
  c.f64(r.H_control);
  c.f64(r.H_wasted);
  c.f64(r.G_scheduler_max_share);
  c.f64(r.G_scheduler_max);
  c.f64(r.throughput);
  c.f64(r.mean_response);
  c.f64(r.p95_response);
  c.u64(r.jobs_arrived);
  c.u64(r.jobs_local);
  c.u64(r.jobs_remote);
  c.u64(r.jobs_completed);
  c.u64(r.jobs_succeeded);
  c.u64(r.jobs_missed_deadline);
  c.u64(r.jobs_unfinished);
  c.u64(r.polls);
  c.u64(r.transfers);
  c.u64(r.auctions);
  c.u64(r.adverts);
  c.u64(r.updates_received);
  c.u64(r.updates_suppressed);
  c.u64(r.network_messages);
  c.u64(r.messages_dropped);
  c.u64(r.events_dispatched);
  c.f64(r.horizon);
  c.u64(r.ctrl_updates_in);
  c.u64(r.ctrl_updates_coalesced);
  c.u64(r.ctrl_batches);
  c.u64(r.ctrl_tree_depth);
  c.u64(r.resource_crashes);
  c.u64(r.resource_recoveries);
  c.u64(r.jobs_killed);
  c.u64(r.jobs_requeued);
  c.u64(r.jobs_lost);
  c.u64(r.round_retries);
  c.u64(r.status_evictions);
  c.u64(r.blackout_drops);
  c.u64(r.aggregator_blackouts);
  c.u64(r.messages_delayed);
  c.u64(r.messages_duplicated);
  c.f64(r.resource_downtime);
  c.f64(r.availability);
  c.usize(r.workload_stats.jobs);
  c.usize(r.workload_stats.local_jobs);
  c.usize(r.workload_stats.remote_jobs);
  c.f64(r.workload_stats.mean_interarrival);
  c.f64(r.workload_stats.mean_exec_time);
  c.f64(r.workload_stats.max_exec_time);
  c.f64(r.workload_stats.total_demand);
  c.f64(r.workload_stats.span);
  c.b8(r.workload_from_cache);
  c.u32e(r.result_mode);
  c.u64(r.job_log_records);
  c.u64(r.job_log_dropped);
  c.u64(r.arena_high_water);
  c.u64(r.arena_reuses);
  c.u64(r.arrival_cache_evictions);
  c.u64(r.arrival_cache_store_skips);
}

bool key_less(const opt::EvalKey& a, const opt::EvalKey& b) {
  if (a.digest != b.digest) return a.digest < b.digest;
  return a.point < b.point;
}

}  // namespace

std::string eval_cache_code_version() { return obs::git_describe(); }

std::size_t save_eval_cache(const EvalCache& cache, const std::string& path,
                            const std::string& code_version) {
  std::vector<std::pair<opt::EvalKey, grid::SimulationResult>> entries =
      cache.snapshot();
  // Deterministic file bytes: hash-map iteration order never leaks.
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return key_less(a.first, b.first); });

  // Write a uniquely named sibling, then rename it over the target: a
  // killed run leaves at most a stray temp file, and a reader or a
  // concurrent writer only ever sees a whole file.
  static std::atomic<std::uint64_t> next_temp{0};
  const std::string temp = path + ".tmp-" + std::to_string(::getpid()) +
                           "-" + std::to_string(next_temp.fetch_add(1));
  struct TempFile {  // removed on every path that does not rename it
    const std::string& path;
    bool renamed = false;
    ~TempFile() {
      if (!renamed) std::remove(path.c_str());
    }
  } temp_file{temp};

  std::ofstream out(temp, std::ios::binary | std::ios::trunc);
  if (!out) {
    throw std::runtime_error("eval_store: cannot write " + temp);
  }
  Writer w{out};
  out.write(kMagic, sizeof(kMagic));
  w.raw32(kEndianProbe);
  w.raw32(kFormatVersion);
  w.raw32(kValueSchema);
  w.raw32(static_cast<std::uint32_t>(code_version.size()));
  out.write(code_version.data(),
            static_cast<std::streamsize>(code_version.size()));
  w.raw64(entries.size());
  for (auto& [key, value] : entries) {
    w.raw64(key.digest[0]);
    w.raw64(key.digest[1]);
    w.raw32(static_cast<std::uint32_t>(key.point.size()));
    for (const double coordinate : key.point) w.f64(coordinate);
    // The pointer field is process-local; the walk below skips it and
    // loaders leave it null.
    visit_value(w, value);
  }
  out.close();
  if (!w.ok()) {
    throw std::runtime_error("eval_store: short write to " + temp);
  }
  if (std::rename(temp.c_str(), path.c_str()) != 0) {
    throw std::runtime_error("eval_store: cannot replace " + path);
  }
  temp_file.renamed = true;
  return entries.size();
}

std::size_t save_eval_cache(const EvalCache& cache, const std::string& path) {
  return save_eval_cache(cache, path, eval_cache_code_version());
}

EvalStoreStats load_eval_cache(EvalCache& cache, const std::string& path,
                               const std::string& code_version) {
  EvalStoreStats stats;
  std::ifstream in(path, std::ios::binary);
  if (!in) return stats;  // cold: no file yet
  stats.found = true;

  Reader r{in};
  char magic[4] = {};
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0 ||
      r.raw32() != kEndianProbe || r.raw32() != kFormatVersion ||
      r.raw32() != kValueSchema) {
    stats.version_mismatch = true;
    return stats;
  }
  const std::uint32_t version_len = r.raw32();
  if (!r.ok() || version_len > 4096) {
    stats.version_mismatch = true;
    return stats;
  }
  std::string file_version(version_len, '\0');
  in.read(file_version.data(), static_cast<std::streamsize>(version_len));
  if (!in || file_version != code_version) {
    stats.version_mismatch = true;
    return stats;
  }
  const std::uint64_t count = r.raw64();
  if (!r.ok()) {
    stats.version_mismatch = true;
    return stats;
  }
  stats.entries_in_file = static_cast<std::size_t>(count);

  // Parse fully before touching the cache: a truncated file is
  // discarded whole rather than half-preloaded.
  std::vector<std::pair<opt::EvalKey, grid::SimulationResult>> parsed;
  parsed.reserve(stats.entries_in_file);
  for (std::uint64_t i = 0; i < count; ++i) {
    opt::EvalKey key;
    key.digest[0] = r.raw64();
    key.digest[1] = r.raw64();
    const std::uint32_t dims = r.raw32();
    if (!r.ok() || dims > 1024) {
      stats.version_mismatch = true;
      return stats;
    }
    key.point.resize(dims);
    for (double& coordinate : key.point) r.f64(coordinate);
    grid::SimulationResult value;
    visit_value(r, value);
    if (!r.ok()) {
      stats.version_mismatch = true;
      return stats;
    }
    parsed.emplace_back(std::move(key), std::move(value));
  }

  for (auto& [key, value] : parsed) {
    cache.preload(key, value);
    ++stats.loaded;
  }
  return stats;
}

EvalStoreStats load_eval_cache(EvalCache& cache, const std::string& path) {
  return load_eval_cache(cache, path, eval_cache_code_version());
}

}  // namespace scal::core
