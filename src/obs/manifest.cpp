#include "obs/manifest.hpp"

#include <ctime>
#include <fstream>

#include "obs/json.hpp"
#include "util/log.hpp"

#ifndef SCAL_GIT_DESCRIBE
#define SCAL_GIT_DESCRIBE "unknown"
#endif

namespace scal::obs {

std::string git_describe() { return SCAL_GIT_DESCRIBE; }

std::string utc_timestamp() {
  const std::time_t now = std::time(nullptr);
  std::tm tm{};
  gmtime_r(&now, &tm);
  char buf[32];
  std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

std::string RunManifest::to_json() const {
  JsonObject obj;
  obj.field("label", label)
      .field("started_at", started_at)
      .field("git", git_version)
      .field("wall_seconds", wall_seconds)
      .field("jobs", jobs);

  for (const auto& [key, block] : run_blocks) obj.raw(key, block);

  if (anneal_iterations > 0) {
    JsonObject anneal;
    anneal.field("iterations", anneal_iterations)
        .field("accepted", anneal_accepted)
        .field("improving", anneal_improving)
        .field("best_objective", anneal_best_objective);
    obj.raw("anneal", anneal.str());
  }

  if (reuse_enabled) {
    JsonObject reuse;
    reuse.field("tree_shares", reuse_tree_shares)
        .field("tree_publishes", reuse_tree_publishes)
        .field("inflight_waits", reuse_inflight_waits)
        .field("disk_hits", reuse_disk_hits)
        .field("disk_entries", reuse_disk_entries);
    obj.raw("reuse", reuse.str());
  }

  if (!metrics_json.empty()) obj.raw("metrics", metrics_json);

  if (peak_rss_bytes > 0) obj.field("peak_rss_bytes", peak_rss_bytes);

  if (tuner_evaluations > 0) {
    JsonObject tuner;
    tuner.field("evaluations", tuner_evaluations)
        .field("cache_hits", tuner_cache_hits)
        .field("hit_rate", static_cast<double>(tuner_cache_hits) /
                               static_cast<double>(tuner_evaluations));
    obj.raw("tuner", tuner.str());
  }
  return obj.str();
}

bool RunManifest::append_jsonl(const std::string& path) const {
  std::ofstream out(path, std::ios::app);
  if (!out) {
    SCAL_WARN("manifest: cannot open " << path);
    return false;
  }
  out << to_json() << '\n';
  return static_cast<bool>(out);
}

}  // namespace scal::obs
