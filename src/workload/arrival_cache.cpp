#include "workload/arrival_cache.hpp"

#include "util/env.hpp"

namespace scal::workload {

ArrivalCache& ArrivalCache::instance() {
  static ArrivalCache cache;
  static const bool env_applied = []() {
    const std::uint64_t budget =
        util::env_count("SCAL_ARRIVAL_CACHE_BYTES", 0);
    if (budget > 0) cache.set_max_bytes(static_cast<std::size_t>(budget));
    return true;
  }();
  (void)env_applied;
  return cache;
}

// Out of line, so the cache is instantiated here and not in every
// caller's translation unit.
std::shared_ptr<const std::vector<Job>> ArrivalCache::lookup(const Key& key) {
  return ArrivalFifo::lookup(key);
}

std::shared_ptr<const std::vector<Job>> ArrivalCache::store(
    const Key& key, std::shared_ptr<const std::vector<Job>> jobs) {
  return insert(key, std::move(jobs));
}

}  // namespace scal::workload
