#include "workload/arrival_cache.hpp"

#include <algorithm>

#include "util/env.hpp"

namespace scal::workload {

ArrivalCache& ArrivalCache::instance() {
  static ArrivalCache cache;
  static const bool env_applied = []() {
    const std::int64_t budget = util::env_int("SCAL_ARRIVAL_CACHE_BYTES", 0);
    if (budget > 0) cache.set_max_bytes(static_cast<std::size_t>(budget));
    return true;
  }();
  (void)env_applied;
  return cache;
}

std::shared_ptr<const std::vector<Job>> ArrivalCache::lookup(const Key& key) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  return it->second;
}

std::shared_ptr<const std::vector<Job>> ArrivalCache::store(
    const Key& key, std::shared_ptr<const std::vector<Job>> jobs) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto [it, inserted] = entries_.try_emplace(key, std::move(jobs));
  if (inserted) {
    // Copied before the budget check, which may evict (erase) this very
    // entry: the returned pointer keeps the payload alive, it just is
    // not memoized.
    auto canonical = it->second;
    bytes_ += payload_bytes(*canonical);
    insertion_order_.push_back(key);
    enforce_budget_locked();
    return canonical;
  }
  return it->second;
}

void ArrivalCache::enforce_budget_locked() {
  while (max_bytes_ != 0 && bytes_ > max_bytes_ && !insertion_order_.empty()) {
    const Key victim = insertion_order_.front();
    insertion_order_.pop_front();
    const auto it = entries_.find(victim);
    if (it == entries_.end()) continue;
    bytes_ -= std::min(bytes_, payload_bytes(*it->second));
    entries_.erase(it);
    ++evictions_;
  }
}

void ArrivalCache::set_max_bytes(std::size_t bytes) {
  const std::lock_guard<std::mutex> lock(mutex_);
  max_bytes_ = bytes;
  enforce_budget_locked();
}

std::size_t ArrivalCache::max_bytes() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return max_bytes_;
}

std::size_t ArrivalCache::bytes() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return bytes_;
}

std::uint64_t ArrivalCache::hits() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return hits_;
}

std::uint64_t ArrivalCache::misses() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return misses_;
}

std::uint64_t ArrivalCache::evictions() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return evictions_;
}

std::uint64_t ArrivalCache::store_skips() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return store_skips_;
}

void ArrivalCache::count_store_skip() {
  const std::lock_guard<std::mutex> lock(mutex_);
  ++store_skips_;
}

std::size_t ArrivalCache::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

void ArrivalCache::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  entries_.clear();
  insertion_order_.clear();
  bytes_ = 0;
  hits_ = 0;
  misses_ = 0;
  evictions_ = 0;
  store_skips_ = 0;
}

}  // namespace scal::workload
