#pragma once
// FifoCache: a thread-safe memo of immutable values behind shared_ptr,
// with an optional byte budget enforced oldest-first.  It is the one
// primitive behind the process-wide reuse caches:
// workload::ArrivalCache (generated arrival streams) and
// net::SharedTreeCache (settled router source trees).
//
// Entries are pure functions of their keys, so insertion is
// first-insert-wins: racing producers build equal values and the first
// one becomes canonical.  A caller may let a better value replace an
// entry (the tree cache takes a strictly deeper tree); a
// replacement happens in place and keeps the entry's FIFO slot.
//
// A value larger than the whole budget is handed back unstored: it
// evicts nothing and counts one eviction.
//
// One plain std::mutex guards the map and the counters.  Callers look
// a key up once per run or per routed source, so the exclusive lock is
// never contended enough to matter; a reader-writer lock with atomic
// counters measured slower (docs/PERFORMANCE.md).

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>

namespace scal::util {

template <class Key, class Value, class Hash = std::hash<Key>>
class FifoCache {
 public:
  using Ptr = std::shared_ptr<const Value>;
  /// Resident payload bytes of one value: the budget's unit.
  using Sizer = std::size_t (*)(const Value&);

  explicit FifoCache(Sizer bytes_of) : bytes_of_(bytes_of) {}

  /// The entry for `key`, or null.  Counts a hit or a miss.
  Ptr lookup(const Key& key) {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entries_.find(key);
    if (it == entries_.end()) {
      ++counters_.misses;
      return nullptr;
    }
    ++counters_.hits;
    return it->second;
  }

  /// Insert `value` for `key`.  An existing entry wins, and is
  /// returned, unless `replaces(existing)` is true.  Otherwise returns
  /// `value`, stored or (when the budget cannot keep it) not.
  template <class Replaces>
  Ptr insert(const Key& key, Ptr value, Replaces replaces) {
    const std::size_t cost = bytes_of_(*value);
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entries_.find(key);
    if (it != entries_.end() && !replaces(*it->second)) return it->second;
    if (max_bytes_ != 0 && cost > max_bytes_) {
      ++counters_.evictions;
      return value;
    }
    if (it != entries_.end()) {
      bytes_ -= bytes_of_(*it->second);
      it->second = value;
      ++counters_.replacements;
    } else {
      entries_.emplace(key, value);
      order_.push_back(key);
      ++counters_.inserts;
    }
    bytes_ += cost;
    evict_to_budget();
    return value;
  }
  /// First-insert-wins with no replacement.
  Ptr insert(const Key& key, Ptr value) {
    return insert(key, std::move(value), [](const Value&) { return false; });
  }

  /// Byte budget for resident values; 0 = unbounded (the default).
  void set_max_bytes(std::size_t bytes) {
    const std::lock_guard<std::mutex> lock(mutex_);
    max_bytes_ = bytes;
    evict_to_budget();
  }
  std::size_t max_bytes() const { return locked(max_bytes_); }
  /// Total payload bytes currently resident.
  std::size_t bytes() const { return locked(bytes_); }
  /// Resident entries.
  std::size_t size() const { return locked(entries_.size()); }

  std::uint64_t hits() const { return locked(counters_.hits); }
  std::uint64_t misses() const { return locked(counters_.misses); }
  /// Values stored under a new key.
  std::uint64_t inserts() const { return locked(counters_.inserts); }
  /// Values that replaced an existing entry.
  std::uint64_t replacements() const {
    return locked(counters_.replacements);
  }
  /// Entries dropped, or values refused, to honor the byte budget.
  std::uint64_t evictions() const { return locked(counters_.evictions); }

  /// Drop every entry and zero the counters; the byte budget is kept.
  /// Holders of returned values keep them alive.
  void clear() {
    const std::lock_guard<std::mutex> lock(mutex_);
    entries_.clear();
    order_.clear();
    bytes_ = 0;
    counters_ = Counters{};
  }

 private:
  struct Counters {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t inserts = 0;
    std::uint64_t replacements = 0;
    std::uint64_t evictions = 0;
  };

  template <class T>
  T locked(const T& field) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return field;
  }

  /// Evict oldest-first until the payload fits the budget (lock held).
  void evict_to_budget() {
    while (max_bytes_ != 0 && bytes_ > max_bytes_ && !order_.empty()) {
      const auto it = entries_.find(order_.front());
      order_.pop_front();
      bytes_ -= bytes_of_(*it->second);
      entries_.erase(it);
      ++counters_.evictions;
    }
  }

  Sizer bytes_of_;
  mutable std::mutex mutex_;
  std::unordered_map<Key, Ptr, Hash> entries_;
  std::deque<Key> order_;  ///< insertion order: the eviction order
  std::size_t bytes_ = 0;
  std::size_t max_bytes_ = 0;
  Counters counters_;
};

}  // namespace scal::util
