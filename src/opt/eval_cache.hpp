#pragma once
// Deterministic memoization of objective evaluations over a discrete
// search space.  The annealing space is quantized, so points repeat —
// within one tune (late low-temperature phases revisit the incumbent's
// neighborhood, restart chains collide, the warm anchor equals chain
// 0's start) and across tunes that share a cache (adjacent scale
// factors along a scaling path, overlapping path-search splits).  Keys
// are the exact (configuration digest, point) pair — no tolerance — so
// a hit can only ever return the value the evaluation would have
// produced, and caching is an optimization, never an approximation.
//
// Determinism protocol: entries are future-like and first-value-wins.
// The first acquire() on a missing key *claims* it (an entry holding no
// value yet) and must fulfill() or abandon() it; later concurrent callers
// block until the value lands instead of recomputing it.  Which caller
// physically claims a key depends on scheduling, so the tuner derives its
// hit statistics and `cached` telemetry flags not from racy physical hit
// counts but from a serial replay of its own evaluation order plus one
// scheduling-independent fact: whether the tune claimed the key at all.
// A key it never claimed was answered by an earlier tune sharing the
// cache or by the disk file.  Both are bit-identical at any worker count.
//
// Persistence: preload() seeds ready entries from disk (marked
// `from_disk` so reuse telemetry can report disk hits) and snapshot()
// exports the ready entries for a serializer; see core/eval_store.hpp
// for the on-disk format and the code-version invalidation rule.

#include <array>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

namespace scal::opt {

/// Exact identity of one objective evaluation: the digest pins every
/// simulation input outside the search space (topology, workload, seed,
/// faults, ...); the point is the quantized search-space coordinate.
struct EvalKey {
  std::array<std::uint64_t, 2> digest{};
  std::vector<double> point;

  bool operator==(const EvalKey& other) const noexcept {
    return digest == other.digest && point == other.point;
  }
};

struct EvalKeyHash {
  std::size_t operator()(const EvalKey& key) const noexcept {
    std::uint64_t h = key.digest[0] ^ (key.digest[1] * 0x9E3779B97F4A7C15ull);
    for (const double coordinate : key.point) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &coordinate, sizeof(bits));
      h ^= bits + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
    }
    return static_cast<std::size_t>(h);
  }
};

/// Thread-safe first-evaluator-wins memoization table.  `Value` must be
/// copyable; hits return copies so they never alias shared state.
template <typename Value>
class EvalCache {
 public:
  /// The value stored for `key`, or nullopt for a claim: the caller then
  /// owns the evaluation and MUST fulfill() or abandon() it, or waiters
  /// block until it does.  Blocking happens only when another thread
  /// holds the claim; the wait ends when that owner fulfills (value
  /// returned) or abandons (this caller re-claims).
  std::optional<Value> acquire(const EvalKey& key) {
    std::unique_lock<std::mutex> lock(mutex_);
    bool waited = false;
    for (;;) {
      const auto [it, inserted] = entries_.try_emplace(key, Entry{});
      if (inserted) return std::nullopt;  // claimed
      if (it->second.value.has_value()) {
        if (it->second.from_disk) ++disk_hits_;
        return it->second.value;
      }
      // In flight elsewhere: wait for fulfill (value appears) or
      // abandon (entry vanishes, loop re-claims).  Counted once per
      // blocking acquire, so the tally reads "evaluations saved".
      if (!waited) {
        waited = true;
        ++in_flight_waits_;
      }
      ready_.wait(lock, [&] {
        const auto again = entries_.find(key);
        return again == entries_.end() || again->second.value.has_value();
      });
    }
  }

  /// Publish the owner's result and wake waiters.  First value wins
  /// (identical by determinism anyway): a ready entry keeps its value.
  /// A key nobody claimed gets a ready entry.
  void fulfill(const EvalKey& key, const Value& value) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      Entry& entry = entries_[key];
      if (entry.value.has_value()) return;  // first value wins
      entry.value = value;
    }
    ready_.notify_all();
  }

  /// Release a claim without a value (owner's evaluation threw) so a
  /// waiter can re-claim.  No-op on ready or absent keys.
  void abandon(const EvalKey& key) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      const auto it = entries_.find(key);
      if (it == entries_.end() || it->second.value.has_value()) return;
      entries_.erase(it);
    }
    ready_.notify_all();
  }

  /// Seed a ready entry from a persistent cache file.  First-wins like
  /// fulfill().  No tune claims a preloaded key, so its hits classify
  /// exactly like answers from an earlier tune of a cold run.
  void preload(const EvalKey& key, const Value& value) {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto [it, inserted] = entries_.try_emplace(key, Entry{});
    if (!inserted) return;
    it->second.value = value;
    it->second.from_disk = true;
    ++preloaded_;
  }

  /// Every ready (key, value) pair, for the persistent serializer.
  /// In-flight claims are skipped.  Unordered; the serializer sorts.
  std::vector<std::pair<EvalKey, Value>> snapshot() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::pair<EvalKey, Value>> out;
    out.reserve(entries_.size());
    for (const auto& [key, entry] : entries_) {
      if (entry.value.has_value()) out.emplace_back(key, *entry.value);
    }
    return out;
  }

  std::size_t size() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
  }

  /// Times an acquire() blocked on another thread's evaluation.
  std::uint64_t in_flight_waits() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return in_flight_waits_;
  }

  /// Times an acquire() was answered by a preloaded (disk) entry.
  std::uint64_t disk_hits() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return disk_hits_;
  }

  /// Entries seeded via preload().
  std::uint64_t preloaded() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return preloaded_;
  }

 private:
  struct Entry {
    /// Empty while the claiming owner is still evaluating (in flight).
    std::optional<Value> value;
    bool from_disk = false;
  };

  mutable std::mutex mutex_;
  std::condition_variable ready_;
  std::unordered_map<EvalKey, Entry, EvalKeyHash> entries_;
  std::uint64_t in_flight_waits_ = 0;
  std::uint64_t disk_hits_ = 0;
  std::uint64_t preloaded_ = 0;
};

}  // namespace scal::opt
