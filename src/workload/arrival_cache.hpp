#pragma once
// Process-wide memo of generated arrival streams, keyed on a 128-bit
// workload digest (grid::workload_digest covers every stream-shaping
// input: workload config, source spec, seed, horizon, cluster count).
// Every GridSystem asks it, so the runs of a session, a sweep or
// parallel tuner lanes replay the same streams; memoizing them takes
// workload synthesis off the build critical path.  Entries are
// immutable shared vectors, so concurrent consumers alias one
// allocation safely; insertion is first-insert-wins (racing generators
// produce bit-identical vectors, the first one becomes canonical).
//
// A util::FifoCache plus one count: set_max_bytes (or
// SCAL_ARRIVAL_CACHE_BYTES at first use) caps the resident payload,
// oldest-first.  One-shot streaming runs bypass the store entirely
// (workload::arrivals without memoize) and only count the skip.

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "util/fifo_cache.hpp"
#include "workload/job.hpp"

namespace scal::workload {

namespace detail {
struct DigestHash {
  std::size_t operator()(const std::array<std::uint64_t, 2>& k) const noexcept {
    // The key is already a high-quality 128-bit digest; fold the lanes.
    return static_cast<std::size_t>(k[0] ^ (k[1] * 0x9E3779B97F4A7C15ull));
  }
};
using ArrivalFifo = util::FifoCache<std::array<std::uint64_t, 2>,
                                    std::vector<Job>, DigestHash>;
}  // namespace detail

class ArrivalCache : private detail::ArrivalFifo {
  using ArrivalFifo = detail::ArrivalFifo;

 public:
  using Key = std::array<std::uint64_t, 2>;

  ArrivalCache()
      : ArrivalFifo([](const std::vector<Job>& jobs) {
          return jobs.size() * sizeof(Job);
        }) {}

  /// The process-wide instance every GridSystem consults.  The first
  /// call reads SCAL_ARRIVAL_CACHE_BYTES (bytes; unset or 0 keeps the
  /// cache unbounded) into the byte budget, and throws
  /// std::invalid_argument when it is not a non-negative integer.
  static ArrivalCache& instance();

  /// The cached stream for `key`, or null.  Counts a hit or a miss.
  std::shared_ptr<const std::vector<Job>> lookup(const Key& key);

  /// Insert `jobs` for `key` unless already present; returns the
  /// canonical entry (the prior one on a race, or `jobs` unstored when
  /// it alone exceeds the budget — the stream still works, it just is
  /// not memoized).
  std::shared_ptr<const std::vector<Job>> store(
      const Key& key, std::shared_ptr<const std::vector<Job>> jobs);

  /// evictions counts entries dropped (or streams refused) for the
  /// budget.
  using ArrivalFifo::set_max_bytes, ArrivalFifo::max_bytes,
      ArrivalFifo::bytes, ArrivalFifo::size, ArrivalFifo::hits,
      ArrivalFifo::misses, ArrivalFifo::evictions;

  /// Stores skipped by one-shot streaming runs (arrivals() misses
  /// without memoize).
  std::uint64_t store_skips() const {
    return store_skips_.load(std::memory_order_relaxed);
  }
  void count_store_skip() {
    store_skips_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Drop every entry and zero the counters (tests and benches; the
  /// simulation never needs it — entries are pure functions of their
  /// keys).  The byte budget is kept.
  void clear() {
    ArrivalFifo::clear();
    store_skips_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> store_skips_{0};
};

}  // namespace scal::workload
