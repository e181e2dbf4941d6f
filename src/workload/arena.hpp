#pragma once
// JobArena — a slab-backed pool of Job records keyed by in-flight
// lifetime.  The streaming arrival path holds one pending-arrival record
// per chained arrival event; recycling that record through an arena
// means a 100M-job run performs 100M acquire/release cycles against a
// handful of slots instead of 100M allocations.  Slots live in a deque
// so their addresses are stable for as long as they are held.

#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include "workload/job.hpp"

namespace scal::workload {

class JobArena {
 public:
  /// A recycled slot when one is free (LIFO, so the hot slot stays
  /// cache-resident), otherwise a freshly grown one.  The slot's
  /// contents are unspecified; the caller overwrites them.
  Job* acquire();

  /// Return a slot to the free list.  The pointer must have come from
  /// acquire() on this arena and not have been released since; releasing
  /// a foreign or doubly-released slot throws std::invalid_argument.
  void release(Job* slot);

  std::size_t slots() const noexcept { return slab_.size(); }
  std::size_t in_use() const noexcept { return slab_.size() - free_.size(); }
  /// Most slots ever simultaneously in use — the run's true in-flight
  /// footprint, independent of total jobs streamed.
  std::size_t high_water() const noexcept { return high_water_; }
  /// Acquisitions served by recycling instead of growth.
  std::uint64_t reuses() const noexcept { return reuses_; }

 private:
  bool owns(const Job* slot) const noexcept;

  std::deque<Job> slab_;     // stable addresses
  std::vector<Job*> free_;   // LIFO free list
  std::size_t high_water_ = 0;
  std::uint64_t reuses_ = 0;
};

}  // namespace scal::workload
