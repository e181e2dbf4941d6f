#pragma once
// The pending-event set of the discrete-event kernel.
//
// Ties on timestamp are broken by insertion sequence so that a run is a
// deterministic function of the schedule order — the property the whole
// scalability procedure's reproducibility rests on.
//
// Layout (docs/PERFORMANCE.md, "Event queue"):
//   - heap_: 16-byte integer keys in util::QuadHeap's 4-ary layout,
//     moved by its shared sift steps.  The high word is the timestamp's
//     util::order_key(); the low word is (insertion seq << 24 | slot).
//     One 128-bit compare orders two events by (time, seq), and the
//     smallest of four children is picked with conditional moves, not
//     branches.  heap_ keeps its high-water length: pads fill it past
//     the live entries.
//   - pos_: each slot's heap position (while pending) in a compact uint32
//     array, so cancel() removes an event eagerly in O(log n) and a sift
//     step writes 4 bytes instead of touching the closure's slot.
//   - chunks_: the closures, in fixed-size chunks whose addresses never
//     move.  fire_top() runs a closure where it is stored, then releases
//     the slot — no per-event move of the capture.
// An EventId packs (generation << 32 | slot); the generation is bumped
// whenever a slot is released, which makes stale handles (already fired
// or cancelled) detectable in O(1).

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/time.hpp"
#include "util/inline_fn.hpp"
#include "util/quad_heap.hpp"

namespace scal::sim {

using EventId = std::uint64_t;

/// Inline capture budget for event closures.  Sized so the kernel's
/// hottest captures — a full grid::RmsMessage (~120 bytes) plus the
/// routing context of the middleware relay chain — stay allocation-free;
/// larger captures fall back to the heap transparently.
inline constexpr std::size_t kEventInlineCapacity = 184;
using EventFn = util::InlineFn<kEventInlineCapacity>;

class EventQueue {
 public:
  /// Slot indices take the low 24 bits of a key: at most 2^24 events may
  /// be pending at once.
  static constexpr std::size_t kMaxPending = std::size_t{1} << 24;
  /// Insertion sequences take the other 40 bits: at most 2^40 pushes
  /// over the queue's lifetime.
  static constexpr std::uint64_t kMaxPushes = std::uint64_t{1} << 40;

  EventQueue();

  /// Insert an event; returns its id (usable with cancel()).  Throws
  /// std::length_error past kMaxPending pending events or kMaxPushes
  /// pushes.  Times order as doubles, -0.0 equal to +0.0; a NaN time has
  /// no defined place (the Simulator rejects it).
  EventId push(Time at, EventFn fn);

  /// Cancel a pending event, removing it from the heap immediately.
  /// Returns true only if `id` names a pending event; any other id
  /// (fired, cancelled, or made up) returns false
  /// and changes nothing.
  bool cancel(EventId id);

  bool empty() const noexcept { return size_ == 0; }
  std::size_t size() const noexcept { return size_; }

  Time next_time() const;
  /// next_time() without the emptiness check; precondition: !empty().
  Time peek_time() const noexcept {
    return util::QuadHeap::value_of(heap_[0]);
  }

  /// Pop the earliest live event.  Precondition: !empty().
  struct Popped {
    Time at;
    EventId id;
    EventFn fn;
  };
  Popped pop();

  /// Dispatch the earliest event in place: take it off the heap, run its
  /// closure where it is stored, then release its slot — also when the
  /// closure throws.  The closure may push and cancel events.
  /// Precondition: !empty().
  void fire_top();

  std::uint64_t total_pushed() const noexcept { return pushed_; }

  /// Slots currently held (live + free-listed); exposed for tests.
  std::size_t arena_size() const noexcept { return gen_.size(); }

 private:
  using Heap = util::QuadHeap;
  using Key = Heap::Key;

  static constexpr unsigned kSlotBits = 24;
  static constexpr std::uint32_t kSlotMask = (1u << kSlotBits) - 1;
  static constexpr std::uint32_t kNoFree = 0xFFFFFFFFu;
  /// Slots per chunk: 64 closures of 208 bytes, 13 KiB.
  static constexpr unsigned kChunkShift = 6;

  static std::uint32_t slot_of(Key key) noexcept {
    return static_cast<std::uint32_t>(key) & kSlotMask;
  }
  static EventId make_id(std::uint32_t gen, std::uint32_t slot) noexcept {
    return (static_cast<EventId>(gen) << 32) | slot;
  }

  EventFn& fn_at(std::uint32_t slot) noexcept {
    return chunks_[slot >> kChunkShift][slot & ((1u << kChunkShift) - 1)];
  }

  /// The sift steps' callback: record the heap position of each entry
  /// they place.
  auto track_position() noexcept {
    return [pos = pos_.data()](Key key, std::size_t at) {
      pos[slot_of(key)] = static_cast<std::uint32_t>(at);
    };
  }
  /// Remove the heap entry at `pos` (swap-with-last + re-sift).
  void erase_at(std::size_t pos) noexcept;
  /// Take the earliest entry off the heap and return its slot, whose
  /// closure is still in place.  The removal path of pop() and
  /// fire_top().
  std::uint32_t remove_top() noexcept;
  /// A slot for a new event: the free list's head, or a new slot.
  std::uint32_t acquire_slot();
  /// Destroy the slot's closure, invalidate outstanding ids, and return
  /// the slot to the free list.
  void release_slot(std::uint32_t slot) noexcept;

  std::vector<Key> heap_;                          // live entries + pads
  std::size_t size_ = 0;                           // live entries
  std::vector<std::uint32_t> pos_;                 // heap position / free link
  std::vector<std::uint32_t> gen_;                 // per-slot generation
  std::vector<std::unique_ptr<EventFn[]>> chunks_;  // stable closure storage
  std::uint32_t free_head_ = kNoFree;
  std::uint64_t pushed_ = 0;
};

}  // namespace scal::sim
