#include "sim/event_queue.hpp"

#include <cassert>
#include <stdexcept>
#include <utility>

namespace scal::sim {

EventQueue::EventQueue() : heap_(Heap::kArity - 1, Heap::kPad) {}

EventId EventQueue::push(Time at, EventFn fn) {
  if (pushed_ >= kMaxPushes) {
    throw std::length_error("EventQueue: too many pushes");
  }
  // Keep kArity - 1 pads past the new last entry.  Grown before the slot
  // is taken, so a failed allocation leaves the queue unchanged.
  if (heap_.size() < size_ + Heap::kArity) heap_.push_back(Heap::kPad);
  const std::uint32_t slot = acquire_slot();
  fn_at(slot) = std::move(fn);
  const Key key = Heap::key(at, pushed_++ << kSlotBits | slot);
  Heap::sift_up(heap_.data(), size_++, key, track_position());
  return make_id(gen_[slot], slot);
}

bool EventQueue::cancel(EventId id) {
  const auto slot = static_cast<std::uint32_t>(id & 0xFFFFFFFFu);
  const auto gen = static_cast<std::uint32_t>(id >> 32);
  // The generation is bumped every time a slot is released, so it matches
  // an issued handle exactly while (and only while) its event is pending.
  // The position check also rejects a forged id naming a free slot or the
  // slot whose closure fire_top() is running.
  if (slot >= gen_.size() || gen_[slot] != gen) return false;
  const std::uint32_t pos = pos_[slot];
  if (pos >= size_ || slot_of(heap_[pos]) != slot) return false;
  erase_at(pos);
  release_slot(slot);
  return true;
}

Time EventQueue::next_time() const {
  if (empty()) throw std::logic_error("EventQueue::next_time: empty");
  return peek_time();
}

EventQueue::Popped EventQueue::pop() {
  if (empty()) throw std::logic_error("EventQueue::pop: empty");
  const Time at = peek_time();
  const std::uint32_t slot = remove_top();
  Popped out{at, make_id(gen_[slot], slot), std::move(fn_at(slot))};
  release_slot(slot);
  return out;
}

void EventQueue::fire_top() {
  assert(!empty());
  struct Release {
    EventQueue& queue;
    std::uint32_t slot;
    ~Release() { queue.release_slot(slot); }
  } release{*this, remove_top()};
  fn_at(release.slot)();
}

void EventQueue::erase_at(std::size_t pos) noexcept {
  assert(pos < size_);
  const std::size_t last = --size_;
  const Key moved = heap_[last];
  heap_[last] = Heap::kPad;
  if (pos == last) return;
  // The replacement came from the bottom, so it can only need to move
  // down — unless its new parent is later than it (possible when it
  // came from a different subtree), in which case sift up.
  if (pos > 0 && moved < heap_[(pos - 1) / Heap::kArity]) {
    Heap::sift_up(heap_.data(), pos, moved, track_position());
  } else {
    Heap::sift_down(heap_.data(), size_, pos, moved, track_position());
  }
}

std::uint32_t EventQueue::remove_top() noexcept {
  const std::uint32_t slot = slot_of(heap_[0]);
  const std::size_t last = --size_;
  const Key moved = heap_[last];
  heap_[last] = Heap::kPad;
  if (last != 0) {
    Heap::sift_down(heap_.data(), size_, 0, moved, track_position());
  }
  return slot;
}

std::uint32_t EventQueue::acquire_slot() {
  if (free_head_ != kNoFree) {
    const std::uint32_t slot = free_head_;
    free_head_ = pos_[slot];
    return slot;
  }
  const std::size_t slot = gen_.size();
  if (slot >= kMaxPending) {
    throw std::length_error("EventQueue: too many pending events");
  }
  if ((slot >> kChunkShift) == chunks_.size()) {
    chunks_.push_back(
        std::make_unique_for_overwrite<EventFn[]>(std::size_t{1}
                                                  << kChunkShift));
  }
  pos_.push_back(0);
  try {
    gen_.push_back(0);
  } catch (...) {
    pos_.pop_back();  // keep the two per-slot arrays the same length
    throw;
  }
  return static_cast<std::uint32_t>(slot);
}

void EventQueue::release_slot(std::uint32_t slot) noexcept {
  fn_at(slot).reset();
  ++gen_[slot];  // invalidate outstanding handles
  pos_[slot] = free_head_;
  free_head_ = slot;
}

}  // namespace scal::sim
