#include "workload/arena.hpp"

#include <algorithm>
#include <stdexcept>

namespace scal::workload {

Job* JobArena::acquire() {
  Job* slot = nullptr;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
    ++reuses_;
  } else {
    slab_.emplace_back();
    slot = &slab_.back();
  }
  high_water_ = std::max(high_water_, in_use());
  return slot;
}

void JobArena::release(Job* slot) {
  if (!owns(slot)) {
    throw std::invalid_argument("JobArena::release: foreign slot");
  }
  if (std::find(free_.begin(), free_.end(), slot) != free_.end()) {
    throw std::invalid_argument("JobArena::release: slot already free");
  }
  free_.push_back(slot);
}

bool JobArena::owns(const Job* slot) const noexcept {
  for (const Job& j : slab_) {
    if (&j == slot) return true;
  }
  return false;
}

}  // namespace scal::workload
