#pragma once
// QuadHeap: a 4-ary min-heap of 16-byte integer keys, the one heap
// behind the event kernel's pending set (sim::EventQueue) and the
// router's Dijkstra frontier (net::SourceTree).
//
// Keys: a double's IEEE bits mapped by order_key() onto an unsigned
// integer that sorts like the double, shifted into the high word, with a
// tag in the low word (the event queue's insertion seq and slot, the
// router's node id).  One 128-bit compare then orders two entries by
// (value, tag).
//
// Layout: the live entries, then at least kArity - 1 pad entries (all
// bits set), so every node with a child has four readable children and
// the smallest is picked with conditional moves and no bounds branch.
// A pad sorts after every key whose high word comes from a non-NaN
// double, so it never rises above a live entry.
//
// The sift steps are static templates over raw storage and report every
// entry they place through a callback, so a caller that tracks
// positions (the event queue's cancel index) runs the same code as one
// that does not.  A QuadHeap object keeps exactly kArity - 1 pads: a
// pop shrinks the vector, so a copy holds no more than the live entries
// and the three pads.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace scal::util {

/// Order-preserving map of a double onto an unsigned integer: flip the
/// sign bit of non-negative values and every bit of negative ones.
/// `x + 0.0` first turns -0.0 into +0.0; NaN has no defined place.
inline std::uint64_t order_key(double x) noexcept {
  constexpr std::uint64_t kSignBit = std::uint64_t{1} << 63;
  const auto bits = std::bit_cast<std::uint64_t>(x + 0.0);
  const auto negative =
      static_cast<std::uint64_t>(static_cast<std::int64_t>(bits) >> 63);
  return bits ^ (negative | kSignBit);
}

/// The inverse of order_key().
inline double order_value(std::uint64_t key) noexcept {
  constexpr std::uint64_t kSignBit = std::uint64_t{1} << 63;
  const auto negative =
      ~static_cast<std::uint64_t>(static_cast<std::int64_t>(key) >> 63);
  return std::bit_cast<double>(key ^ (negative | kSignBit));
}

class QuadHeap {
 public:
  __extension__ using Key = unsigned __int128;

  static constexpr std::size_t kArity = 4;
  static constexpr Key kPad = ~Key{0};

  /// `value`'s order_key() in the high word, `tag` in the low word.
  static Key key(double value, std::uint64_t tag) noexcept {
    return Key{order_key(value)} << 64 | tag;
  }
  static double value_of(Key key) noexcept {
    return order_value(static_cast<std::uint64_t>(key >> 64));
  }
  static std::uint64_t tag_of(Key key) noexcept {
    return static_cast<std::uint64_t>(key);
  }

  /// Place `moving` at `pos` or above it, restoring heap order; calls
  /// placed(key, position) for every entry written.
  template <class Placed>
  static void sift_up(Key* heap, std::size_t pos, Key moving,
                      Placed&& placed) noexcept {
    while (pos > 0) {
      const std::size_t parent = (pos - 1) / kArity;
      if (!(moving < heap[parent])) break;
      heap[pos] = heap[parent];
      placed(heap[pos], pos);
      pos = parent;
    }
    heap[pos] = moving;
    placed(moving, pos);
  }

  /// Place `moving` at `pos` or below it among the first `size` entries,
  /// restoring heap order; calls placed(key, position) for every entry
  /// written.  Entries from `size` on must be pads, at least kArity - 1
  /// of them.
  template <class Placed>
  static void sift_down(Key* heap, std::size_t size, std::size_t pos,
                        Key moving, Placed&& placed) noexcept {
    for (;;) {
      const std::size_t first = kArity * pos + 1;
      if (first >= size) break;
      // Pads stand in for missing children, so all four are always
      // readable.  Index arithmetic on compare results compiles to
      // conditional moves; ties keep the lower index.
      const std::size_t a = first + (heap[first + 1] < heap[first]);
      const std::size_t b = first + 2 + (heap[first + 3] < heap[first + 2]);
      const std::size_t child = heap[b] < heap[a] ? b : a;
      if (!(heap[child] < moving)) break;
      heap[pos] = heap[child];
      placed(heap[pos], pos);
      pos = child;
    }
    heap[pos] = moving;
    placed(moving, pos);
  }

  /// Room for the pads and one entry, so the first push does not
  /// reallocate and growth doubles through powers of two.
  QuadHeap() {
    keys_.reserve(kArity);
    keys_.assign(kArity - 1, kPad);
  }

  bool empty() const noexcept { return keys_.size() == kArity - 1; }
  std::size_t size() const noexcept { return keys_.size() - (kArity - 1); }

  void push(Key key) {
    keys_.push_back(kPad);
    sift_up(keys_.data(), size() - 1, key, Unplaced{});
  }

  /// Remove and return the smallest key; precondition: !empty().
  Key pop() noexcept {
    const Key top = keys_[0];
    const std::size_t last = size() - 1;
    const Key moved = keys_[last];
    keys_[last] = kPad;
    keys_.pop_back();
    if (last != 0) sift_down(keys_.data(), last, 0, moved, Unplaced{});
    return top;
  }

  /// Heap storage held, pads included.
  std::size_t bytes() const noexcept { return keys_.capacity() * sizeof(Key); }

 private:
  struct Unplaced {
    void operator()(Key, std::size_t) const noexcept {}
  };

  std::vector<Key> keys_;  // live entries, then kArity - 1 pads
};

}  // namespace scal::util
