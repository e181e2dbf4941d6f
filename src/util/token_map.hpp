#pragma once
// TokenMap: a flat sorted-vector map for the RMS policies' small
// correlation tables (pending poll rounds, negotiations, auction state,
// peer adverts).
//
// These tables hold a handful of entries keyed by monotonically
// increasing tokens or small dense ids, so a contiguous sorted vector
// with binary search beats a node-based hash map on every operation the
// policies perform — and, unlike unordered_map, its iteration order is
// the key order, which makes any scan over the table deterministic by
// construction rather than by accident of hashing.
//
// The interface mirrors the subset of std::unordered_map the policies
// use (find/emplace/erase/operator[]/count/size plus range-for), so call
// sites read identically.

#include <cstddef>
#include <tuple>
#include <utility>
#include <vector>

namespace scal::util {

template <typename Key, typename T>
class TokenMap {
 public:
  using value_type = std::pair<Key, T>;
  using iterator = typename std::vector<value_type>::iterator;
  using const_iterator = typename std::vector<value_type>::const_iterator;

  iterator begin() noexcept { return data_.begin(); }
  iterator end() noexcept { return data_.end(); }
  const_iterator begin() const noexcept { return data_.begin(); }
  const_iterator end() const noexcept { return data_.end(); }

  bool empty() const noexcept { return data_.empty(); }
  std::size_t size() const noexcept { return data_.size(); }

  iterator find(const Key& key) {
    const iterator it = lower_bound(key);
    return (it != data_.end() && it->first == key) ? it : data_.end();
  }
  const_iterator find(const Key& key) const {
    return const_cast<TokenMap*>(this)->find(key);
  }
  std::size_t count(const Key& key) const {
    return find(key) != end() ? 1 : 0;
  }

  template <typename... Args>
  std::pair<iterator, bool> emplace(const Key& key, Args&&... args) {
    // Fast path: tokens are handed out monotonically, so most inserts
    // append.
    if (data_.empty() || data_.back().first < key) {
      data_.emplace_back(std::piecewise_construct,
                         std::forward_as_tuple(key),
                         std::forward_as_tuple(std::forward<Args>(args)...));
      return {data_.end() - 1, true};
    }
    const iterator it = lower_bound(key);
    if (it != data_.end() && it->first == key) return {it, false};
    return {data_.emplace(it, std::piecewise_construct,
                          std::forward_as_tuple(key),
                          std::forward_as_tuple(std::forward<Args>(args)...)),
            true};
  }

  T& operator[](const Key& key) { return emplace(key).first->second; }

  iterator erase(iterator it) { return data_.erase(it); }
  std::size_t erase(const Key& key) {
    const iterator it = find(key);
    if (it == data_.end()) return 0;
    data_.erase(it);
    return 1;
  }

 private:
  iterator lower_bound(const Key& key) {
    // Hand-rolled binary search keeps this header free of <algorithm>.
    std::size_t lo = 0;
    std::size_t hi = data_.size();
    while (lo < hi) {
      const std::size_t mid = (lo + hi) / 2;
      if (data_[mid].first < key) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return data_.begin() + static_cast<std::ptrdiff_t>(lo);
  }

  std::vector<value_type> data_;  // sorted by key
};

}  // namespace scal::util
