#pragma once
// The one hash the golden tests fold their pinned values into.

#include <cstdint>
#include <cstdio>
#include <string>

#include "support/result_equal.hpp"

namespace scal::test {

/// 64-bit FNV-1a over the little-endian bytes of each folded word.
class Hash64 {
 public:
  void add(std::uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      state_ ^= (word >> (8 * i)) & 0xffu;
      state_ *= 0x100000001b3ull;
    }
  }
  void add_double(double value) { add(result_equal_detail::bits(value)); }
  std::string hex() const {
    char out[17];
    std::snprintf(out, sizeof(out), "%016llx",
                  static_cast<unsigned long long>(state_));
    return out;
  }

 private:
  std::uint64_t state_ = 0xcbf29ce484222325ull;
};

}  // namespace scal::test
