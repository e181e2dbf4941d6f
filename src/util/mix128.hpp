#pragma once
// Mix128: the two-lane 128-bit fingerprint behind every structural digest
// (grid::config_digest, grid::workload_digest, net::graph_digest).  Two
// independent FNV-1a style lanes with distinct offsets and primes; each
// absorbed word perturbs both, so a collision needs to agree in both
// lanes.  Doubles are absorbed by bit pattern, so equal digests mean
// exactly equal inputs.  Digest values key in-memory caches and on-disk
// evaluation stores: changing a constant here changes every one of them.

#include <array>
#include <cstdint>
#include <cstring>
#include <string>

namespace scal::util {

class Mix128 {
 public:
  void word(std::uint64_t w) {
    a_ = (a_ ^ w) * 0x100000001B3ull;
    a_ ^= a_ >> 29;
    b_ = (b_ ^ (w + 0x9E3779B97F4A7C15ull)) * 0xC2B2AE3D27D4EB4Full;
    b_ ^= b_ >> 31;
  }

  void real(double value) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    word(bits);
  }

  void text(const std::string& value) {
    word(value.size());
    for (const char c : value) word(static_cast<unsigned char>(c));
  }

  std::array<std::uint64_t, 2> finish() const { return {a_, b_}; }

 private:
  std::uint64_t a_ = 0xCBF29CE484222325ull;
  std::uint64_t b_ = 0x6C62272E07BB0142ull;
};

}  // namespace scal::util
