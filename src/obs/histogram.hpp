#pragma once
// Streaming log-bucketed histogram (HDR-style) for distribution-level
// run metrics: job wait/response/slowdown, scheduler queue depth at
// decision points, estimator staleness.
//
// Values land in log-linear buckets — 8 linear sub-buckets per power of
// two — so memory stays fixed (a few hundred counters at most, grown
// lazily) while relative quantile error is bounded by one sub-bucket
// width (12.5%).  count, sum, min, and max are tracked exactly, so
// mean and the extreme readouts carry no bucketing error at all.
//
// Determinism contract: recording is pure integer bookkeeping on the
// value sequence — two runs that observe the same values in the same
// order produce bit-identical histograms, and merge() is the serial
// concatenation (bucket-wise addition), so merging per-task histograms
// in task order equals recording serially.  This is the reduction the
// --jobs N bit-identity tests lean on.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace scal::obs {

class Histogram {
 public:
  void record(double value) {
    const std::size_t index = bucket_index(value);
    if (index >= buckets_.size()) buckets_.resize(index + 1, 0);
    ++buckets_[index];
    if (count_ == 0) {
      min_ = max_ = value;
    } else {
      min_ = std::min(min_, value);
      max_ = std::max(max_, value);
    }
    ++count_;
    sum_ += value;
  }

  std::uint64_t count() const noexcept { return count_; }
  bool empty() const noexcept { return count_ == 0; }
  double sum() const noexcept { return sum_; }
  double min() const noexcept { return count_ > 0 ? min_ : 0.0; }
  double max() const noexcept { return count_ > 0 ? max_ : 0.0; }
  double mean() const noexcept {
    return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0;
  }

  /// Quantile estimate for p in [0, 100]: the lower bound of the bucket
  /// holding the ceil(p/100 * count)-th value, clamped into [min, max].
  /// p >= 100 returns the exact max; an empty histogram returns 0.
  double percentile(double p) const;

  /// Fold `other` into this histogram (bucket-wise addition).  Merging
  /// per-task histograms in task order equals serial accumulation.
  void merge(const Histogram& other);

  /// Compact JSON summary for the run manifest:
  /// {"count":...,"sum":...,"min":...,"max":...,"mean":...,
  ///  "p50":...,"p95":...,"p99":...}.  Deterministic in the recorded
  /// value multiset (and, for sum, its order).
  std::string to_json() const;

 private:
  // 8 linear sub-buckets per octave over exponents [-32, 63]; bucket 0
  // catches non-positive/tiny values, the last bucket catches overflow.
  static constexpr int kSubBuckets = 8;
  static constexpr int kMinExp = -32;
  static constexpr int kMaxExp = 64;  // values >= 2^64 overflow
  static constexpr std::size_t kOverflowIndex =
      1 + static_cast<std::size_t>(kMaxExp - kMinExp) * kSubBuckets;

  /// Log-linear bucketing straight off the IEEE-754 bits: the biased
  /// exponent selects the octave and the top three mantissa bits the
  /// linear sub-bucket (exactly floor((mantissa - 1) * 8) for normal
  /// values).  Denormals fall below kMinExp into bucket 0; infinity
  /// carries a saturated exponent into the overflow bucket.
  static std::size_t bucket_index(double value) noexcept {
    if (!(value > 0.0)) return 0;  // non-positive and NaN
    const auto bits = std::bit_cast<std::uint64_t>(value);
    const int exp = static_cast<int>((bits >> 52) & 0x7FF) - 1023;
    if (exp < kMinExp) return 0;
    if (exp >= kMaxExp) return kOverflowIndex;
    const auto sub = static_cast<std::size_t>((bits >> 49) & 0x7);
    return 1 + static_cast<std::size_t>(exp - kMinExp) * kSubBuckets + sub;
  }

  static double bucket_lower(std::size_t index);

  std::vector<std::uint64_t> buckets_;  ///< lazily grown to the max index
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Named histograms in registration order, addressed by name with
/// stable addresses (instrumentation sites cache the pointer once).
class HistogramRegistry {
 public:
  struct Entry {
    std::string name;
    Histogram histogram;
  };

  /// Find-or-create; the returned reference stays valid for the
  /// registry's lifetime (entries are never removed, only cleared).
  Histogram& histogram(const std::string& name);

  bool empty() const noexcept { return entries_.empty(); }
  /// True when no histogram has recorded a value.
  bool all_empty() const noexcept;
  std::size_t size() const noexcept { return entries_.size(); }
  const std::vector<std::unique_ptr<Entry>>& entries() const noexcept {
    return entries_;
  }

  /// Fold `other` into this registry by name: matching names merge,
  /// new names append in `other`'s registration order.
  void merge(const HistogramRegistry& other);

  /// {"name": {histogram json}, ...} in registration order.
  std::string to_json() const;

 private:
  std::vector<std::unique_ptr<Entry>> entries_;
};

}  // namespace scal::obs
