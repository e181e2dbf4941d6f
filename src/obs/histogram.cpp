#include "obs/histogram.hpp"

#include <algorithm>
#include <cmath>

#include "obs/json.hpp"

namespace scal::obs {

double Histogram::bucket_lower(std::size_t index) {
  if (index == 0) return 0.0;
  if (index >= kOverflowIndex) return std::ldexp(1.0, kMaxExp);
  const std::size_t offset = index - 1;
  const int exp = kMinExp + static_cast<int>(offset / kSubBuckets);
  const auto sub = static_cast<double>(offset % kSubBuckets);
  return std::ldexp(1.0 + sub / static_cast<double>(kSubBuckets), exp);
}

double Histogram::percentile(double p) const {
  if (count_ == 0) return 0.0;
  if (p >= 100.0) return max_;
  // Rank of the requested order statistic (1-based, at least the first).
  const double want = std::ceil(p / 100.0 * static_cast<double>(count_));
  const auto rank = static_cast<std::uint64_t>(std::max(want, 1.0));
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    cumulative += buckets_[i];
    if (cumulative >= rank) {
      return std::clamp(bucket_lower(i), min_, max_);
    }
  }
  return max_;
}

void Histogram::merge(const Histogram& other) {
  if (other.count_ == 0) return;
  if (other.buckets_.size() > buckets_.size()) {
    buckets_.resize(other.buckets_.size(), 0);
  }
  for (std::size_t i = 0; i < other.buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
  sum_ += other.sum_;
}

std::string Histogram::to_json() const {
  JsonObject obj;
  obj.field("count", count_)
      .field("sum", sum_)
      .field("min", min())
      .field("max", max())
      .field("mean", mean())
      .field("p50", percentile(50.0))
      .field("p95", percentile(95.0))
      .field("p99", percentile(99.0));
  return obj.str();
}

Histogram& HistogramRegistry::histogram(const std::string& name) {
  for (const auto& entry : entries_) {
    if (entry->name == name) return entry->histogram;
  }
  entries_.push_back(std::make_unique<Entry>(Entry{name, {}}));
  return entries_.back()->histogram;
}

bool HistogramRegistry::all_empty() const noexcept {
  for (const auto& entry : entries_) {
    if (!entry->histogram.empty()) return false;
  }
  return true;
}

void HistogramRegistry::merge(const HistogramRegistry& other) {
  for (const auto& entry : other.entries_) {
    histogram(entry->name).merge(entry->histogram);
  }
}

std::string HistogramRegistry::to_json() const {
  JsonObject obj;
  for (const auto& entry : entries_) {
    obj.raw(entry->name, entry->histogram.to_json());
  }
  return obj.str();
}

}  // namespace scal::obs
