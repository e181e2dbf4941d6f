#pragma once
// Streaming and exact statistics used across the simulator and the
// scalability analyzer.

#include <cstddef>
#include <limits>
#include <string>
#include <vector>

namespace scal::util {

/// Welford streaming accumulator: count/mean/variance/min/max in O(1) space.
class Accumulator {
 public:
  void add(double x) noexcept;
  void merge(const Accumulator& other) noexcept;

  std::size_t count() const noexcept { return n_; }
  double sum() const noexcept { return mean_ * static_cast<double>(n_); }
  double mean() const noexcept { return n_ ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const noexcept;
  double stddev() const noexcept;
  double min() const noexcept { return n_ ? min_ : 0.0; }
  double max() const noexcept { return n_ ? max_ : 0.0; }
  bool empty() const noexcept { return n_ == 0; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Exact sample store with percentile queries.  Used where the sample
/// count is bounded (per-run response times etc.).
class Samples {
 public:
  void add(double x) {
    xs_.push_back(x);
    sorted_ = false;
  }
  void reserve(std::size_t n) { xs_.reserve(n); }
  std::size_t count() const noexcept { return xs_.size(); }
  double mean() const noexcept;
  /// Percentile in [0, 100] via linear interpolation; 0 if empty.
  double percentile(double p) const;
  double median() const { return percentile(50.0); }
  double min() const;
  double max() const;
  const std::vector<double>& values() const noexcept { return xs_; }

 private:
  mutable std::vector<double> xs_;
  mutable bool sorted_ = false;
  void ensure_sorted() const;
};

/// Least-squares line fit y = a + b*x over paired samples; used to report
/// the scalability slope of G(k) across a window of scale factors.
struct LineFit {
  double intercept = 0.0;
  double slope = 0.0;
  double r2 = 0.0;
};
LineFit fit_line(const std::vector<double>& x, const std::vector<double>& y);

/// Per-segment finite-difference slopes of y over x (size n-1).
std::vector<double> segment_slopes(const std::vector<double>& x,
                                   const std::vector<double>& y);

}  // namespace scal::util
