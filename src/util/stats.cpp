#include "util/stats.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

namespace scal::util {

void Accumulator::add(double x) noexcept {
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

void Accumulator::merge(const Accumulator& other) noexcept {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const auto n = static_cast<double>(n_);
  const auto m = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = n + m;
  mean_ += delta * m / total;
  m2_ += other.m2_ + delta * delta * n * m / total;
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double Accumulator::variance() const noexcept {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double Accumulator::stddev() const noexcept { return std::sqrt(variance()); }

void Samples::ensure_sorted() const {
  if (!sorted_) {
    std::sort(xs_.begin(), xs_.end());
    sorted_ = true;
  }
}

double Samples::mean() const noexcept {
  if (xs_.empty()) return 0.0;
  double s = 0.0;
  for (const double x : xs_) s += x;
  return s / static_cast<double>(xs_.size());
}

double Samples::percentile(double p) const {
  if (xs_.empty()) return 0.0;
  assert(p >= 0.0 && p <= 100.0);
  ensure_sorted();
  const double rank = p / 100.0 * static_cast<double>(xs_.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const auto hi = std::min(lo + 1, xs_.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return xs_[lo] * (1.0 - frac) + xs_[hi] * frac;
}

double Samples::min() const {
  if (xs_.empty()) return 0.0;
  return *std::min_element(xs_.begin(), xs_.end());
}

double Samples::max() const {
  if (xs_.empty()) return 0.0;
  return *std::max_element(xs_.begin(), xs_.end());
}

LineFit fit_line(const std::vector<double>& x, const std::vector<double>& y) {
  if (x.size() != y.size() || x.size() < 2) {
    throw std::invalid_argument("fit_line: need >= 2 paired samples");
  }
  const auto n = static_cast<double>(x.size());
  double sx = 0, sy = 0, sxx = 0, sxy = 0, syy = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    sx += x[i];
    sy += y[i];
    sxx += x[i] * x[i];
    sxy += x[i] * y[i];
    syy += y[i] * y[i];
  }
  const double denom = n * sxx - sx * sx;
  LineFit fit;
  if (denom == 0.0) {
    fit.intercept = sy / n;
    return fit;
  }
  fit.slope = (n * sxy - sx * sy) / denom;
  fit.intercept = (sy - fit.slope * sx) / n;
  const double ss_tot = syy - sy * sy / n;
  double ss_res = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double e = y[i] - (fit.intercept + fit.slope * x[i]);
    ss_res += e * e;
  }
  fit.r2 = ss_tot > 0.0 ? 1.0 - ss_res / ss_tot : 1.0;
  return fit;
}

std::vector<double> segment_slopes(const std::vector<double>& x,
                                   const std::vector<double>& y) {
  if (x.size() != y.size() || x.size() < 2) {
    throw std::invalid_argument("segment_slopes: need >= 2 paired samples");
  }
  std::vector<double> s;
  s.reserve(x.size() - 1);
  for (std::size_t i = 1; i < x.size(); ++i) {
    const double dx = x[i] - x[i - 1];
    s.push_back(dx != 0.0 ? (y[i] - y[i - 1]) / dx : 0.0);
  }
  return s;
}

}  // namespace scal::util
