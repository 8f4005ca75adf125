#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <utility>
#include <vector>

namespace rdfc {
namespace e2e {

/// Raw samples with exact nearest-rank percentiles.  Every timing the
/// benchmark reports goes through this class: util::LatencyHistogram rounds
/// to power-of-two buckets, which can hide a 2x regression inside one bucket.
class Samples {
 public:
  Samples() = default;
  explicit Samples(std::vector<double> values)
      : values_(std::move(values)), sorted_(values_.size() < 2) {}

  void Add(double x) {
    values_.push_back(x);
    sorted_ = false;
  }
  void AddAll(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
    sorted_ = false;
  }

  std::size_t count() const { return values_.size(); }
  bool empty() const { return values_.empty(); }

  /// Nearest-rank percentile: the smallest sample x such that at least p% of
  /// the samples are <= x, i.e. the sample of 1-based rank ceil(p/100 * n);
  /// p <= 0 gives the minimum.  NaN when there are no samples.
  double Percentile(double p) {
    if (values_.empty()) return std::numeric_limits<double>::quiet_NaN();
    if (!sorted_) {
      std::sort(values_.begin(), values_.end());
      sorted_ = true;
    }
    const double n = static_cast<double>(values_.size());
    // The epsilon absorbs binary rounding of p (99.9 * 1000 / 100 must be
    // rank 999, not 1000).
    double rank = std::ceil(p / 100.0 * n - 1e-9);
    rank = std::clamp(rank, 1.0, n);
    return values_[static_cast<std::size_t>(rank) - 1];
  }

  double Mean() const {
    if (values_.empty()) return std::numeric_limits<double>::quiet_NaN();
    double sum = 0.0;
    for (double v : values_) sum += v;
    return sum / static_cast<double>(values_.size());
  }

 private:
  std::vector<double> values_;
  bool sorted_ = true;
};

/// The exact nearest-rank p-th percentile of each of `windows` equal
/// consecutive slices of `in_order` (NaN for an empty slice).
inline std::vector<double> PercentilePerWindow(const std::vector<double>& in_order,
                                               double p, std::size_t windows) {
  std::vector<double> out;
  for (std::size_t w = 0; w < windows; ++w) {
    const auto begin = in_order.begin() + static_cast<std::ptrdiff_t>(
                                              in_order.size() * w / windows);
    const auto end = in_order.begin() + static_cast<std::ptrdiff_t>(
                                            in_order.size() * (w + 1) / windows);
    out.push_back(Samples(std::vector<double>(begin, end)).Percentile(p));
  }
  return out;
}

/// The median of PercentilePerWindow.  A tail percentile taken this way is
/// not moved by one transient stall of the host, which lands in a single
/// slice.  NaN when a slice would be empty.
inline double WindowedPercentile(const std::vector<double>& in_order, double p,
                                 std::size_t windows) {
  if (windows == 0 || in_order.size() < windows) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  return Samples(PercentilePerWindow(in_order, p, windows)).Percentile(50);
}

}  // namespace e2e
}  // namespace rdfc
