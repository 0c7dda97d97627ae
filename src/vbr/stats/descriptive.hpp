// Descriptive statistics: histograms, empirical CDF/CCDF and quantiles.
//
// These back the paper's distributional exhibits: Fig. 3 (per-segment
// bandwidth histograms), Figs. 4-5 (log-log complementary CDF / left-tail
// CDF) and Fig. 6 (probability density vs. the Gamma/Pareto model).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace vbr::stats {

/// Batch central-moment summary: the two-pass reference against which the
/// one-pass streaming estimators (vbr::stream::StreamingMoments) are
/// cross-checked. Definitions match the streaming accessors exactly:
/// unbiased (n-1) variance, g1 skewness, excess kurtosis.
struct BatchMoments {
  std::size_t count = 0;
  double mean = 0.0;
  double variance = 0.0;         ///< unbiased, n-1
  double skewness = 0.0;         ///< sqrt(n) m3 / m2^{3/2}
  double excess_kurtosis = 0.0;  ///< n m4 / m2^2 - 3
  double min = 0.0;
  double max = 0.0;
};

/// Two-pass batch moments; requires at least 4 samples and a non-constant
/// series.
BatchMoments batch_moments(std::span<const double> data);

/// Fixed-width histogram over [lo, hi).
struct Histogram {
  double lo = 0.0;
  double hi = 1.0;
  std::vector<std::size_t> counts;   ///< per-bin counts; out-of-range clamped to edge bins
  std::size_t total = 0;

  double bin_width() const;
  double bin_center(std::size_t i) const;
  /// Probability density estimate for bin i (count / (total * width)).
  double density(std::size_t i) const;
  /// Bin probability mass (count / total).
  double mass(std::size_t i) const;
};

/// Build a histogram with `bins` equal-width bins spanning [lo, hi).
/// Values outside the range are counted in the first/last bin.
Histogram make_histogram(std::span<const double> data, std::size_t bins, double lo, double hi);

/// Empirical distribution of a sample; keeps a sorted copy.
class Ecdf {
 public:
  explicit Ecdf(std::span<const double> data);

  std::size_t size() const { return sorted_.size(); }
  const std::vector<double>& sorted() const { return sorted_; }

  /// P(X <= x).
  double cdf(double x) const;
  /// P(X > x).
  double ccdf(double x) const { return 1.0 - cdf(x); }
  /// Order-statistic quantile with linear interpolation, q in [0, 1].
  double quantile(double q) const;

 private:
  std::vector<double> sorted_;
};

}  // namespace vbr::stats
