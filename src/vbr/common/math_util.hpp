// Small numeric utilities shared across the library: compensated summation,
// least-squares regression (used by every Hurst estimator), log-spaced grids
// for variance-time / R/S lag selection, and percentile helpers.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace vbr {

/// Kahan-compensated running sum of T: a double, or a GCC/Clang vector of
/// doubles whose every element is an independent sum (the lanes of the
/// lockstep Hosking kernel). add() is inline so hot loops that keep several
/// independent sums hold them in registers; its four operations and their
/// order are the contract, and vector arithmetic performs them element by
/// element with the same IEEE rounding, so each vector element carries
/// exactly the bits of a scalar sum fed the same values.
template <typename T>
class BasicKahanSum {
 public:
  void add(const T& value) {
    const T y = value - compensation_;
    const T t = sum_ + y;
    compensation_ = (t - sum_) - y;
    sum_ = t;
  }
  const T& value() const { return sum_; }

  /// The compensation term, exposed (with from_parts) so a checkpoint can
  /// persist a running sum mid-stream and resume it bit-for-bit; rounding
  /// of later add()s depends on both words, not just value().
  const T& compensation() const { return compensation_; }

  /// Reconstruct the exact accumulator state captured by (value(),
  /// compensation()).
  static BasicKahanSum from_parts(T sum, T compensation) {
    BasicKahanSum k;
    k.sum_ = sum;
    k.compensation_ = compensation;
    return k;
  }

 private:
  T sum_{};
  T compensation_{};
};

using KahanSum = BasicKahanSum<double>;

/// Sum of a range with compensated summation.
double kahan_total(std::span<const double> values);

/// Result of a simple least-squares line fit y = intercept + slope * x.
struct LinearFit {
  double slope = 0.0;
  double intercept = 0.0;
  double r_squared = 0.0;      ///< coefficient of determination
  double slope_stderr = 0.0;   ///< standard error of the slope estimate
  std::size_t n = 0;           ///< number of points used
};

/// Ordinary least squares on (x, y) pairs; requires x.size() == y.size() >= 2.
LinearFit linear_fit(std::span<const double> x, std::span<const double> y);

/// Approximately `count` distinct integers log-spaced in [lo, hi], ascending.
/// Duplicates after rounding are removed, so the result can be shorter.
std::vector<std::size_t> log_spaced_sizes(std::size_t lo, std::size_t hi, std::size_t count);

/// `count` doubles log-spaced in [lo, hi] inclusive; lo, hi > 0.
std::vector<double> log_spaced(double lo, double hi, std::size_t count);

/// Percentile (q in [0,1]) with linear interpolation; sorts a copy.
double percentile(std::span<const double> values, double q);

/// Means over non-overlapping blocks of size m; trailing partial block is
/// discarded. The aggregated-process operator X^(m) of the paper.
std::vector<double> block_means(std::span<const double> values, std::size_t m);

/// Sample mean.
double sample_mean(std::span<const double> values);

/// Unbiased (n-1) sample variance.
double sample_variance(std::span<const double> values);

}  // namespace vbr
