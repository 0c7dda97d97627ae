#include "vbr/stats/autocorrelation.hpp"

#include <cmath>
#include <complex>

#include "vbr/common/error.hpp"
#include "vbr/common/fft.hpp"
#include "vbr/common/math_util.hpp"

namespace vbr::stats {

std::vector<double> autocorrelation(std::span<const double> data, std::size_t max_lag) {
  const std::size_t n = data.size();
  VBR_ENSURE(n >= 2, "autocorrelation requires at least two samples");
  VBR_ENSURE(max_lag < n, "max_lag must be smaller than the sample size");

  const double mean = kahan_total(data) / static_cast<double>(n);

  // Wiener-Khinchin: pad to >= 2n to avoid circular wrap. The input is
  // real, so rfft() gives the half spectrum; the power spectrum is real and
  // even, so irfft() of the half power spectrum is the circular
  // autocovariance — both transforms at half the complex-FFT cost.
  const std::size_t padded = next_power_of_two(2 * n);
  std::vector<double> buf(padded, 0.0);
  for (std::size_t i = 0; i < n; ++i) buf[i] = data[i] - mean;
  auto spectrum = rfft(buf);
  for (auto& v : spectrum) v = std::norm(v);
  const auto acov = irfft(spectrum, padded);

  const double c0 = acov[0] / static_cast<double>(n);
  VBR_ENSURE(c0 > 0.0, "autocorrelation of a constant series is undefined");
  std::vector<double> r(max_lag + 1);
  for (std::size_t k = 0; k <= max_lag; ++k) {
    r[k] = (acov[k] / static_cast<double>(n)) / c0;
  }
  return r;
}

namespace {

// Collect (x, log r) pairs over a lag window, skipping non-positive r values
// (log-domain regression is undefined there).
void collect_log_points(std::span<const double> acf, std::size_t lag_lo, std::size_t lag_hi,
                        bool log_x, std::vector<double>& xs, std::vector<double>& ys) {
  VBR_ENSURE(lag_lo >= 1 && lag_lo < lag_hi, "invalid lag window");
  VBR_ENSURE(lag_hi < acf.size(), "lag window exceeds ACF length");
  for (std::size_t k = lag_lo; k <= lag_hi; ++k) {
    if (acf[k] <= 0.0) continue;
    xs.push_back(log_x ? std::log(static_cast<double>(k)) : static_cast<double>(k));
    ys.push_back(std::log(acf[k]));
  }
  VBR_ENSURE(xs.size() >= 3, "too few positive ACF values in the lag window");
}

}  // namespace

double fit_exponential_decay(std::span<const double> acf, std::size_t lag_lo,
                             std::size_t lag_hi) {
  std::vector<double> xs;
  std::vector<double> ys;
  collect_log_points(acf, lag_lo, lag_hi, /*log_x=*/false, xs, ys);
  return std::exp(linear_fit(xs, ys).slope);
}

double fit_hyperbolic_decay(std::span<const double> acf, std::size_t lag_lo,
                            std::size_t lag_hi) {
  std::vector<double> xs;
  std::vector<double> ys;
  collect_log_points(acf, lag_lo, lag_hi, /*log_x=*/true, xs, ys);
  return -linear_fit(xs, ys).slope;
}

}  // namespace vbr::stats
