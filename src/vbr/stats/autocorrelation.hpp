// Sample autocorrelation function (Fig. 7).
//
// The default estimator is the standard biased ACF (autocovariance divided
// by n and normalized by the lag-0 value), computed via FFT so that the
// paper's 10,000-lag curve over 171,000 frames is cheap.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace vbr::stats {

/// r(0..max_lag) via FFT; r[0] == 1. Requires max_lag < data.size().
std::vector<double> autocorrelation(std::span<const double> data, std::size_t max_lag);

/// Fit lag range [lag_lo, lag_hi] of an ACF to r(n) ~ C * rho^n (log-linear
/// regression); returns rho. Used to show the exponential fit holds only for
/// the first ~100-300 lags (Fig. 7 discussion).
double fit_exponential_decay(std::span<const double> acf, std::size_t lag_lo,
                             std::size_t lag_hi);

/// Fit lag range to r(n) ~ C * n^{-beta} (log-log regression); returns beta.
double fit_hyperbolic_decay(std::span<const double> acf, std::size_t lag_lo,
                            std::size_t lag_hi);

}  // namespace vbr::stats
