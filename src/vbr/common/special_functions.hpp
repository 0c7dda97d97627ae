// Special functions needed by the statistical library: incomplete gamma,
// Normal CDF and quantile, and their inverses. These power the Gamma and
// Gamma/Pareto distribution code (pdf/cdf/quantile), the marginal transform
// Y = F^{-1}(Phi(X)) of the source model, and the Whittle estimator.
#pragma once

namespace vbr {

/// Natural log of the Gamma function (thin wrapper; kept for a stable API).
double log_gamma(double x);

/// Regularized lower incomplete gamma P(s, x) = gamma(s, x) / Gamma(s),
/// for s > 0, x >= 0. Series expansion for x < s + 1, continued fraction
/// otherwise; absolute accuracy ~1e-14.
double gamma_p(double s, double x);

/// Inverse of gamma_p in x: returns x such that P(s, x) = p, for p in [0, 1).
/// Halley-refined initial guess (Abramowitz & Stegun 26.4.17 style).
double gamma_p_inverse(double s, double p);

/// Standard Normal cumulative distribution function Phi(x).
double normal_cdf(double x);

/// Inverse standard Normal CDF (quantile), p in (0, 1).
/// Wichura's AS241 algorithm; relative accuracy ~1e-15.
double normal_quantile(double p);

}  // namespace vbr
