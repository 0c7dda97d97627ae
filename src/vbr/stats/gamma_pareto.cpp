#include "vbr/stats/gamma_pareto.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "vbr/common/error.hpp"
#include "vbr/common/fft.hpp"
#include "vbr/common/math_util.hpp"
#include "vbr/common/special_functions.hpp"

namespace vbr::stats {
namespace {

// Local magnitude of the log-log slope of the Gamma CCDF:
//   -(d log Q / d log x) = x * f(x) / Q(x).
// This grows without bound (~ lambda * x), so for any target tail slope a
// there is a unique matching point beyond which the Gamma tail is steeper
// than the Pareto tail.
double gamma_ccdf_loglog_slope(const GammaDistribution& g, double x) {
  const double q = 1.0 - g.cdf(x);
  if (q <= 0.0) return std::numeric_limits<double>::infinity();
  return x * g.pdf(x) / q;
}

}  // namespace

namespace {

const GammaParetoParams& checked(const GammaParetoParams& params) {
  VBR_ENSURE(params.mu_gamma > 0.0, "mu_Gamma must be positive");
  VBR_ENSURE(params.sigma_gamma > 0.0, "sigma_Gamma must be positive");
  VBR_ENSURE(params.tail_slope > 0.0, "tail slope m_T must be positive");
  return params;
}

}  // namespace

GammaParetoDistribution::GammaParetoDistribution(const GammaParetoParams& params)
    : params_(checked(params)),
      gamma_(GammaDistribution::fit_moments(params.mu_gamma,
                                            params.sigma_gamma * params.sigma_gamma)),
      pareto_(1.0, 1.0) /* replaced below once x_th is known */ {

  // Locate x_th: the point where the Gamma CCDF's log-log slope equals the
  // Pareto tail slope. Bracket then bisect; the slope function is increasing
  // in the region of interest.
  const double target = params_.tail_slope;
  double lo = params_.mu_gamma;
  double hi = params_.mu_gamma + 2.0 * params_.sigma_gamma;
  // The slope at the mean can already exceed the target for steep tails;
  // widen the bracket downward to a tiny quantile if needed.
  while (gamma_ccdf_loglog_slope(gamma_, lo) > target && lo > 1e-9 * params_.mu_gamma) {
    lo *= 0.5;
  }
  while (gamma_ccdf_loglog_slope(gamma_, hi) < target) {
    hi *= 2.0;
    VBR_ENSURE(hi < 1e9 * params_.mu_gamma, "failed to bracket Gamma/Pareto splice point");
  }
  for (int i = 0; i < 200; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (gamma_ccdf_loglog_slope(gamma_, mid) < target) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  x_th_ = 0.5 * (lo + hi);
  p_th_ = gamma_.cdf(x_th_);

  // Position match: choose k so the Pareto CCDF equals the Gamma CCDF at x_th.
  const double q_th = 1.0 - p_th_;
  VBR_ENSURE(q_th > 0.0 && q_th < 1.0, "degenerate splice point");
  const double k = x_th_ * std::pow(q_th, 1.0 / target);
  pareto_ = ParetoDistribution(k, target);
}

double GammaParetoDistribution::pdf(double x) const {
  if (x <= x_th_) return gamma_.pdf(x);
  return pareto_.pdf(x);
}

double GammaParetoDistribution::cdf(double x) const {
  if (x <= x_th_) return gamma_.cdf(x);
  return pareto_.cdf(x);
}

double GammaParetoDistribution::quantile(double p) const {
  VBR_ENSURE(p >= 0.0 && p < 1.0, "quantile requires p in [0, 1)");
  if (p <= p_th_) return gamma_.quantile(p);
  return pareto_.quantile(p);
}

double GammaParetoDistribution::mean() const {
  const double s = gamma_.shape();
  const double lambda = gamma_.rate();
  const double a = pareto_.a();
  const double k = pareto_.k();
  // E[X; X <= x_th] for the Gamma piece.
  const double body = (s / lambda) * gamma_p(s + 1.0, lambda * x_th_);
  if (a <= 1.0) return std::numeric_limits<double>::infinity();
  // Integral of x * a k^a x^{-a-1} over (x_th, inf).
  const double tail = a * std::pow(k, a) / (a - 1.0) * std::pow(x_th_, 1.0 - a);
  return body + tail;
}

double GammaParetoDistribution::variance() const {
  const double s = gamma_.shape();
  const double lambda = gamma_.rate();
  const double a = pareto_.a();
  const double k = pareto_.k();
  if (a <= 2.0) return std::numeric_limits<double>::infinity();
  const double m1 = mean();
  const double body2 = (s * (s + 1.0) / (lambda * lambda)) * gamma_p(s + 2.0, lambda * x_th_);
  const double tail2 = a * std::pow(k, a) / (a - 2.0) * std::pow(x_th_, 2.0 - a);
  return body2 + tail2 - m1 * m1;
}

GammaParetoParams GammaParetoDistribution::fit(std::span<const double> data,
                                               double tail_fraction) {
  VBR_ENSURE(data.size() >= 100, "Gamma/Pareto fit needs a reasonably large sample");
  GammaParetoParams p;
  p.mu_gamma = kahan_total(data) / static_cast<double>(data.size());
  KahanSum ss;
  for (double v : data) {
    const double d = v - p.mu_gamma;
    ss.add(d * d);
  }
  p.sigma_gamma = std::sqrt(ss.value() / static_cast<double>(data.size() - 1));
  p.tail_slope = ParetoDistribution::fit_tail(data, tail_fraction).a();
  return p;
}

// ------------------------------------------------------- TabulatedDistribution

TabulatedDistribution::TabulatedDistribution(const Distribution& dist, double lo, double hi,
                                             std::size_t points) {
  VBR_ENSURE(points >= 16, "tabulation needs at least 16 points");
  VBR_ENSURE(lo < hi, "tabulation range must be non-empty");
  lo_ = lo;
  hi_ = hi;
  step_ = (hi - lo) / static_cast<double>(points);
  pmf_.resize(points);
  // Cell mass from CDF differences (exact binning of the continuous law).
  double prev = dist.cdf(lo);
  for (std::size_t i = 0; i < points; ++i) {
    const double right = dist.cdf(lo + static_cast<double>(i + 1) * step_);
    pmf_[i] = std::max(0.0, right - prev);
    prev = right;
  }
  // Fold the off-grid mass into the edge cells so the table is a proper law.
  const double total = kahan_total(pmf_);
  if (total > 0.0 && total < 1.0) {
    pmf_.front() += dist.cdf(lo);
    pmf_.back() += 1.0 - dist.cdf(hi);
  }
  normalize();
}

void TabulatedDistribution::normalize() {
  // Normalize away accumulated numerical drift.
  const double total = kahan_total(pmf_);
  VBR_ENSURE(total > 0.0, "tabulated distribution has no mass");
  for (auto& v : pmf_) v /= total;
}

TabulatedDistribution TabulatedDistribution::convolve_power(std::size_t n) const {
  VBR_ENSURE(n >= 1, "convolution power must be >= 1");
  if (n == 1) return *this;

  const std::size_t m = pmf_.size();
  const std::size_t out_len = n * (m - 1) + 1;
  const std::size_t fft_len = next_power_of_two(out_len);

  std::vector<std::complex<double>> spec(fft_len, {0.0, 0.0});
  for (std::size_t i = 0; i < m; ++i) spec[i] = pmf_[i];
  fft(spec);
  for (auto& v : spec) v = std::pow(v, static_cast<double>(n));
  ifft(spec);

  TabulatedDistribution out;
  out.lo_ = lo_ * static_cast<double>(n);
  out.step_ = step_;
  out.hi_ = out.lo_ + static_cast<double>(out_len) * step_;
  out.pmf_.resize(out_len);
  for (std::size_t i = 0; i < out_len; ++i) out.pmf_[i] = std::max(0.0, spec[i].real());
  out.normalize();
  return out;
}

double TabulatedDistribution::mean() const {
  KahanSum sum;
  for (std::size_t i = 0; i < pmf_.size(); ++i) {
    sum.add(pmf_[i] * (lo_ + (static_cast<double>(i) + 0.5) * step_));
  }
  return sum.value();
}

double TabulatedDistribution::partial_expectation_above(double threshold) const {
  KahanSum sum;
  for (std::size_t i = 0; i < pmf_.size(); ++i) {
    const double x = lo_ + (static_cast<double>(i) + 0.5) * step_;
    if (x > threshold) sum.add(pmf_[i] * (x - threshold));
  }
  return sum.value();
}

}  // namespace vbr::stats
