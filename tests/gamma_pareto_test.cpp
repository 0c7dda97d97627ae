// Unit tests for the hybrid Gamma/Pareto distribution (Section 4.2) and the
// 10,000-point tabulated convolution used for multi-source aggregation.
#include "vbr/stats/gamma_pareto.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "vbr/common/error.hpp"
#include "vbr/common/rng.hpp"
#include "vbr/common/math_util.hpp"

namespace vbr::stats {
namespace {

GammaParetoParams paper_like_params() {
  GammaParetoParams p;
  p.mu_gamma = 27791.0;
  p.sigma_gamma = 6254.0;
  p.tail_slope = 12.0;
  return p;
}

TEST(GammaParetoTest, SpliceContinuity) {
  GammaParetoDistribution d(paper_like_params());
  const double x_th = d.threshold();
  EXPECT_GT(x_th, d.params().mu_gamma);  // splice is in the right tail
  // CDF continuous at the splice.
  EXPECT_NEAR(d.cdf(x_th - 1e-6), d.cdf(x_th + 1e-6), 1e-8);
  // Density continuous too (slope AND position matched).
  EXPECT_NEAR(d.pdf(x_th - 1e-6), d.pdf(x_th + 1e-6), 1e-4 * d.pdf(x_th));
}

TEST(GammaParetoTest, BodyIsGammaTailIsPareto) {
  GammaParetoDistribution d(paper_like_params());
  const auto& g = d.gamma_part();
  const auto& p = d.pareto_part();
  const double below = 0.5 * d.threshold();
  const double above = 2.0 * d.threshold();
  EXPECT_DOUBLE_EQ(d.pdf(below), g.pdf(below));
  EXPECT_DOUBLE_EQ(d.cdf(below), g.cdf(below));
  EXPECT_DOUBLE_EQ(d.pdf(above), p.pdf(above));
  EXPECT_DOUBLE_EQ(d.cdf(above), p.cdf(above));
}

TEST(GammaParetoTest, LogLogTailSlopeMatchesParameter) {
  GammaParetoDistribution d(paper_like_params());
  const double x1 = d.threshold() * 1.5;
  const double x2 = d.threshold() * 3.0;
  const double slope =
      (std::log(1.0 - d.cdf(x2)) - std::log(1.0 - d.cdf(x1))) / (std::log(x2) - std::log(x1));
  EXPECT_NEAR(slope, -12.0, 1e-6);
}

TEST(GammaParetoTest, QuantileRoundTripAcrossTheSplice) {
  GammaParetoDistribution d(paper_like_params());
  for (double p : {0.001, 0.1, 0.5, 0.9, d.threshold_cdf() - 1e-4,
                   d.threshold_cdf() + 1e-4, 0.999, 0.9999995}) {
    EXPECT_NEAR(d.cdf(d.quantile(p)), p, 1e-8) << "p=" << p;
  }
}

TEST(GammaParetoTest, QuantileIsMonotone) {
  GammaParetoDistribution d(paper_like_params());
  double prev = 0.0;
  for (double p = 0.01; p < 0.9999; p += 0.01) {
    const double q = d.quantile(p);
    EXPECT_GT(q, prev);
    prev = q;
  }
}

TEST(GammaParetoTest, MeanAndVarianceNearGammaBodyForSteepTail) {
  // With a steep tail (little mass moved), mean/variance stay close to the
  // Gamma part's — the paper's justification for using sample moments.
  GammaParetoDistribution d(paper_like_params());
  EXPECT_NEAR(d.mean(), 27791.0, 0.02 * 27791.0);
  EXPECT_NEAR(std::sqrt(d.variance()), 6254.0, 0.15 * 6254.0);
}

TEST(GammaParetoTest, HeavierTailShiftsMassRight) {
  auto heavy_params = paper_like_params();
  heavy_params.tail_slope = 4.0;
  GammaParetoDistribution heavy(heavy_params);
  GammaParetoDistribution steep(paper_like_params());
  const double far = 27791.0 + 10.0 * 6254.0;
  EXPECT_GT(heavy.ccdf(far), steep.ccdf(far));
}

TEST(GammaParetoTest, FitRecoversParametersFromOwnSample) {
  GammaParetoDistribution truth(paper_like_params());
  Rng rng(11);
  std::vector<double> data(200000);
  for (auto& v : data) v = truth.sample(rng);
  const auto fitted = GammaParetoDistribution::fit(data, 0.02);
  EXPECT_NEAR(fitted.mu_gamma, 27791.0, 0.02 * 27791.0);
  EXPECT_NEAR(fitted.sigma_gamma, 6254.0, 0.1 * 6254.0);
  EXPECT_NEAR(fitted.tail_slope, 12.0, 2.5);
}

TEST(GammaParetoTest, RejectsBadParameters) {
  GammaParetoParams p = paper_like_params();
  p.tail_slope = 0.0;
  EXPECT_THROW(GammaParetoDistribution{p}, vbr::InvalidArgument);
  p = paper_like_params();
  p.sigma_gamma = -1.0;
  EXPECT_THROW(GammaParetoDistribution{p}, vbr::InvalidArgument);
}

// ------------------------------------------------------------- Tabulated

/// Stop-loss E[(X - t)^+] of the continuous law: the survival function
/// integrated over (t, upper) by the trapezoid rule.
double stop_loss(const Distribution& d, double t, double upper) {
  const int steps = 20000;
  const double h = (upper - t) / steps;
  double sum = 0.5 * ((1.0 - d.cdf(t)) + (1.0 - d.cdf(upper)));
  for (int i = 1; i < steps; ++i) sum += 1.0 - d.cdf(t + h * i);
  return sum * h;
}

TEST(TabulatedDistributionTest, MatchesContinuousLaw) {
  GammaParetoDistribution d(paper_like_params());
  TabulatedDistribution tab(d, 0.0, 120000.0, 10000);
  for (double x : {10000.0, 20000.0, 27791.0, 40000.0, 70000.0}) {
    const double exact = stop_loss(d, x, 240000.0);
    EXPECT_NEAR(tab.partial_expectation_above(x), exact, 1e-3 * d.mean()) << "x=" << x;
  }
  EXPECT_NEAR(tab.mean(), d.mean(), 0.005 * d.mean());
}

TEST(TabulatedDistributionTest, ConvolutionOfTwoMatchesMonteCarlo) {
  GammaParetoDistribution d(paper_like_params());
  TabulatedDistribution tab(d, 0.0, 120000.0, 4096);
  const auto sum2 = tab.convolve_power(2);
  EXPECT_NEAR(sum2.mean(), 2.0 * d.mean(), 0.01 * d.mean());

  Rng rng(13);
  std::vector<double> draws(100000);
  for (auto& v : draws) v = d.sample(rng) + d.sample(rng);
  // Compare the stop-loss at a few quantiles of the draws.
  std::sort(draws.begin(), draws.end());
  for (double p : {0.1, 0.5, 0.9}) {
    const double t =
        draws[static_cast<std::size_t>(p * static_cast<double>(draws.size() - 1))];
    KahanSum excess;
    for (const double v : draws) excess.add(std::max(0.0, v - t));
    const double mc = excess.value() / static_cast<double>(draws.size());
    EXPECT_NEAR(sum2.partial_expectation_above(t), mc, 0.02 * mc) << "p=" << p;
  }
}

TEST(TabulatedDistributionTest, ConvolutionPowerScalesMeanLinearly) {
  GammaParetoDistribution d(paper_like_params());
  TabulatedDistribution tab(d, 0.0, 120000.0, 2048);
  for (std::size_t n : {1u, 2u, 5u, 20u}) {
    const auto sum = tab.convolve_power(n);
    EXPECT_NEAR(sum.mean(), static_cast<double>(n) * d.mean(),
                0.02 * static_cast<double>(n) * d.mean())
        << "n=" << n;
  }
}

TEST(TabulatedDistributionTest, AggregationNarrowsCoefficientOfVariation) {
  // The multiplexing story of Section 5: CoV of the N-source sum shrinks
  // like 1/sqrt(N).
  GammaParetoDistribution d(paper_like_params());
  TabulatedDistribution tab(d, 0.0, 120000.0, 2048);
  // Mean absolute deviation over the mean: E|S - m| = 2 E[(S - m)^+].
  auto cov_of = [](const TabulatedDistribution& t) {
    return 2.0 * t.partial_expectation_above(t.mean()) / t.mean();
  };
  const double spread1 = cov_of(tab.convolve_power(1));
  const double spread20 = cov_of(tab.convolve_power(20));
  EXPECT_LT(spread20, spread1 / 3.0);
}

}  // namespace
}  // namespace vbr::stats
