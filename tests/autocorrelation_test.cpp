// Unit tests for the sample ACF (Fig. 7) and its decay-fit helpers.
#include "vbr/stats/autocorrelation.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "vbr/common/error.hpp"
#include "vbr/common/math_util.hpp"
#include "vbr/common/rng.hpp"

namespace vbr::stats {
namespace {

std::vector<double> ar1_series(std::size_t n, double rho, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> x(n);
  x[0] = rng.normal();
  const double noise_sd = std::sqrt(1.0 - rho * rho);
  for (std::size_t i = 1; i < n; ++i) x[i] = rho * x[i - 1] + noise_sd * rng.normal();
  return x;
}

/// Direct-summation O(n * lags) reference for the FFT estimator.
std::vector<double> autocorrelation_direct(std::span<const double> data, std::size_t max_lag) {
  const std::size_t n = data.size();
  const double mean = kahan_total(data) / static_cast<double>(n);

  std::vector<double> r(max_lag + 1, 0.0);
  KahanSum c0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = data[i] - mean;
    c0.add(d * d);
  }
  for (std::size_t k = 0; k <= max_lag; ++k) {
    KahanSum ck;
    for (std::size_t i = 0; i + k < n; ++i) {
      ck.add((data[i] - mean) * (data[i + k] - mean));
    }
    r[k] = ck.value() / c0.value();
  }
  return r;
}

TEST(AutocorrelationTest, LagZeroIsOne) {
  Rng rng(1);
  std::vector<double> x(1000);
  for (auto& v : x) v = rng.normal();
  const auto r = autocorrelation(x, 10);
  EXPECT_DOUBLE_EQ(r[0], 1.0);
}

TEST(AutocorrelationTest, FftMatchesDirectImplementation) {
  Rng rng(2);
  std::vector<double> x(2000);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = rng.normal() + 0.01 * static_cast<double>(i % 50);
  }
  const auto fast = autocorrelation(x, 100);
  const auto direct = autocorrelation_direct(x, 100);
  ASSERT_EQ(fast.size(), direct.size());
  for (std::size_t k = 0; k < fast.size(); ++k) {
    EXPECT_NEAR(fast[k], direct[k], 1e-10) << "lag " << k;
  }
}

TEST(AutocorrelationTest, WhiteNoiseDecorrelates) {
  Rng rng(3);
  std::vector<double> x(100000);
  for (auto& v : x) v = rng.normal();
  const auto r = autocorrelation(x, 50);
  for (std::size_t k = 1; k <= 50; ++k) {
    EXPECT_NEAR(r[k], 0.0, 4.0 / std::sqrt(static_cast<double>(x.size()))) << "lag " << k;
  }
}

class Ar1AcfSweep : public ::testing::TestWithParam<double> {};

TEST_P(Ar1AcfSweep, RecoverGeometricDecay) {
  const double rho = GetParam();
  const auto x = ar1_series(200000, rho, 42);
  const auto r = autocorrelation(x, 20);
  for (std::size_t k = 1; k <= 5; ++k) {
    EXPECT_NEAR(r[k], std::pow(rho, static_cast<double>(k)), 0.03)
        << "rho=" << rho << " lag=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(RhoGrid, Ar1AcfSweep, ::testing::Values(0.2, 0.5, 0.8, 0.95));

TEST(AutocorrelationTest, PeriodicSignalShowsPeriodicAcf) {
  std::vector<double> x(10000);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = std::sin(2.0 * M_PI * static_cast<double>(i) / 25.0);
  }
  const auto r = autocorrelation(x, 50);
  EXPECT_NEAR(r[25], 1.0, 0.02);   // full period
  EXPECT_NEAR(r[12], -0.95, 0.1);  // roughly half period
}

TEST(AutocorrelationTest, Preconditions) {
  std::vector<double> x{1.0, 2.0, 3.0};
  EXPECT_THROW(autocorrelation(x, 3), vbr::InvalidArgument);  // lag >= n
  std::vector<double> constant(100, 5.0);
  EXPECT_THROW(autocorrelation(constant, 10), vbr::InvalidArgument);
}

TEST(DecayFitTest, ExponentialFitRecoversRho) {
  // Build an exact exponential ACF and check the fit.
  std::vector<double> acf(300);
  for (std::size_t k = 0; k < acf.size(); ++k) acf[k] = std::pow(0.97, static_cast<double>(k));
  EXPECT_NEAR(fit_exponential_decay(acf, 1, 200), 0.97, 1e-6);
}

TEST(DecayFitTest, HyperbolicFitRecoversBeta) {
  std::vector<double> acf(1001);
  acf[0] = 1.0;
  for (std::size_t k = 1; k < acf.size(); ++k) {
    acf[k] = std::pow(static_cast<double>(k), -0.4);
  }
  EXPECT_NEAR(fit_hyperbolic_decay(acf, 10, 1000), 0.4, 1e-6);
}

TEST(DecayFitTest, DistinguishesExponentialFromHyperbolic) {
  // An exponential ACF fitted as hyperbolic over a far lag window gives a
  // large beta; a true LRD ACF gives beta < 1. This is the Fig. 7 argument.
  std::vector<double> exp_acf(2001);
  std::vector<double> hyp_acf(2001);
  for (std::size_t k = 0; k < exp_acf.size(); ++k) {
    exp_acf[k] = std::pow(0.99, static_cast<double>(k));
    hyp_acf[k] = (k == 0) ? 1.0 : 0.9 * std::pow(static_cast<double>(k), -0.4);
  }
  const double beta_exp = fit_hyperbolic_decay(exp_acf, 100, 2000);
  const double beta_hyp = fit_hyperbolic_decay(hyp_acf, 100, 2000);
  EXPECT_GT(beta_exp, 2.0);
  EXPECT_NEAR(beta_hyp, 0.4, 0.01);
}

}  // namespace
}  // namespace vbr::stats
