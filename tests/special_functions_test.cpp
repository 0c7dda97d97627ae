// Unit tests for special functions against closed forms and published
// reference values.
#include "vbr/common/special_functions.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "vbr/common/error.hpp"

namespace vbr {
namespace {

TEST(SpecialFunctionsTest, LogGammaKnownValues) {
  EXPECT_NEAR(log_gamma(1.0), 0.0, 1e-14);
  EXPECT_NEAR(log_gamma(2.0), 0.0, 1e-14);
  EXPECT_NEAR(log_gamma(5.0), std::log(24.0), 1e-12);
  EXPECT_NEAR(log_gamma(0.5), 0.5 * std::log(M_PI), 1e-12);
  EXPECT_THROW(log_gamma(0.0), InvalidArgument);
}

TEST(SpecialFunctionsTest, GammaPBoundaries) {
  EXPECT_DOUBLE_EQ(gamma_p(2.0, 0.0), 0.0);
  EXPECT_NEAR(gamma_p(3.0, 1e8), 1.0, 1e-12);
}

TEST(SpecialFunctionsTest, GammaPMatchesExponentialClosedForm) {
  // P(1, x) = 1 - e^{-x}.
  for (double x : {0.1, 0.5, 1.0, 2.0, 5.0, 10.0}) {
    EXPECT_NEAR(gamma_p(1.0, x), 1.0 - std::exp(-x), 1e-13) << "x=" << x;
  }
}

TEST(SpecialFunctionsTest, GammaPMatchesErlangClosedForm) {
  // P(2, x) = 1 - e^{-x}(1 + x).
  for (double x : {0.2, 1.0, 3.0, 8.0}) {
    EXPECT_NEAR(gamma_p(2.0, x), 1.0 - std::exp(-x) * (1.0 + x), 1e-13) << "x=" << x;
  }
}

TEST(SpecialFunctionsTest, GammaPInverseRoundTrip) {
  for (double s : {0.5, 1.0, 2.0, 19.75, 100.0}) {
    for (double p : {1e-6, 0.01, 0.1, 0.5, 0.9, 0.99, 0.999999}) {
      const double x = gamma_p_inverse(s, p);
      EXPECT_NEAR(gamma_p(s, x), p, 1e-9) << "s=" << s << " p=" << p;
    }
  }
}

TEST(SpecialFunctionsTest, GammaPInverseEdges) {
  EXPECT_DOUBLE_EQ(gamma_p_inverse(3.0, 0.0), 0.0);
  EXPECT_THROW(gamma_p_inverse(3.0, 1.0), InvalidArgument);
  EXPECT_THROW(gamma_p_inverse(0.0, 0.5), InvalidArgument);
}

TEST(SpecialFunctionsTest, NormalCdfKnownValues) {
  EXPECT_NEAR(normal_cdf(0.0), 0.5, 1e-15);
  EXPECT_NEAR(normal_cdf(1.0), 0.8413447460685429, 1e-12);
  EXPECT_NEAR(normal_cdf(-1.0), 1.0 - 0.8413447460685429, 1e-12);
  EXPECT_NEAR(normal_cdf(1.959963984540054), 0.975, 1e-12);
  EXPECT_NEAR(normal_cdf(-8.0), 6.22096057427178e-16, 1e-17);
}

TEST(SpecialFunctionsTest, NormalQuantileKnownValues) {
  EXPECT_NEAR(normal_quantile(0.5), 0.0, 1e-15);
  EXPECT_NEAR(normal_quantile(0.975), 1.959963984540054, 1e-12);
  EXPECT_NEAR(normal_quantile(0.025), -1.959963984540054, 1e-12);
  EXPECT_NEAR(normal_quantile(0.8413447460685429), 1.0, 1e-10);
  EXPECT_THROW(normal_quantile(0.0), InvalidArgument);
  EXPECT_THROW(normal_quantile(1.0), InvalidArgument);
}

// Property sweep: quantile and CDF are inverse over a wide probability grid.
class NormalRoundTrip : public ::testing::TestWithParam<double> {};

TEST_P(NormalRoundTrip, QuantileCdfInverse) {
  const double p = GetParam();
  EXPECT_NEAR(normal_cdf(normal_quantile(p)), p, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Probabilities, NormalRoundTrip,
                         ::testing::Values(1e-12, 1e-8, 1e-4, 0.01, 0.1, 0.3, 0.5, 0.7,
                                           0.9, 0.99, 0.9999, 1.0 - 1e-8));

}  // namespace
}  // namespace vbr
