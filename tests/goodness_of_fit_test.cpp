// Tests for the Kolmogorov-Smirnov goodness-of-fit test.
#include "vbr/stats/goodness_of_fit.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "vbr/common/error.hpp"
#include "vbr/common/rng.hpp"
#include "vbr/stats/gamma_pareto.hpp"

namespace vbr::stats {
namespace {

TEST(KolmogorovTest, SurvivalFunctionKnownValues) {
  EXPECT_DOUBLE_EQ(kolmogorov_survival(0.0), 1.0);
  // Classic critical values: Q(1.36) ~ 0.05, Q(1.63) ~ 0.01.
  EXPECT_NEAR(kolmogorov_survival(1.36), 0.05, 0.002);
  EXPECT_NEAR(kolmogorov_survival(1.63), 0.01, 0.001);
  EXPECT_LT(kolmogorov_survival(3.0), 1e-6);
}

TEST(KsTest, CorrectModelGetsHighPValue) {
  Rng rng(1);
  NormalDistribution model(10.0, 2.0);
  std::vector<double> data(5000);
  for (auto& v : data) v = model.sample(rng);
  const auto result = ks_test(data, model);
  EXPECT_LT(result.statistic, 0.03);
  EXPECT_GT(result.p_value, 0.01);
}

TEST(KsTest, WrongModelGetsRejected) {
  Rng rng(2);
  NormalDistribution truth(10.0, 2.0);
  NormalDistribution wrong(11.0, 2.0);  // half-sigma shift
  std::vector<double> data(5000);
  for (auto& v : data) v = truth.sample(rng);
  const auto result = ks_test(data, wrong);
  EXPECT_GT(result.statistic, 0.08);
  EXPECT_LT(result.p_value, 1e-6);
}

TEST(KsTest, RanksTailModelsLikeFigFour) {
  // Gamma/Pareto data: the hybrid must beat the pure-Gamma fit, which must
  // beat the Normal — the quantitative version of Fig. 4's ordering.
  GammaParetoParams params;
  params.mu_gamma = 27791.0;
  params.sigma_gamma = 6254.0;
  params.tail_slope = 9.0;
  const GammaParetoDistribution truth(params);
  Rng rng(3);
  std::vector<double> data(20000);
  for (auto& v : data) v = truth.sample(rng);

  const double d_hybrid = ks_test(data, truth).statistic;
  const double d_gamma = ks_test(data, GammaDistribution::fit(data)).statistic;
  const double d_normal = ks_test(data, NormalDistribution::fit(data)).statistic;
  EXPECT_LT(d_hybrid, d_gamma);
  EXPECT_LT(d_gamma, d_normal);
}

}  // namespace
}  // namespace vbr::stats
