// Tests for the Eq. (13) marginal distortion Y = F^{-1}(Phi(X)) — the
// paper's 10,000-point tabulated implementation against the exact map — and
// the key invariance: the transform preserves H.
#include "vbr/model/marginal_transform.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "vbr/common/math_util.hpp"
#include "vbr/common/rng.hpp"
#include "vbr/common/special_functions.hpp"
#include "vbr/model/davies_harte.hpp"
#include "vbr/stats/whittle.hpp"

namespace vbr::model {
namespace {

stats::GammaParetoParams paper_like_params() {
  stats::GammaParetoParams p;
  p.mu_gamma = 27791.0;
  p.sigma_gamma = 6254.0;
  p.tail_slope = 12.0;
  return p;
}

/// Eq. (13) evaluated directly, with Phi(z) kept inside (0, 1) as the map
/// keeps it.
double exact_map(const stats::Distribution& target, double z) {
  return target.quantile(std::clamp(normal_cdf(z), 1e-15, 1.0 - 1e-15));
}

TEST(TransformTest, GaussianInputYieldsTargetMoments) {
  Rng rng(3);
  std::vector<double> gaussian(200000);
  for (auto& v : gaussian) v = rng.normal();
  const stats::GammaParetoDistribution target(paper_like_params());
  const auto y = TabulatedMarginalMap(target).apply(gaussian);
  EXPECT_NEAR(sample_mean(y), target.mean(), 0.01 * target.mean());
  EXPECT_NEAR(std::sqrt(sample_variance(y)), std::sqrt(target.variance()),
              0.05 * std::sqrt(target.variance()));
  for (double v : y) ASSERT_GT(v, 0.0);
}

TEST(TransformTest, MonotoneInInput) {
  const stats::GammaParetoDistribution target(paper_like_params());
  std::vector<double> zs{-3.0, -1.0, 0.0, 1.0, 3.0, 5.0};
  const auto ys = TabulatedMarginalMap(target).apply(zs);
  for (std::size_t i = 1; i < ys.size(); ++i) EXPECT_GT(ys[i], ys[i - 1]);
}

TEST(TransformTest, RankOrderPreserved) {
  Rng rng(5);
  std::vector<double> gaussian(1000);
  for (auto& v : gaussian) v = rng.normal();
  const stats::GammaParetoDistribution target(paper_like_params());
  const auto y = TabulatedMarginalMap(target).apply(gaussian);
  // argsort equality.
  std::vector<std::size_t> gi(gaussian.size());
  std::vector<std::size_t> yi(y.size());
  for (std::size_t i = 0; i < gi.size(); ++i) gi[i] = yi[i] = i;
  std::sort(gi.begin(), gi.end(), [&](auto a, auto b) { return gaussian[a] < gaussian[b]; });
  std::sort(yi.begin(), yi.end(), [&](auto a, auto b) { return y[a] < y[b]; });
  EXPECT_EQ(gi, yi);
}

TEST(TransformTest, NonUnitGaussianParametersHandled) {
  Rng rng(7);
  std::vector<double> gaussian(100000);
  for (auto& v : gaussian) v = rng.normal(5.0, 2.0);
  const stats::GammaParetoDistribution target(paper_like_params());
  const auto y = TabulatedMarginalMap(target).apply(gaussian, 5.0, 2.0);
  EXPECT_NEAR(sample_mean(y), target.mean(), 0.01 * target.mean());
}

TEST(TabulatedMapTest, AgreesWithExactMapInBody) {
  const stats::GammaParetoDistribution target(paper_like_params());
  const TabulatedMarginalMap map(target, 10000);
  for (double z : {-4.0, -2.0, -0.5, 0.0, 0.5, 2.0, 4.0}) {
    const double exact = exact_map(target, z);
    EXPECT_NEAR(map(z), exact, 1e-3 * exact) << "z=" << z;
  }
}

TEST(TabulatedMapTest, ExtremeTailFallsBackToExactQuantile) {
  const stats::GammaParetoDistribution target(paper_like_params());
  const TabulatedMarginalMap map(target, 1000);
  // Beyond the table's +-8 sigma the map must still be exact, not clipped.
  const double exact = exact_map(target, 9.0);
  EXPECT_NEAR(map(9.0), exact, 1e-9 * exact);
  EXPECT_GT(map(9.0), map(7.9));
}

TEST(TabulatedMapTest, TailClippingQuantified) {
  // Section 5.2 notes the tabulated map can under-produce the extreme
  // Pareto tail. Verify the interpolation error stays small at the
  // paper's table resolution.
  const stats::GammaParetoDistribution target(paper_like_params());
  const TabulatedMarginalMap coarse(target, 10000);
  Rng rng(11);
  double worst_rel = 0.0;
  for (int i = 0; i < 2000; ++i) {
    const double z = rng.uniform(-5.0, 5.0);
    const double exact = exact_map(target, z);
    worst_rel = std::max(worst_rel, std::abs(coarse(z) - exact) / exact);
  }
  EXPECT_LT(worst_rel, 0.01);
}

TEST(TransformTest, PreservesHurstParameter) {
  // "The measured value of H is not affected by the distortion of the
  // marginal distribution" (Section 4.2).
  Rng rng(13);
  DaviesHarteOptions opt;
  opt.hurst = 0.8;
  const auto gaussian = davies_harte(65536, opt, rng);
  const double h_before =
      stats::whittle_estimate(gaussian, stats::SpectralModel::kFgn).hurst;

  const stats::GammaParetoDistribution target(paper_like_params());
  const TabulatedMarginalMap map(target);
  auto y = map.apply(gaussian);
  // Whittle assumes Gaussianity: log-transform the skewed marginals first
  // (exactly the paper's procedure).
  for (auto& v : y) v = std::log(v);
  const double h_after = stats::whittle_estimate(y, stats::SpectralModel::kFgn).hurst;
  EXPECT_NEAR(h_before, 0.8, 0.05);
  EXPECT_NEAR(h_after, h_before, 0.06);
}

}  // namespace
}  // namespace vbr::model
