// Unit tests for numeric utilities: compensated summation, regression,
// log-spaced grids, percentiles, block aggregation.
#include "vbr/common/math_util.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "vbr/common/error.hpp"

namespace vbr {
namespace {

TEST(KahanSumTest, CompensatesCatastrophicCancellation) {
  KahanSum sum;
  sum.add(1.0);
  for (int i = 0; i < 10000000; ++i) sum.add(1e-16);
  EXPECT_NEAR(sum.value(), 1.0 + 1e-9, 1e-12);
}

TEST(KahanSumTest, TotalOfRange) {
  std::vector<double> xs{1.5, 2.5, -1.0, 7.0};
  EXPECT_DOUBLE_EQ(kahan_total(xs), 10.0);
}

TEST(LinearFitTest, ExactLineRecovered) {
  std::vector<double> x{1, 2, 3, 4, 5};
  std::vector<double> y;
  for (double xi : x) y.push_back(2.5 * xi - 1.0);
  const auto fit = linear_fit(x, y);
  EXPECT_NEAR(fit.slope, 2.5, 1e-12);
  EXPECT_NEAR(fit.intercept, -1.0, 1e-12);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
  EXPECT_NEAR(fit.slope_stderr, 0.0, 1e-9);
}

TEST(LinearFitTest, NoisyLineSlopeWithinError) {
  std::vector<double> x;
  std::vector<double> y;
  // Deterministic "noise" with zero mean.
  for (int i = 0; i < 100; ++i) {
    x.push_back(i);
    y.push_back(0.7 * i + 3.0 + ((i % 2 == 0) ? 0.5 : -0.5));
  }
  const auto fit = linear_fit(x, y);
  EXPECT_NEAR(fit.slope, 0.7, 0.01);
  EXPECT_GT(fit.r_squared, 0.99);
  EXPECT_GT(fit.slope_stderr, 0.0);
}

TEST(LinearFitTest, Preconditions) {
  std::vector<double> two{1.0, 2.0};
  std::vector<double> one{1.0};
  EXPECT_THROW(linear_fit(two, one), InvalidArgument);
  std::vector<double> constant{1.0, 1.0, 1.0};
  std::vector<double> y{1.0, 2.0, 3.0};
  EXPECT_THROW(linear_fit(constant, y), InvalidArgument);
}

TEST(LogSpacedTest, EndpointsAndMonotonicity) {
  const auto grid = log_spaced(1.0, 1000.0, 7);
  ASSERT_EQ(grid.size(), 7u);
  EXPECT_NEAR(grid.front(), 1.0, 1e-12);
  EXPECT_NEAR(grid.back(), 1000.0, 1e-9);
  for (std::size_t i = 1; i < grid.size(); ++i) EXPECT_GT(grid[i], grid[i - 1]);
  // Ratios constant in log space.
  EXPECT_NEAR(grid[1] / grid[0], grid[2] / grid[1], 1e-9);
}

TEST(LogSpacedSizesTest, DeduplicatesAfterRounding) {
  const auto sizes = log_spaced_sizes(1, 10, 50);
  for (std::size_t i = 1; i < sizes.size(); ++i) EXPECT_GT(sizes[i], sizes[i - 1]);
  EXPECT_EQ(sizes.front(), 1u);
  EXPECT_EQ(sizes.back(), 10u);
  EXPECT_LE(sizes.size(), 10u);
}

TEST(PercentileTest, KnownQuartiles) {
  std::vector<double> xs{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 0.25), 2.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 0.125), 1.5);  // interpolation
}

TEST(BlockMeansTest, ExactBlocksAndTruncation) {
  std::vector<double> xs{1, 2, 3, 4, 5, 6, 7};
  const auto means = block_means(xs, 2);
  ASSERT_EQ(means.size(), 3u);  // trailing 7 discarded
  EXPECT_DOUBLE_EQ(means[0], 1.5);
  EXPECT_DOUBLE_EQ(means[1], 3.5);
  EXPECT_DOUBLE_EQ(means[2], 5.5);
}

TEST(BlockMeansTest, IdentityAtMEqualsOne) {
  std::vector<double> xs{3.0, 1.0, 4.0};
  EXPECT_EQ(block_means(xs, 1), xs);
}

TEST(SampleMomentsTest, MeanAndVariance) {
  std::vector<double> xs{2, 4, 4, 4, 5, 5, 7, 9};
  EXPECT_DOUBLE_EQ(sample_mean(xs), 5.0);
  EXPECT_NEAR(sample_variance(xs), 32.0 / 7.0, 1e-12);
}

}  // namespace
}  // namespace vbr
