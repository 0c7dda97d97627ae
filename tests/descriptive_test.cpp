// Unit tests for histograms and the empirical CDF/CCDF machinery behind
// Figs. 3-6.
#include "vbr/stats/descriptive.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "vbr/common/error.hpp"
#include "vbr/common/rng.hpp"

namespace vbr::stats {
namespace {

TEST(HistogramTest, CountsLandInCorrectBins) {
  std::vector<double> data{0.5, 1.5, 1.6, 2.5, 3.5};
  const auto h = make_histogram(data, 4, 0.0, 4.0);
  ASSERT_EQ(h.counts.size(), 4u);
  EXPECT_EQ(h.counts[0], 1u);
  EXPECT_EQ(h.counts[1], 2u);
  EXPECT_EQ(h.counts[2], 1u);
  EXPECT_EQ(h.counts[3], 1u);
  EXPECT_EQ(h.total, 5u);
  EXPECT_DOUBLE_EQ(h.bin_width(), 1.0);
  EXPECT_DOUBLE_EQ(h.bin_center(0), 0.5);
}

TEST(HistogramTest, OutOfRangeClampsToEdgeBins) {
  std::vector<double> data{-10.0, 100.0};
  const auto h = make_histogram(data, 5, 0.0, 1.0);
  EXPECT_EQ(h.counts.front(), 1u);
  EXPECT_EQ(h.counts.back(), 1u);
}

TEST(HistogramTest, DensityIntegratesToOne) {
  Rng rng(3);
  std::vector<double> data(20000);
  for (auto& v : data) v = rng.normal(10.0, 2.0);
  const auto h = make_histogram(data, 50, 0.0, 20.0);
  double integral = 0.0;
  for (std::size_t i = 0; i < h.counts.size(); ++i) integral += h.density(i) * h.bin_width();
  EXPECT_NEAR(integral, 1.0, 1e-9);
}

TEST(EcdfTest, CdfStepsAtSamplePoints) {
  Ecdf ecdf(std::vector<double>{1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(ecdf.cdf(0.5), 0.0);
  EXPECT_DOUBLE_EQ(ecdf.cdf(1.0), 0.25);
  EXPECT_DOUBLE_EQ(ecdf.cdf(2.5), 0.5);
  EXPECT_DOUBLE_EQ(ecdf.cdf(4.0), 1.0);
  EXPECT_DOUBLE_EQ(ecdf.ccdf(2.5), 0.5);
}

TEST(EcdfTest, QuantileInterpolates) {
  Ecdf ecdf(std::vector<double>{10.0, 20.0, 30.0});
  EXPECT_DOUBLE_EQ(ecdf.quantile(0.0), 10.0);
  EXPECT_DOUBLE_EQ(ecdf.quantile(0.5), 20.0);
  EXPECT_DOUBLE_EQ(ecdf.quantile(1.0), 30.0);
  EXPECT_DOUBLE_EQ(ecdf.quantile(0.25), 15.0);
}

TEST(EcdfTest, RequiresData) {
  EXPECT_THROW(Ecdf(std::vector<double>{}), vbr::InvalidArgument);
}

TEST(EcdfTest, CcdfAgreesWithExactCountAtGridPoints) {
  std::vector<double> data;
  for (int i = 1; i <= 1000; ++i) data.push_back(static_cast<double>(i));
  Ecdf ecdf(data);
  EXPECT_NEAR(ecdf.ccdf(500.0), 0.5, 1e-12);
  EXPECT_NEAR(ecdf.ccdf(900.5), 0.1, 1e-12);
}

}  // namespace
}  // namespace vbr::stats
