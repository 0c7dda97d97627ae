// Unit tests for the TimeSeries value type and its Table-2-style summary.
#include "vbr/trace/time_series.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "vbr/common/error.hpp"

namespace vbr::trace {
namespace {

TEST(TimeSeriesTest, ConstructionAndAccessors) {
  TimeSeries ts({1.0, 2.0, 3.0}, 0.5, "bytes/frame");
  EXPECT_EQ(ts.size(), 3u);
  EXPECT_FALSE(ts.empty());
  EXPECT_DOUBLE_EQ(ts.dt_seconds(), 0.5);
  EXPECT_EQ(ts.unit(), "bytes/frame");
  EXPECT_DOUBLE_EQ(ts[1], 2.0);
}

TEST(TimeSeriesTest, RejectsNonPositiveDt) {
  EXPECT_THROW(TimeSeries({1.0}, 0.0), InvalidArgument);
  EXPECT_THROW(TimeSeries({1.0}, -1.0), InvalidArgument);
}

TEST(TimeSeriesTest, MeanAndPeakRates) {
  // 24 fps, 27791 bytes/frame -> 5.34 Mb/s (the paper's Table 1 value).
  TimeSeries ts(std::vector<double>(1000, 27791.0), 1.0 / 24.0, "bytes/frame");
  EXPECT_NEAR(ts.mean_rate_bps(), 27791.0 * 8.0 * 24.0, 1e-6);
  EXPECT_NEAR(ts.mean_rate_bps() / 1e6, 5.34, 0.01);
  EXPECT_DOUBLE_EQ(ts.peak_rate_bps(), ts.mean_rate_bps());
}

TEST(TimeSeriesTest, SummaryMatchesHandComputation) {
  TimeSeries ts({2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}, 1.0);
  const auto s = ts.summary();
  EXPECT_EQ(s.count, 8u);
  EXPECT_DOUBLE_EQ(s.mean, 5.0);
  EXPECT_NEAR(s.variance, 32.0 / 7.0, 1e-12);
  EXPECT_NEAR(s.stddev, std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_DOUBLE_EQ(s.min, 2.0);
  EXPECT_DOUBLE_EQ(s.max, 9.0);
  EXPECT_DOUBLE_EQ(s.peak_to_mean, 9.0 / 5.0);
  EXPECT_NEAR(s.coefficient_of_variation, s.stddev / 5.0, 1e-12);
}

TEST(TimeSeriesTest, EmptySummaryIsZero) {
  TimeSeries ts;
  const auto s = ts.summary();
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
  EXPECT_DOUBLE_EQ(ts.mean_rate_bps(), 0.0);
}

TEST(TimeSeriesTest, SliceExtractsSubrange) {
  TimeSeries ts({0, 1, 2, 3, 4, 5}, 0.25, "u");
  const auto sub = ts.slice(2, 3);
  ASSERT_EQ(sub.size(), 3u);
  EXPECT_DOUBLE_EQ(sub[0], 2.0);
  EXPECT_DOUBLE_EQ(sub[2], 4.0);
  EXPECT_DOUBLE_EQ(sub.dt_seconds(), 0.25);
  EXPECT_EQ(sub.unit(), "u");
}

TEST(TimeSeriesTest, SliceClampsAtEnd) {
  TimeSeries ts({0, 1, 2}, 1.0);
  EXPECT_EQ(ts.slice(2, 100).size(), 1u);
  EXPECT_EQ(ts.slice(3, 1).size(), 0u);
  EXPECT_THROW(ts.slice(4, 1), InvalidArgument);
}

}  // namespace
}  // namespace vbr::trace
