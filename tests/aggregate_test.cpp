// Unit tests for aggregation, moving averages, and frame <-> slice
// expansion.
#include "vbr/trace/aggregate.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "vbr/common/error.hpp"
#include "vbr/common/math_util.hpp"

namespace vbr::trace {
namespace {

TEST(MovingAverageTest, ConstantSeriesUnchanged) {
  std::vector<double> xs(100, 7.0);
  const auto ma = moving_average(xs, 11);
  for (double v : ma) EXPECT_DOUBLE_EQ(v, 7.0);
}

TEST(MovingAverageTest, OutputLengthMatchesInput) {
  std::vector<double> xs{1, 2, 3, 4, 5};
  EXPECT_EQ(moving_average(xs, 3).size(), xs.size());
  EXPECT_EQ(moving_average(xs, 1000).size(), xs.size());
}

TEST(MovingAverageTest, InteriorWindowIsExactMean) {
  std::vector<double> xs{1, 2, 3, 4, 5, 6, 7};
  const auto ma = moving_average(xs, 3);
  // Centered window of 3 at index 3: mean(3,4,5) = 4.
  EXPECT_DOUBLE_EQ(ma[3], 4.0);
  // Edge windows truncate: index 0 averages xs[0..1].
  EXPECT_DOUBLE_EQ(ma[0], 1.5);
}

TEST(MovingAverageTest, SmoothsOscillation) {
  std::vector<double> xs;
  for (int i = 0; i < 200; ++i) xs.push_back((i % 2 == 0) ? 0.0 : 10.0);
  const auto ma = moving_average(xs, 50);
  for (std::size_t i = 25; i < 175; ++i) EXPECT_NEAR(ma[i], 5.0, 0.2);
}

TEST(FrameToSlicesTest, UniformSplitWithZeroJitter) {
  const auto slices = frame_to_slices(3000.0, 30, 0.0, 5);
  ASSERT_EQ(slices.size(), 30u);
  for (double s : slices) EXPECT_DOUBLE_EQ(s, 100.0);
}

TEST(FrameToSlicesTest, JitteredSplitConservesFrameTotal) {
  for (std::uint64_t frame = 0; frame < 20; ++frame) {
    const auto slices = frame_to_slices(27791.0, 30, 0.36, frame);
    EXPECT_NEAR(kahan_total(slices), 27791.0, 1e-9);
    for (double s : slices) EXPECT_GT(s, 0.0);
  }
}

TEST(FrameToSlicesTest, DeterministicPerFrameIndex) {
  const auto a = frame_to_slices(1000.0, 10, 0.3, 77);
  const auto b = frame_to_slices(1000.0, 10, 0.3, 77);
  EXPECT_EQ(a, b);
  const auto c = frame_to_slices(1000.0, 10, 0.3, 78);
  EXPECT_NE(a, c);
}

TEST(ExpandToSlicesTest, GeometryAndConservation) {
  TimeSeries frames({3000.0, 6000.0}, 1.0 / 24.0, "bytes/frame");
  const auto slices = expand_to_slices(frames, 30, 0.36);
  ASSERT_EQ(slices.size(), 60u);
  EXPECT_NEAR(slices.dt_seconds(), (1.0 / 24.0) / 30.0, 1e-15);
  double first_frame = 0.0;
  for (std::size_t i = 0; i < 30; ++i) first_frame += slices[i];
  EXPECT_NEAR(first_frame, 3000.0, 1e-9);
}

TEST(ExpandToSlicesTest, JitterRaisesCoefficientOfVariation) {
  // The paper's slice-level CoV (0.31) exceeds the frame-level CoV (0.23)
  // because slices within a frame vary. Uniform split keeps CoV equal;
  // jitter raises it.
  std::vector<double> frames(2000);
  for (std::size_t i = 0; i < frames.size(); ++i) {
    frames[i] = 27791.0 + 6254.0 * std::sin(static_cast<double>(i) * 0.37);
  }
  TimeSeries ts(frames, 1.0 / 24.0);
  const auto uniform = expand_to_slices(ts, 30, 0.0);
  const auto jittered = expand_to_slices(ts, 30, 0.36);
  const auto cov = [](const TimeSeries& s) { return s.summary().coefficient_of_variation; };
  // Identical up to the (n-1) variance denominators of the two sample sizes.
  EXPECT_NEAR(cov(uniform), cov(ts), 1e-4);
  EXPECT_GT(cov(jittered), cov(uniform) * 1.15);
}

TEST(AggregateRoundTrip, SliceSumsRecoverFrames) {
  TimeSeries frames({1000.0, 2000.0, 1500.0}, 1.0 / 24.0);
  const auto slices = expand_to_slices(frames, 30, 0.36);
  ASSERT_EQ(slices.size(), 30 * frames.size());
  for (std::size_t i = 0; i < frames.size(); ++i) {
    const auto first = slices.samples().begin() + static_cast<std::ptrdiff_t>(30 * i);
    EXPECT_NEAR(std::accumulate(first, first + 30, 0.0), frames[i], 1e-9);
  }
}

}  // namespace
}  // namespace vbr::trace
