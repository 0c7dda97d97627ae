// Unit tests for the seeded PRNG facade.
#include "vbr/common/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "vbr/common/error.hpp"
#include "vbr/common/math_util.hpp"

namespace vbr {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, SplitStreamsAreIndependentAndDeterministic) {
  Rng parent1(7);
  Rng parent2(7);
  Rng child1 = parent1.split();
  Rng child2 = parent2.split();
  for (int i = 0; i < 50; ++i) EXPECT_EQ(child1(), child2());
  // Parent and child produce different streams.
  Rng parent(7);
  Rng child = parent.split();
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (parent() == child()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformRangeRespectsBounds) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 2.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 2.0);
  }
  EXPECT_THROW(rng.uniform(1.0, 1.0), InvalidArgument);
}

TEST(RngTest, UniformIndexCoversRangeWithoutBias) {
  Rng rng(11);
  std::vector<int> counts(7, 0);
  const int draws = 70000;
  for (int i = 0; i < draws; ++i) ++counts[rng.uniform_index(7)];
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c), draws / 7.0, 5.0 * std::sqrt(draws / 7.0));
  }
  EXPECT_THROW(rng.uniform_index(0), InvalidArgument);
}

TEST(RngTest, NormalMomentsMatch) {
  Rng rng(13);
  std::vector<double> xs(200000);
  for (auto& x : xs) x = rng.normal();
  EXPECT_NEAR(sample_mean(xs), 0.0, 0.01);
  EXPECT_NEAR(sample_variance(xs), 1.0, 0.02);
}

TEST(RngTest, NormalScaledMoments) {
  Rng rng(17);
  std::vector<double> xs(100000);
  for (auto& x : xs) x = rng.normal(5.0, 2.0);
  EXPECT_NEAR(sample_mean(xs), 5.0, 0.05);
  EXPECT_NEAR(std::sqrt(sample_variance(xs)), 2.0, 0.05);
}

TEST(RngTest, ExponentialMeanMatchesRate) {
  Rng rng(19);
  std::vector<double> xs(100000);
  for (auto& x : xs) x = rng.exponential(0.5);
  EXPECT_NEAR(sample_mean(xs), 2.0, 0.05);
  EXPECT_THROW(rng.exponential(0.0), InvalidArgument);
}

TEST(RngTest, ParetoSamplesRespectMinimumAndMean) {
  Rng rng(23);
  const double k = 3.0;
  const double a = 2.5;
  std::vector<double> xs(200000);
  for (auto& x : xs) {
    x = rng.pareto(k, a);
    ASSERT_GE(x, k);
  }
  // E X = a k / (a - 1) = 5.
  EXPECT_NEAR(sample_mean(xs), 5.0, 0.1);
}

TEST(RngTest, GammaMomentsMatch) {
  Rng rng(29);
  const double shape = 4.0;
  const double scale = 1.5;
  std::vector<double> xs(200000);
  for (auto& x : xs) x = rng.gamma(shape, scale);
  EXPECT_NEAR(sample_mean(xs), shape * scale, 0.05);
  EXPECT_NEAR(sample_variance(xs), shape * scale * scale, 0.2);
}

TEST(RngTest, GammaSmallShapeBoost) {
  Rng rng(31);
  const double shape = 0.5;
  const double scale = 2.0;
  std::vector<double> xs(200000);
  for (auto& x : xs) {
    x = rng.gamma(shape, scale);
    ASSERT_GT(x, 0.0);
  }
  EXPECT_NEAR(sample_mean(xs), shape * scale, 0.05);
}

// Parameterized sweep: uniform_index stays unbiased across modulus sizes.
class RngIndexSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngIndexSweep, MeanOfIndicesMatchesHalfRange) {
  const std::uint64_t n = GetParam();
  Rng rng(41 + n);
  const int draws = 50000;
  double sum = 0.0;
  for (int i = 0; i < draws; ++i) sum += static_cast<double>(rng.uniform_index(n));
  const double expected = (static_cast<double>(n) - 1.0) / 2.0;
  const double sd = static_cast<double>(n) / std::sqrt(12.0 * draws);
  EXPECT_NEAR(sum / draws, expected, 6.0 * sd + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Moduli, RngIndexSweep,
                         ::testing::Values(2, 3, 10, 100, 1000, 1u << 20));

// fill_normal() must be successive normal() calls in another form: the same
// values and the same stream state after, including a half-pair cached on
// entry (consumed first) or left cached on exit (an odd remainder).
class FillNormalTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FillNormalTest, EqualsSuccessiveNormalCallsAndLeavesTheSameState) {
  const std::size_t count = GetParam();
  for (const bool cached_on_entry : {false, true}) {
    Rng reference(2024 + count);
    if (cached_on_entry) (void)reference.normal();  // leaves half a pair cached
    Rng filled = reference;
    std::vector<double> expect(count);
    for (auto& x : expect) x = reference.normal();
    std::vector<double> got(count);
    filled.fill_normal(got);
    EXPECT_TRUE(std::equal(got.begin(), got.end(), expect.begin(), [](double a, double b) {
      return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
    })) << "count " << count << " cached on entry " << cached_on_entry;
    std::string reference_state;
    std::string filled_state;
    reference.save(reference_state);
    filled.save(filled_state);
    EXPECT_EQ(filled_state, reference_state)
        << "count " << count << " cached on entry " << cached_on_entry;
  }
}

INSTANTIATE_TEST_SUITE_P(Counts, FillNormalTest,
                         ::testing::Values(0, 1, 2, 3, 1001, std::size_t{1} << 19));

}  // namespace
}  // namespace vbr
