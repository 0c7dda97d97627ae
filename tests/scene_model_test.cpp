// Unit tests for the scene (shot) structure model shared by the surrogate
// trace and the synthetic movie.
#include "vbr/trace/scene_model.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>

#include "vbr/common/error.hpp"
#include "vbr/common/math_util.hpp"

namespace vbr::trace {
namespace {

TEST(SceneModelTest, ParameterValidation) {
  SceneModelParams params;
  params.mean_scene_frames = 0.5;
  EXPECT_THROW(SceneModel{params}, vbr::InvalidArgument);
  params = {};
  params.pareto_shape = 1.0;
  EXPECT_THROW(SceneModel{params}, vbr::InvalidArgument);
  params = {};
  params.alternation_prob = 1.5;
  EXPECT_THROW(SceneModel{params}, vbr::InvalidArgument);
}

TEST(SceneModelTest, ScenesTileTheMovieExactly) {
  SceneModel model;
  vbr::Rng rng(1);
  const std::size_t total = 50000;
  const auto scenes = model.generate(total, rng);
  ASSERT_FALSE(scenes.empty());
  std::size_t expected_start = 0;
  for (const auto& s : scenes) {
    EXPECT_EQ(s.start_frame, expected_start);
    EXPECT_GE(s.length, 1u);
    expected_start += s.length;
  }
  EXPECT_EQ(expected_start, total);
}

TEST(SceneModelTest, MeanSceneLengthRoughlyMatchesParameter) {
  SceneModelParams params;
  params.mean_scene_frames = 120.0;
  params.alternation_prob = 0.0;  // isolate the plain Pareto draw
  SceneModel model(params);
  vbr::Rng rng(2);
  const auto scenes = model.generate(500000, rng);
  double mean_len = 0.0;
  for (const auto& s : scenes) mean_len += static_cast<double>(s.length);
  mean_len /= static_cast<double>(scenes.size());
  // Heavy-tailed lengths converge slowly; allow a generous band.
  EXPECT_GT(mean_len, 60.0);
  EXPECT_LT(mean_len, 240.0);
}

TEST(SceneModelTest, SceneLengthsAreHeavyTailed) {
  SceneModel model;
  vbr::Rng rng(3);
  const auto scenes = model.generate(500000, rng);
  std::size_t longest = 0;
  for (const auto& s : scenes) longest = std::max(longest, s.length);
  // A Pareto(1.5) shot-length law produces shots far beyond the mean.
  EXPECT_GT(longest, 1000u);
}

TEST(SceneModelTest, AlternationReusesTextures) {
  SceneModelParams params;
  params.alternation_prob = 1.0;  // every run is a dialog alternation
  SceneModel model(params);
  vbr::Rng rng(4);
  const auto scenes = model.generate(20000, rng);
  // Count consecutive pairs with equal texture at distance 2 (A B A B ...).
  std::size_t aba = 0;
  for (std::size_t i = 0; i + 2 < scenes.size(); ++i) {
    if (scenes[i].texture_id == scenes[i + 2].texture_id) ++aba;
  }
  EXPECT_GT(aba, scenes.size() / 4);
}

TEST(SceneModelTest, ComplexityFollowsActEnvelope) {
  SceneModel model;
  // The envelope is smooth, positive, and varies by the configured swing.
  const std::size_t total = 171000;
  double lo = 1e9;
  double hi = 0.0;
  for (std::size_t f = 0; f < total; f += 1000) {
    const double env = model.act_envelope(f, total);
    EXPECT_GT(env, 0.0);
    lo = std::min(lo, env);
    hi = std::max(hi, env);
  }
  EXPECT_GT(hi / lo, 1.2);
  EXPECT_LT(hi / lo, 4.0);
}

TEST(SceneModelTest, DeterministicGivenSeed) {
  SceneModel model;
  vbr::Rng rng1(9);
  vbr::Rng rng2(9);
  const auto a = model.generate(5000, rng1);
  const auto b = model.generate(5000, rng2);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].start_frame, b[i].start_frame);
    EXPECT_EQ(a[i].length, b[i].length);
    EXPECT_DOUBLE_EQ(a[i].complexity, b[i].complexity);
  }
}

}  // namespace
}  // namespace vbr::trace
