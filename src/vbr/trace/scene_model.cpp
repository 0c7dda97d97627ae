#include "vbr/trace/scene_model.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "vbr/common/error.hpp"

namespace vbr::trace {

SceneModel::SceneModel(SceneModelParams params) : params_(params) {
  VBR_ENSURE(params_.mean_scene_frames > 1.0, "mean scene length must exceed one frame");
  VBR_ENSURE(params_.pareto_shape > 1.0, "scene-length Pareto shape must exceed 1 (finite mean)");
  VBR_ENSURE(params_.alternation_prob >= 0.0 && params_.alternation_prob <= 1.0,
             "alternation probability must be in [0, 1]");
  VBR_ENSURE(params_.acts >= 1, "need at least one act");
  VBR_ENSURE(params_.max_scene_frames >= 2, "scene cap must allow at least two frames");
  VBR_ENSURE(params_.act_swing >= 1.0, "act swing is a peak-to-trough ratio >= 1");
}

double SceneModel::act_envelope(std::size_t frame, std::size_t total_frames) const {
  if (total_frames == 0) return 1.0;
  const double t = static_cast<double>(frame) / static_cast<double>(total_frames);
  // Sum of the act fundamental and a slow second harmonic, shaped so that the
  // movie opens active, sags in the second quarter and builds to the finale
  // (the paper's description of Fig. 2).
  const double acts = static_cast<double>(params_.acts);
  const double base = std::sin(std::numbers::pi * (acts * t + 0.25)) * 0.5 +
                      0.35 * std::sin(2.0 * std::numbers::pi * t - 0.6) + 0.55 * t;
  // Map to a positive envelope with the requested swing.
  const double swing = std::log(params_.act_swing);
  return std::exp(swing * 0.5 * base);
}

std::vector<Scene> SceneModel::generate(std::size_t total_frames, Rng& rng) const {
  std::vector<Scene> scenes;
  if (total_frames == 0) return scenes;
  int next_texture = 0;

  // Pareto shot lengths with the requested mean: k = mean * (a - 1) / a.
  const double a = params_.pareto_shape;
  const double k = params_.mean_scene_frames * (a - 1.0) / a;

  std::size_t frame = 0;
  while (frame < total_frames) {
    const double env = act_envelope(frame, total_frames);

    auto draw_scene = [&](int texture, double complexity) {
      Scene s;
      s.start_frame = frame;
      const double len = rng.pareto(k, a);
      s.length = std::max<std::size_t>(2, static_cast<std::size_t>(std::llround(len)));
      s.length = std::min(s.length, params_.max_scene_frames);
      s.length = std::min(s.length, total_frames - frame);
      s.texture_id = texture;
      s.complexity = complexity;
      s.motion = rng.uniform(0.0, 1.0) * std::min(1.0, env);
      return s;
    };

    auto draw_complexity = [&] {
      return env * std::exp(rng.normal(0.0, params_.complexity_sigma));
    };

    if (rng.uniform() < params_.alternation_prob && total_frames - frame > 24) {
      // Dialog: alternate between two fixed setups several times.
      const int tex_a = next_texture++;
      const int tex_b = next_texture++;
      const double level_a = draw_complexity();
      const double level_b = draw_complexity();
      const auto cuts = static_cast<std::size_t>(
          1 + rng.exponential(1.0 / std::max(1.0, params_.mean_alternation_cuts - 1.0)));
      for (std::size_t c = 0; c < cuts && frame < total_frames; ++c) {
        const bool is_a = (c % 2 == 0);
        Scene s = draw_scene(is_a ? tex_a : tex_b, is_a ? level_a : level_b);
        // Alternation shots are short (reaction shots): cap near the mean.
        s.length = std::min<std::size_t>(
            s.length, static_cast<std::size_t>(params_.mean_scene_frames));
        s.length = std::min(s.length, total_frames - frame);
        scenes.push_back(s);
        frame += s.length;
      }
    } else {
      Scene s = draw_scene(next_texture++, draw_complexity());
      scenes.push_back(s);
      frame += s.length;
    }
  }
  return scenes;
}

}  // namespace vbr::trace
