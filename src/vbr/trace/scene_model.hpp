// Scene structure model.
//
// Section 4.2 of the paper observes that the intraframe trace "exhibits a
// wide variety of short-range behaviors, including periods with practically
// constant level ... due to the 'scene' structure of the movie", including
// long periods of simple alternation between two levels (cuts between two
// faces). Section 3.2.1 explains the LRD intuition as variation stacked on
// ever longer time scales: within-scene motion, camera cuts, scene clusters,
// story acts.
//
// This module generates that scene skeleton. It is shared by the calibrated
// surrogate trace (which overlays scene quantization on an fGn core) and by
// the synthetic movie renderer (which turns scenes into actual pictures for
// the intraframe coder).
#pragma once

#include <cstddef>
#include <vector>

#include "vbr/common/rng.hpp"

namespace vbr::trace {

/// One contiguous camera shot.
struct Scene {
  std::size_t start_frame = 0;
  std::size_t length = 0;       ///< frames
  double complexity = 1.0;      ///< relative spatial complexity (multiplies bandwidth)
  double motion = 0.0;          ///< relative motion activity in [0, 1]
  int texture_id = 0;           ///< identity of the underlying set/backdrop
};

/// Parameters of the scene point process.
struct SceneModelParams {
  /// Mean shot length in frames (~5 s at 24 fps).
  double mean_scene_frames = 120.0;
  /// Pareto shape of shot lengths; 1 < shape < 2 gives realistic heavy tails
  /// (occasional very long static shots).
  double pareto_shape = 1.5;
  /// Hard cap on a single shot, frames (2 min at 24 fps by default). Real
  /// movies cut eventually; without a cap the infinite-variance length law
  /// occasionally produces one shot dominating the record.
  std::size_t max_scene_frames = 2880;
  /// Probability that a cut starts a two-scene alternation (dialog pattern).
  double alternation_prob = 0.25;
  /// Mean number of back-and-forth cuts in an alternation run.
  double mean_alternation_cuts = 6.0;
  /// Log-normal sigma of per-scene complexity around the act envelope.
  double complexity_sigma = 0.35;
  /// Number of story "acts"; the act envelope modulates mean complexity on
  /// the longest time scale (the Fig. 2 story-arc pattern).
  std::size_t acts = 5;
  /// Peak-to-trough ratio of the act envelope.
  double act_swing = 1.6;
};

/// Generates shot sequences with clustered complexity across time scales.
class SceneModel {
 public:
  explicit SceneModel(SceneModelParams params = {});

  const SceneModelParams& params() const { return params_; }

  /// Generate scenes covering exactly `total_frames` frames (the last scene
  /// is truncated to fit).
  std::vector<Scene> generate(std::size_t total_frames, Rng& rng) const;

  /// Story-arc envelope value for a frame position in [0, total).
  /// Smooth, positive, mean ~1 over the whole movie.
  double act_envelope(std::size_t frame, std::size_t total_frames) const;

 private:
  SceneModelParams params_;
};

}  // namespace vbr::trace
