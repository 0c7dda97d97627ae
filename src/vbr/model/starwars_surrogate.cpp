#include "vbr/model/starwars_surrogate.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <unordered_map>

#include "vbr/common/error.hpp"
#include "vbr/common/math_util.hpp"
#include "vbr/model/davies_harte.hpp"
#include "vbr/model/marginal_transform.hpp"
#include "vbr/trace/aggregate.hpp"

namespace vbr::model {

double calibrate_tail_slope(double mean, double stddev, double target_max, std::size_t n) {
  VBR_ENSURE(target_max > mean, "target max must exceed the mean");
  VBR_ENSURE(n >= 100, "calibration needs a realistic sample size");
  const double p = 1.0 - 1.0 / static_cast<double>(n);

  auto implied_max = [&](double slope) {
    stats::GammaParetoParams params;
    params.mu_gamma = mean;
    params.sigma_gamma = stddev;
    params.tail_slope = slope;
    return stats::GammaParetoDistribution(params).quantile(p);
  };

  // quantile(p) decreases monotonically in the tail slope; bisect.
  double lo = 2.5;   // very heavy
  double hi = 60.0;  // nearly Gamma
  VBR_ENSURE(implied_max(lo) > target_max && implied_max(hi) < target_max,
             "target max outside the calibratable range");
  for (int i = 0; i < 100; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (implied_max(mid) > target_max) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

namespace {

// Standardize to zero mean, unit variance (empirically).
void standardize(std::vector<double>& x) {
  const double mean = sample_mean(x);
  const double sd = std::sqrt(sample_variance(x));
  VBR_ENSURE(sd > 0.0, "cannot standardize a constant series");
  for (auto& v : x) v = (v - mean) / sd;
}

// Smooth raised-cosine bump in [0, 1] over `length` samples.
double bump_envelope(std::size_t offset, std::size_t length) {
  if (length == 0) return 0.0;
  const double t = static_cast<double>(offset) / static_cast<double>(length);
  return 0.5 * (1.0 - std::cos(2.0 * std::numbers::pi * t));
}

struct EventSpec {
  const char* name;
  double position;   ///< fraction of the movie where the event starts
  double seconds;    ///< duration
  double intensity;  ///< target level as a multiple of the mean
};

// The Fig. 1 landmarks. Intensities put the sharp effects near the trace
// peak (~2.8x mean) and the wide text/explosion sequences below them.
constexpr EventSpec kEvents[] = {
    {"opening text", 0.000, 42.0, 2.05},
    {"jump to hyperspace", 0.440, 2.5, 2.78},
    {"planet explosion", 0.490, 3.0, 2.70},
    {"jump from hyperspace", 0.545, 2.5, 2.74},
    {"death star explosion", 0.958, 10.0, 2.30},
};

}  // namespace

SurrogateTrace make_starwars_surrogate(const SurrogateOptions& options) {
  VBR_ENSURE(options.frames >= 1000, "surrogate needs a substantial length");
  VBR_ENSURE(options.scene_weight >= 0.0 && options.scene_weight < 1.0,
             "scene weight must be in [0, 1)");
  Rng rng(options.seed);

  SurrogateTrace out;

  // 1. Long-range-dependent Gaussian core. fARIMA(0,d,0) is the paper's
  //    model (Section 4.1), so every estimator downstream sees the spectral
  //    shape it expects.
  DaviesHarteOptions dh;
  dh.hurst = options.hurst;
  dh.covariance = CovarianceKind::kFarima;
  std::vector<double> core = davies_harte(options.frames, dh, rng);
  standardize(core);

  // 2. Scene quantization: per-shot constant Gaussian levels, keyed by the
  //    shot's backdrop so dialog alternation flips between two fixed levels
  //    (Section 4.2's "simple alternation between two levels"). Each level
  //    samples an *independent LRD realization* at the shot's midpoint
  //    (sample-and-hold, not averaging: averaging would low-pass the track
  //    and visibly distort the spectrum the Whittle estimator fits), so the
  //    overlay adds piecewise-constant short-range structure while keeping
  //    the long-range calibration at H.
  if (options.scene_weight > 0.0) {
    vbr::trace::SceneModel scene_model(options.scene_params);
    out.scenes = scene_model.generate(options.frames, rng);

    std::vector<double> level_source = davies_harte(options.frames, dh, rng);
    std::unordered_map<int, double> level_by_texture;
    std::vector<double> scene_track(options.frames, 0.0);
    for (const auto& scene : out.scenes) {
      const std::size_t end = std::min(options.frames, scene.start_frame + scene.length);
      auto [it, inserted] = level_by_texture.try_emplace(scene.texture_id, 0.0);
      if (inserted) it->second = level_source[scene.start_frame + (end - scene.start_frame) / 2];
      for (std::size_t f = scene.start_frame; f < end; ++f) scene_track[f] = it->second;
    }
    standardize(scene_track);

    const double w = options.scene_weight;
    for (std::size_t f = 0; f < options.frames; ++f) {
      core[f] = std::sqrt(1.0 - w) * core[f] + std::sqrt(w) * scene_track[f];
    }
    standardize(core);
  }

  // 3. Marginal calibration: Gamma/Pareto with tail slope chosen so the
  //    realization's expected maximum matches the published peak.
  out.calibration.hurst = options.hurst;
  out.calibration.marginal.mu_gamma = options.mean_bytes;
  out.calibration.marginal.sigma_gamma = options.stddev_bytes;
  out.calibration.marginal.tail_slope = calibrate_tail_slope(
      options.mean_bytes, options.stddev_bytes, options.target_max_bytes, options.frames);

  std::vector<double> bytes = shared_marginal_map(out.calibration.marginal)->map.apply(core);

  // 4. Named events: lift the trace toward the target level with a smooth
  //    envelope. Touches a few hundred of 171,000 frames, so the calibrated
  //    marginals are essentially unchanged.
  if (options.events) {
    const double fps = 1.0 / options.dt_seconds;
    for (const auto& spec : kEvents) {
      const auto start = static_cast<std::size_t>(spec.position *
                                                  static_cast<double>(options.frames));
      const auto length = std::min<std::size_t>(
          static_cast<std::size_t>(spec.seconds * fps), options.frames - start);
      if (length == 0) continue;
      const double target = spec.intensity * options.mean_bytes;
      for (std::size_t i = 0; i < length; ++i) {
        const double lift = target * bump_envelope(i, length);
        bytes[start + i] = std::max(bytes[start + i], lift);
      }
      out.events.push_back({spec.name, start, length});
    }
  }

  out.frames = vbr::trace::TimeSeries(std::move(bytes), options.dt_seconds, "bytes/frame");
  return out;
}

vbr::trace::TimeSeries surrogate_slices(const SurrogateTrace& surrogate,
                                        std::size_t slices_per_frame, double jitter) {
  return vbr::trace::expand_to_slices(surrogate.frames, slices_per_frame, jitter);
}

}  // namespace vbr::model
