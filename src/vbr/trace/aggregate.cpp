#include "vbr/trace/aggregate.hpp"

#include <cmath>
#include <numbers>

#include "vbr/common/error.hpp"
#include "vbr/common/math_util.hpp"
#include "vbr/common/rng.hpp"

namespace vbr::trace {

std::vector<double> moving_average(std::span<const double> values, std::size_t window) {
  VBR_ENSURE(window >= 1, "moving_average window must be >= 1");
  const std::size_t n = values.size();
  std::vector<double> out(n, 0.0);
  if (n == 0) return out;

  // Sliding half-open window [i - half, i + half] truncated to the series.
  const std::size_t half = window / 2;
  // Prefix sums with compensation error kept negligible by chunked Kahan.
  std::vector<double> prefix(n + 1, 0.0);
  KahanSum sum;
  for (std::size_t i = 0; i < n; ++i) {
    sum.add(values[i]);
    prefix[i + 1] = sum.value();
  }
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t lo = (i >= half) ? i - half : 0;
    const std::size_t hi = std::min(n, i + half + 1);
    out[i] = (prefix[hi] - prefix[lo]) / static_cast<double>(hi - lo);
  }
  return out;
}

std::vector<double> frame_to_slices(double frame_bytes, std::size_t slices_per_frame,
                                    double jitter, std::uint64_t frame_index) {
  VBR_ENSURE(slices_per_frame >= 1, "need at least one slice per frame");
  VBR_ENSURE(jitter >= 0.0 && jitter < 1.0, "jitter must be in [0, 1)");
  const auto k = slices_per_frame;
  std::vector<double> slices(k, frame_bytes / static_cast<double>(k));
  if (jitter == 0.0 || k == 1) return slices;

  // Smooth multiplicative pattern: positive weights that sum to ~k, seeded
  // per frame so consecutive frames decorrelate but the draw is reproducible.
  Rng rng(0x511CE5ULL ^ frame_index * 0x9e3779b97f4a7c15ULL);
  const double phase = rng.uniform(0.0, 2.0 * std::numbers::pi);
  const double wobble = rng.uniform(0.5, 1.0);
  std::vector<double> weights(k);
  KahanSum total;
  for (std::size_t i = 0; i < k; ++i) {
    const double t = static_cast<double>(i) / static_cast<double>(k);
    // 1 + jitter * (sinusoid + noise), floored away from zero.
    double w = 1.0 + jitter * (wobble * std::sin(2.0 * std::numbers::pi * t + phase) +
                               0.5 * (rng.uniform() - 0.5));
    w = std::max(w, 0.05);
    weights[i] = w;
    total.add(w);
  }
  const double scale = frame_bytes / total.value();
  for (std::size_t i = 0; i < k; ++i) slices[i] = weights[i] * scale;
  return slices;
}

TimeSeries expand_to_slices(const TimeSeries& frames, std::size_t slices_per_frame,
                            double jitter) {
  std::vector<double> out;
  out.reserve(frames.size() * slices_per_frame);
  for (std::size_t f = 0; f < frames.size(); ++f) {
    const auto slices = frame_to_slices(frames[f], slices_per_frame, jitter, f);
    out.insert(out.end(), slices.begin(), slices.end());
  }
  return TimeSeries(std::move(out),
                    frames.dt_seconds() / static_cast<double>(slices_per_frame),
                    "bytes/slice");
}

}  // namespace vbr::trace
