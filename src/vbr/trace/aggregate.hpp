// Aggregation and filtering operators on time series.
//
// The moving-average low-pass view of Fig. 2 and the frame <-> slice
// relationship of Table 1 (30 slices per frame).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "vbr/trace/time_series.hpp"

namespace vbr::trace {

/// Centered moving average with the given window (Fig. 2 uses 20,000 frames).
/// Output has the same length as the input; windows are truncated at the
/// edges so no samples are invented.
std::vector<double> moving_average(std::span<const double> values, std::size_t window);

/// Split one frame's byte count into `slices_per_frame` per-slice counts.
/// jitter in [0,1) modulates slices around the even split with a smooth
/// pseudo-random pattern seeded per frame, keeping the frame total exact.
/// jitter = 0 gives the uniform split.
std::vector<double> frame_to_slices(double frame_bytes, std::size_t slices_per_frame,
                                    double jitter, std::uint64_t frame_index);

/// Expand a frame-level trace to slice level (Table 1: 30 slices per frame).
TimeSeries expand_to_slices(const TimeSeries& frames, std::size_t slices_per_frame,
                            double jitter);

}  // namespace vbr::trace
