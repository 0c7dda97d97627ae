// Blockwise Paxson synthesis: endless approximate fGn from fixed-size
// spectral windows stitched with an equal-power crossfade.
//
// Window i (W samples, W a power of two so the synthesis FFT never pads)
// covers global samples [i*S, i*S + W) with stride S = W - V; consecutive
// windows overlap on V samples. The output over an overlap is
//   y[t] = cos(pi u / 2) * prev[t] + sin(pi u / 2) * next[t],
//   u = (t + 1) / (V + 1) in (0, 1),
// which keeps unit variance exactly (the windows are independent and
// cos^2 + sin^2 = 1) and hands the seam over smoothly — sample 0 of the
// overlap is almost pure previous window, sample V-1 almost pure next.
// Within a window the fGn covariance holds as in the batch synthesis;
// across a seam the cross-window covariance is attenuated by the blend, so
// the stream is *statistically* faithful rather than sample-exact — the
// Whittle / ACF tolerances are pinned against stats/lrd_fidelity in
// service_test (same judge the zoo uses for the batch generator).
//
// Per-stream state: the current window (W doubles) + the composed segment
// (S doubles) + the Rng — heavier than the Hosking ring, so this backend
// suits thousands of fast streams; for millions, prefer "hosking".
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "vbr/common/rng.hpp"
#include "vbr/model/paxson_fgn.hpp"
#include "vbr/service/streaming_source.hpp"

namespace vbr::service {

class StreamingPaxson final : public StreamingSource {
 public:
  /// Consumes one split() from `parent`. Throws vbr::InvalidArgument for
  /// H outside (0, 1), variance <= 0, a non-power-of-two window, or an
  /// overlap outside [1, window / 2].
  StreamingPaxson(const model::PaxsonOptions& options, std::size_t window, std::size_t overlap,
                  Rng& parent);

  using StreamingSource::next_block;
  void next_block(std::size_t n, std::vector<double>& out) override;
  std::uint64_t position() const override { return position_; }
  const char* kind() const override { return "paxson-stream"; }
  void append_state(std::string& out) const override;
  void restore(std::istream& in) override;

  std::size_t window() const { return window_; }
  std::size_t overlap() const { return overlap_; }

 private:
  model::PaxsonOptions options_;
  std::size_t window_;
  std::size_t overlap_;
  std::size_t stride_;  ///< window - overlap, samples emitted per synthesis
  Rng rng_;
  std::vector<double> window_cur_;  ///< latest synthesized window
  std::vector<double> segment_;     ///< composed output segment (stride_ samples)
  std::size_t segment_pos_ = 0;     ///< consumed within segment_
  std::uint64_t windows_drawn_ = 0;
  std::uint64_t position_ = 0;

  void refill_segment();
};

}  // namespace vbr::service
