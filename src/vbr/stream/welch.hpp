// StreamingWelchPeriodogram: segment-averaged power spectral density in
// O(segment_size) memory — the streaming analogue of Fig. 8's periodogram,
// usable as input to the low-frequency LRD slope estimate.
//
// Samples accumulate in a single segment buffer; each full segment is
// mean-removed, optionally Hann-windowed, transformed with the half-spectrum
// real FFT from common/fft, and its normalized ordinates
// |X_k|^2 / (2 pi sum w^2) added to a running average at the segment's
// Fourier frequencies. Averaging over segments is what makes the raw
// periodogram's noise go down; the cost is frequency resolution 2 pi /
// segment_size at the low end.
//
// merge() adds the power accumulators and segment counts (exact and
// associative); the left operand's partial segment is discarded (< one
// segment per merge boundary) and the right's remains open.
//
// The window and its Kahan-summed power are tabulated once per sink and
// shared with every clone_empty() copy, so the engine's per-source clones
// pay for neither per segment.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "vbr/stats/periodogram.hpp"
#include "vbr/stream/sink.hpp"

namespace vbr::stream {

struct WelchOptions {
  /// Samples per segment; must be a power of two >= 8.
  std::size_t segment_size = 4096;
  /// Apply a Hann window before the transform (rectangular otherwise).
  /// Rectangular matches stats::periodogram's normalization segment by
  /// segment; Hann trades a little bias at the lowest frequencies for much
  /// less spectral leakage.
  bool hann_window = false;
};

class StreamingWelchPeriodogram final : public Sink {
  /// The segment window w[i] and 1 / (2 pi sum w^2), immutable once built.
  struct Window {
    std::vector<double> weights;
    double norm = 0.0;
  };

 public:
  explicit StreamingWelchPeriodogram(const WelchOptions& options = {});
  /// clone_empty()'s form: shares `window`, built for the same options.
  StreamingWelchPeriodogram(const WelchOptions& options, std::shared_ptr<const Window> window);

  void push(std::span<const double> samples) override;
  void merge(const Sink& other) override;
  std::unique_ptr<Sink> clone_empty() const override;
  void save(std::ostream& out) const override;
  void restore(std::istream& in) override;
  std::size_t count() const override { return n_; }
  const char* kind() const override { return "welch"; }

  const WelchOptions& options() const { return options_; }
  std::size_t segments() const { return segments_; }

  /// Segment-averaged periodogram at the Fourier frequencies of one
  /// segment, in the same (frequency, power) shape as stats::periodogram,
  /// so stats::low_frequency_slope and stats::log_binned apply directly.
  /// Requires at least one completed segment.
  stats::Periodogram result() const;

 private:
  void flush_segment();

  WelchOptions options_;
  std::shared_ptr<const Window> window_;
  std::vector<double> buffer_;       ///< open segment, buffer_fill_ valid
  std::vector<double> segment_;      ///< flush scratch: the windowed segment
  std::size_t buffer_fill_ = 0;
  std::vector<double> power_sum_;    ///< summed normalized ordinates, k = 1..
  std::size_t segments_ = 0;
  std::size_t n_ = 0;
};

}  // namespace vbr::stream
