// TimeSeries: the central value type of the library.
//
// A TimeSeries is a uniformly sampled, real-valued record: the per-frame (or
// per-slice) byte counts of a VBR video trace, an aggregated series X^(m), a
// generated model realization, or a loss-rate process. It owns its samples and
// carries the sampling interval so analyses can report results in physical
// units (Mb/s, msec) the way the paper's tables do.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace vbr::trace {

/// Summary statistics in the shape of the paper's Table 2.
struct SummaryStats {
  double mean = 0.0;                ///< mean bandwidth, bytes per time unit
  double stddev = 0.0;              ///< sample standard deviation (n-1)
  double variance = 0.0;            ///< sample variance (n-1)
  double coefficient_of_variation = 0.0;  ///< sigma / mu
  double min = 0.0;                 ///< minimum bandwidth
  double max = 0.0;                 ///< maximum ("peak") bandwidth
  double peak_to_mean = 0.0;        ///< burstiness: max / mean
  std::size_t count = 0;            ///< number of samples
};

/// Uniformly sampled real-valued time series.
class TimeSeries {
 public:
  TimeSeries() = default;

  /// Construct from samples with sampling interval dt (seconds) and a unit
  /// label used in reports (e.g. "bytes/frame").
  TimeSeries(std::vector<double> values, double dt_seconds, std::string unit = "bytes");

  const std::vector<double>& values() const { return values_; }
  std::vector<double>& values() { return values_; }
  std::span<const double> samples() const { return values_; }

  double dt_seconds() const { return dt_seconds_; }
  const std::string& unit() const { return unit_; }

  std::size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  double operator[](std::size_t i) const { return values_[i]; }

  /// Mean bandwidth in bits per second (samples are byte counts per dt).
  double mean_rate_bps() const;

  /// Peak bandwidth in bits per second.
  double peak_rate_bps() const;

  /// Table-2-style summary of the sample values.
  SummaryStats summary() const;

  /// Contiguous sub-series [first, first + count); clamps count to the end.
  TimeSeries slice(std::size_t first, std::size_t count) const;

 private:
  std::vector<double> values_;
  double dt_seconds_ = 1.0;
  std::string unit_ = "bytes";
};

}  // namespace vbr::trace
