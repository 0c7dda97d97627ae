// StreamingQuantiles: a bounded-memory quantile / CCDF sketch for the
// marginal distribution exhibits (the log-log CCDF of Fig. 4 and the
// Gamma/Pareto tail region).
//
// Design note: the classic P² algorithm tracks five markers per target
// quantile in O(1) memory, but two P² sketches cannot be merged, and the
// engine tap needs an associative merge to stay deterministic. We therefore
// use the other standard constant-memory design — a geometric (log-spaced)
// bucket sketch in the style of DDSketch/HDR histograms: bucket i covers
// [lo * g^i, lo * g^(i+1)), so every quantile estimate carries a bounded
// *relative* error of about `relative_error`, which is exactly the guarantee
// a log-log tail plot needs. Two sketches with the same configuration merge
// exactly (integer bucket counts add), so merge is associative and the
// split-k/merge result is identical to the single-pass sketch.
//
// Memory: O(log(hi/lo) / log(1 + 2*eps)) buckets — 1.5k doubles for the
// default [1, 1e12] range at 1% relative error — independent of stream
// length.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "vbr/stream/sink.hpp"

namespace vbr::stream {

struct QuantileSketchOptions {
  /// Quantile estimates are within this relative error of an exact
  /// order-statistic quantile (for values inside [min_value, max_value]).
  double relative_error = 0.01;
  /// Values below min_value (including zeros) land in one underflow bucket
  /// reported as min_value; values above max_value saturate the top bucket.
  double min_value = 1.0;
  double max_value = 1e12;
};

class StreamingQuantiles final : public Sink {
 public:
  explicit StreamingQuantiles(const QuantileSketchOptions& options = {});

  void push(std::span<const double> samples) override;
  void merge(const Sink& other) override;
  std::unique_ptr<Sink> clone_empty() const override;
  void save(std::ostream& out) const override;
  void restore(std::istream& in) override;
  std::size_t count() const override { return count_; }
  const char* kind() const override { return "quantiles"; }

  const QuantileSketchOptions& options() const { return options_; }

  /// Order-statistic quantile estimate, q in [0, 1]; requires count() >= 1.
  /// Exact for q = 0 and q = 1 (true min/max are tracked separately).
  double quantile(double q) const;

  /// P(X > x) estimate from the sketch.
  double ccdf(double x) const;

  /// Log-spaced (x, P(X > x)) points across the sketch's occupied range,
  /// for a Fig. 4-style log-log CCDF plot. Points with CCDF 0 are dropped.
  struct Curve {
    std::vector<double> x;
    std::vector<double> p;
  };
  Curve ccdf_curve(std::size_t points) const;

 private:
  std::size_t bucket_index(double v) const;
  double bucket_value(std::size_t i) const;

  QuantileSketchOptions options_;
  double log_gamma_ = 0.0;               ///< log of the bucket growth factor
  std::vector<std::uint64_t> counts_;    ///< [underflow, buckets..., overflow]
  std::size_t count_ = 0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace vbr::stream
