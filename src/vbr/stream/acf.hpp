// StreamingAcf: one-pass autocorrelation up to a fixed maximum lag (the
// streaming analogue of Fig. 7's ACF, restricted to the lag window that
// bounded memory allows).
//
// The estimator accumulates raw lagged cross products sum x_i * x_{i-k}
// against a ring buffer of the last max_lag samples, plus the stream total;
// at query time the mean correction is applied in closed form, so acf()
// equals the batch estimator (autocovariance / n, normalized at lag 0,
// global-mean centered) exactly in exact arithmetic — the only difference
// from stats::autocorrelation is floating-point summation order.
//
// merge() is exact: the cross products spanning the boundary between two
// sub-streams only involve the left stream's last max_lag samples (its ring
// buffer) and the right stream's first max_lag samples (kept for exactly
// this purpose), both of which are part of the sketch state. Memory is
// O(max_lag); per-sample cost is O(max_lag).
//
// push() reads lags from a contiguous window rather than the ring: the
// ring's last max_lag samples are copied in front of the block's first
// max_lag samples, and later samples find their partners in the block
// itself. The lag loop runs over eight samples at a time, vectorized across
// lags, and is compiled for each ISA of common/isa.hpp (AVX2 where the host
// runs it). Every cross product is still added in stream order, so the
// state (and save()) is bit-identical for any split of the stream into
// pushes and on every ISA.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "vbr/common/isa.hpp"
#include "vbr/stream/sink.hpp"

namespace vbr::stream {

class StreamingAcf final : public Sink {
 public:
  /// `isa` picks the lag loop's instance; every instance keeps the same
  /// bits, so it is not part of the state. Throws vbr::InvalidArgument if
  /// the host cannot run it.
  explicit StreamingAcf(std::size_t max_lag, KernelIsa isa = active_kernel_isa());

  void push(std::span<const double> samples) override;
  void merge(const Sink& other) override;
  std::unique_ptr<Sink> clone_empty() const override;
  void save(std::ostream& out) const override;
  void restore(std::istream& in) override;
  std::size_t count() const override { return n_; }
  const char* kind() const override { return "acf"; }

  std::size_t max_lag() const { return max_lag_; }

  /// r(0..min(max_lag, count() - 1)); r[0] == 1. Requires count() >= 2 and a
  /// non-constant stream. Matches stats::autocorrelation on the same data up
  /// to floating-point summation order.
  std::vector<double> acf() const;

 private:
  /// Writes the last k <= min(n, max_lag) samples, oldest first, to out.
  void copy_last(std::size_t k, double* out) const;
  std::vector<double> last(std::size_t k) const;  ///< last k samples, oldest first

  std::size_t max_lag_ = 0;
  KernelIsa isa_ = KernelIsa::kBaseline;  ///< the lag loop's instance; not state
  std::size_t n_ = 0;
  double sum_ = 0.0;
  double compensation_ = 0.0;          ///< Kahan carry for sum_
  std::vector<double> cross_;          ///< cross_[k] = sum_{i >= k} x_i * x_{i-k}
  std::vector<double> head_;           ///< first min(n, max_lag) samples
  std::vector<double> ring_;           ///< circular buffer of last max_lag samples
  std::vector<double> scratch_;        ///< push() work space, <= 3 * max_lag + 1; not state
};

}  // namespace vbr::stream
