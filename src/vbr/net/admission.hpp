// Bufferless admission control from the Gamma/Pareto convolution.
//
// Section 4.2: "To simulate the aggregation of multiple sources, we
// implemented a convolution of the Gamma/Pareto distribution using a table
// of 10,000 points." This module puts that machinery to its engineering
// use: for a bufferless (or small-buffer) multiplexer, the loss fraction
// when N sources share capacity C is approximately the rate-overflow tail
// E[(S_N - C)^+] / E[S_N] of the N-fold marginal convolution S_N. That
// yields a connection-admission rule -- the analytic counterpart of the
// Fig. 15 simulation, exact for marginals but blind to time correlation
// (which is why it applies at the small-buffer knee, where LRD cannot
// help).
#pragma once

#include <cstddef>

#include "vbr/stats/gamma_pareto.hpp"

namespace vbr::net {

/// Analytic bufferless multiplexer built on the paper's tabulated N-fold
/// convolution of the per-source marginal.
class BufferlessAdmission {
 public:
  /// `marginal` is the per-source bytes-per-interval law; `dt_seconds` the
  /// interval; `table_points` the tabulation resolution (paper: 10,000).
  BufferlessAdmission(const stats::GammaParetoDistribution& marginal, double dt_seconds,
                      std::size_t table_points = 10000);

  /// Overflow loss fraction for N sources at total capacity (bits/s):
  /// E[(S_N - c)^+] / E[S_N] with c = capacity per interval.
  double loss_fraction(std::size_t sources, double total_capacity_bps) const;

  /// Smallest total capacity (bits/s) with loss_fraction <= target.
  double required_capacity_bps(std::size_t sources, double target_loss) const;

  /// Largest N admissible at the given capacity and loss target (0 if even
  /// one source does not fit).
  std::size_t max_admissible_sources(double total_capacity_bps, double target_loss,
                                     std::size_t limit = 512) const;

 private:
  stats::TabulatedDistribution base_;
  double dt_seconds_;
  double per_source_mean_bytes_;

  const stats::TabulatedDistribution& convolved(std::size_t sources) const;
  mutable std::vector<stats::TabulatedDistribution> cache_;  ///< index N-1
};

}  // namespace vbr::net
