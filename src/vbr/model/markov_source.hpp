// Classical short-range-dependent VBR video source models — the baselines
// the paper argues are insufficient.
//
// Before this paper, VBR video was commonly modeled with finite Markov
// chains (Maglaris et al. style birth-death chains over quantized rate
// levels) or first-order autoregressive processes. Both have exponentially
// decaying autocorrelations, so they match the trace at short lags but miss
// the long-range dependence entirely; the paper's Fig. 16 i.i.d. variant is
// the extreme member of this family. We implement two canonical baselines:
//
//  * MarkovChainSource — an M-state chain over rate levels; levels and the
//    transition matrix are fitted from a trace by quantile binning and
//    transition counting. Generation reproduces marginals and the lag-1
//    correlation but decays like the chain's second eigenvalue.
//  * DarGammaParetoSource — a DAR(1) (discrete autoregressive) process:
//    with probability rho keep the previous value, otherwise draw fresh
//    from the Gamma/Pareto marginal. Exactly geometric ACF rho^k with
//    exactly the right marginals — the sharpest "right marginal, wrong
//    memory" contrast to the paper's model.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "vbr/common/rng.hpp"
#include "vbr/stats/gamma_pareto.hpp"

namespace vbr::model {

/// M-state Markov-chain rate model.
class MarkovChainSource {
 public:
  /// Construct from explicit levels (bytes/frame) and a row-stochastic
  /// transition matrix (row-major, states x states).
  MarkovChainSource(std::vector<double> levels, std::vector<double> transition);

  /// Fit from a trace: states are the quantile bins of the empirical
  /// distribution (equal-probability levels, each represented by its bin
  /// mean), transitions estimated by counting.
  static MarkovChainSource fit(std::span<const double> frame_bytes, std::size_t states);

  std::size_t states() const { return levels_.size(); }
  const std::vector<double>& levels() const { return levels_; }

  /// Stationary distribution (power iteration).
  std::vector<double> stationary() const;

  /// Generate n frame sizes starting from the stationary distribution.
  std::vector<double> generate(std::size_t n, Rng& rng) const;

  /// Magnitude of the second-largest eigenvalue of the transition matrix
  /// (power iteration on the deflated chain): the ACF of the chain decays
  /// like lambda2^k — always exponential, never LRD.
  double second_eigenvalue_magnitude() const;

 private:
  std::vector<double> levels_;
  std::vector<double> transition_;  ///< row-major
};

/// DAR(1) process with Gamma/Pareto marginals.
class DarGammaParetoSource {
 public:
  DarGammaParetoSource(const stats::GammaParetoParams& marginal, double rho);

  /// Fit: marginals from the trace, rho from the lag-1 autocorrelation.
  static DarGammaParetoSource fit(std::span<const double> frame_bytes);

  double rho() const { return rho_; }
  const stats::GammaParetoDistribution& marginal() const { return marginal_; }

  std::vector<double> generate(std::size_t n, Rng& rng) const;

 private:
  stats::GammaParetoDistribution marginal_;
  double rho_;
};

}  // namespace vbr::model
