// The paper's hybrid Gamma/Pareto marginal distribution F_{Gamma/Pareto}
// (Section 4.2).
//
// The body of the VBR bandwidth distribution is Gamma; the right tail is
// Pareto. The two pieces are spliced at the threshold x_th where the local
// log-log slope of the Gamma CCDF equals the (constant) Pareto tail slope,
// and the Pareto minimum k is then chosen so the CCDF is continuous there —
// "matching the slope and position of the two functions". With both the
// value and the log-log slope matched, the density is continuous as well.
//
// Three parameters determine everything: mu_gamma and sigma_gamma (the
// equivalent mean/stddev of the Gamma part) and the tail slope m_T.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "vbr/stats/distributions.hpp"

namespace vbr::stats {

/// The three estimated parameters of the hybrid model (plus H, these four
/// numbers are the paper's entire source model).
struct GammaParetoParams {
  double mu_gamma = 0.0;     ///< equivalent mean of the Gamma part
  double sigma_gamma = 0.0;  ///< equivalent stddev of the Gamma part
  double tail_slope = 0.0;   ///< m_T: magnitude of the log-log CCDF tail slope (Pareto a)
};

/// Hybrid Gamma-body / Pareto-tail distribution.
class GammaParetoDistribution final : public Distribution {
 public:
  explicit GammaParetoDistribution(const GammaParetoParams& params);

  double pdf(double x) const override;
  double cdf(double x) const override;
  double quantile(double p) const override;
  std::string name() const override { return "Gamma/Pareto"; }
  double mean() const override;
  double variance() const override;

  const GammaParetoParams& params() const { return params_; }
  const GammaDistribution& gamma_part() const { return gamma_; }
  const ParetoDistribution& pareto_part() const { return pareto_; }

  /// Splice threshold x_th and the CDF mass below it.
  double threshold() const { return x_th_; }
  double threshold_cdf() const { return p_th_; }

  /// Estimate the three parameters from a trace: sample mean/stddev for the
  /// Gamma part (adequate when the tail holds only a few percent of the
  /// data, per the paper) and a log-log CCDF regression over the upper
  /// `tail_fraction` of the sample for m_T.
  static GammaParetoParams fit(std::span<const double> data, double tail_fraction = 0.03);

 private:
  GammaParetoParams params_;
  GammaDistribution gamma_;
  ParetoDistribution pareto_;
  double x_th_ = 0.0;  ///< splice point
  double p_th_ = 0.0;  ///< F(x_th), same for both pieces by construction
};

/// Tabulated density on a uniform grid; implements the paper's 10,000-point
/// table used "to simulate the aggregation of multiple sources ... a
/// convolution of the Gamma/Pareto distribution" (Section 4.2).
class TabulatedDistribution {
 public:
  /// Tabulate `dist` on [lo, hi] with `points` samples of the pdf.
  TabulatedDistribution(const Distribution& dist, double lo, double hi,
                        std::size_t points = 10000);

  /// Distribution of the sum of n i.i.d. copies (discrete self-convolution,
  /// FFT-accelerated). n >= 1.
  TabulatedDistribution convolve_power(std::size_t n) const;

  double lo() const { return lo_; }
  double hi() const { return hi_; }
  double step() const { return step_; }

  double mean() const;
  /// Stop-loss transform E[(X - threshold)^+] (used by the bufferless
  /// admission analysis).
  double partial_expectation_above(double threshold) const;

 private:
  TabulatedDistribution() = default;

  std::vector<double> pmf_;  ///< probability mass per grid cell (sums to 1)
  double lo_ = 0.0;
  double hi_ = 0.0;
  double step_ = 0.0;

  void normalize();
};

}  // namespace vbr::stats
