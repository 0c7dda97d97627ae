// The paper's VBR video source model (Section 4): four parameters —
// mu_Gamma, sigma_Gamma and m_T describing the hybrid Gamma/Pareto marginal,
// plus the Hurst parameter H describing the long-range-dependent time
// correlation. Generation composes a Gaussian self-similar realization
// (Hosking's exact fARIMA recursion or the fast Davies-Harte method) with
// the inverse-CDF marginal distortion Y_k = F_{Gamma/Pareto}^{-1}(F_N(X_k)).
//
// Two reduced variants used in the Fig. 16 comparison are also provided:
// the fARIMA model with plain Gaussian marginals (LRD but no heavy tail) and
// the i.i.d. Gamma/Pareto model (heavy tail but no LRD).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "vbr/common/rng.hpp"
#include "vbr/model/workspace.hpp"
#include "vbr/stats/gamma_pareto.hpp"
#include "vbr/trace/time_series.hpp"

namespace vbr::model {

/// Which of the paper's three candidate models to realize (Fig. 16).
enum class ModelVariant {
  kFull,            ///< fARIMA + Gamma/Pareto marginals (the proposed model)
  kGaussianFarima,  ///< fARIMA with Gaussian marginals: LRD only
  kIidGammaPareto,  ///< i.i.d. Gamma/Pareto: heavy tail only
};

/// Which Gaussian(-ish) LRD generator to use underneath. The full zoo —
/// construction, exactness contract, and registry-name mapping — lives in
/// fgn_generator.hpp; select by name with generator_backend_from_name().
enum class GeneratorBackend {
  kHosking,          ///< the paper's exact O(n^2) recursion
  kDaviesHarte,      ///< exact O(n log n) circulant embedding
  kPaxson,           ///< Paxson's approximate spectral synthesis (fast)
  kAggregatedOnOff,  ///< Pareto-session M/G/inf count (on/off superposition limit)
};

/// The complete four-parameter model.
struct VbrModelParams {
  stats::GammaParetoParams marginal;  ///< mu_Gamma, sigma_Gamma, m_T
  double hurst = 0.8;                 ///< H
};

struct FitOptions {
  /// Upper-order fraction used for the Pareto tail-slope regression.
  double tail_fraction = 0.03;
  /// H is estimated by Whittle on log-transformed, aggregated data; the
  /// aggregation level is chosen to leave about this many points (the
  /// paper reads its estimate at m ~ 700, i.e. ~244 points of 171k).
  std::size_t whittle_target_points = 300;
};

/// Fitted/parameterized VBR video traffic source.
class VbrVideoSourceModel {
 public:
  explicit VbrVideoSourceModel(const VbrModelParams& params);

  /// Estimate all four parameters from a frame-size record.
  static VbrVideoSourceModel fit(std::span<const double> frame_bytes,
                                 const FitOptions& options = {});

  const VbrModelParams& params() const { return params_; }
  const stats::GammaParetoDistribution& marginal() const { return marginal_; }

  /// Generate n frame sizes (bytes/frame). A thin wrapper over the span
  /// form with a fresh workspace.
  std::vector<double> generate(std::size_t n, Rng& rng,
                               ModelVariant variant = ModelVariant::kFull,
                               GeneratorBackend backend = GeneratorBackend::kDaviesHarte) const;

  /// Generate out.size() frame sizes into `out`, bit-identical to the
  /// allocating form. The Gaussian core is written into `out` and the
  /// marginal map applied there in place; with Davies-Harte or Paxson and
  /// warm caches, a second call of the same shape on the same workspace
  /// allocates nothing.
  void generate(std::span<double> out, Rng& rng, ModelVariant variant, GeneratorBackend backend,
                Workspace& workspace) const;

  /// Convenience wrapper returning a TimeSeries at the paper's frame rate.
  trace::TimeSeries generate_trace(std::size_t n, Rng& rng,
                                   ModelVariant variant = ModelVariant::kFull,
                                   GeneratorBackend backend = GeneratorBackend::kDaviesHarte,
                                   double dt_seconds = 1.0 / 24.0) const;

 private:
  VbrModelParams params_;
  stats::GammaParetoDistribution marginal_;
};

}  // namespace vbr::model
