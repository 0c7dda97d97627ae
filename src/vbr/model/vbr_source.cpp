#include "vbr/model/vbr_source.hpp"

#include <algorithm>
#include <cmath>

#include "vbr/common/error.hpp"
#include "vbr/common/math_util.hpp"
#include "vbr/model/fgn_generator.hpp"
#include "vbr/model/marginal_transform.hpp"
#include "vbr/stats/whittle.hpp"

namespace vbr::model {

VbrVideoSourceModel::VbrVideoSourceModel(const VbrModelParams& params)
    : params_(params), marginal_(params.marginal) {
  VBR_ENSURE(params.hurst > 0.0 && params.hurst < 1.0, "H must be in (0, 1)");
}

VbrVideoSourceModel VbrVideoSourceModel::fit(std::span<const double> frame_bytes,
                                             const FitOptions& options) {
  VBR_ENSURE(frame_bytes.size() >= 1000, "fitting needs a long record");
  check_finite_series(frame_bytes, "VbrVideoSourceModel::fit input");
  VbrModelParams params;
  params.marginal =
      stats::GammaParetoDistribution::fit(frame_bytes, options.tail_fraction);

  // H from the Whittle estimator on the log-transformed, aggregated series
  // (the log transform makes the marginals approximately Normal, matching
  // the estimator's Gaussian assumption; aggregation filters short-range
  // structure the fARIMA(0,d,0) shape does not model).
  std::vector<double> logs;
  logs.reserve(frame_bytes.size());
  for (double v : frame_bytes) {
    VBR_ENSURE(v > 0.0, "frame sizes must be positive");
    logs.push_back(std::log(v));
  }
  const std::size_t m =
      std::max<std::size_t>(1, frame_bytes.size() / options.whittle_target_points);
  const auto aggregated = block_means(logs, m);
  // Aggregated self-similar data converges to fGn, so the fGn spectral
  // model is the right Whittle target once m > 1.
  const auto model =
      (m > 1) ? stats::SpectralModel::kFgn : stats::SpectralModel::kFarima;
  params.hurst = stats::whittle_estimate(aggregated, model).hurst;
  VBR_CHECK_RANGE(params.hurst, 0.0, 1.0, "fitted H left (0, 1)");
  return VbrVideoSourceModel(params);
}

std::vector<double> VbrVideoSourceModel::generate(std::size_t n, Rng& rng,
                                                  ModelVariant variant,
                                                  GeneratorBackend backend) const {
  // NOLINTNEXTLINE(vbr-contract-coverage): a thin wrapper; the span form validates n (n == 0 throws there).
  std::vector<double> out(n);
  Workspace workspace;
  generate(out, rng, variant, backend, workspace);
  return out;
}

void VbrVideoSourceModel::generate(std::span<double> out, Rng& rng, ModelVariant variant,
                                   GeneratorBackend backend, Workspace& workspace) const {
  VBR_ENSURE(!out.empty(), "cannot generate an empty trace");

  if (variant == ModelVariant::kIidGammaPareto) {
    for (auto& y : out) y = marginal_.sample(rng);
    return;
  }

  // Gaussian(-ish) LRD core with zero mean, unit variance, from the
  // generator zoo. The exact backends realize the paper's fARIMA(0,d,0)
  // covariance; the approximate ones target fGn (see fgn_generator.hpp for
  // the fidelity contract).
  generate_fgn(backend, params_.hurst, out, rng, workspace);

  if (variant == ModelVariant::kGaussianFarima) {
    // Gaussian marginals scaled to the trace's mean/stddev; negative frame
    // sizes are physically impossible, so clip at zero (rare for the
    // paper's coefficient of variation of ~0.23).
    for (auto& x : out) {
      VBR_DCHECK(std::isfinite(x), "non-finite Gaussian core sample");
      x = std::max(0.0, params_.marginal.mu_gamma + params_.marginal.sigma_gamma * x);
    }
    return;
  }

  // Full model: Eq. (13) through the shared Gaussian -> Gamma/Pareto table.
  shared_marginal_map(params_.marginal)->map.apply(out, out);
}

trace::TimeSeries VbrVideoSourceModel::generate_trace(std::size_t n, Rng& rng,
                                                      ModelVariant variant,
                                                      GeneratorBackend backend,
                                                      double dt_seconds) const {
  VBR_ENSURE(n >= 1, "cannot generate an empty trace");
  return trace::TimeSeries(generate(n, rng, variant, backend), dt_seconds, "bytes/frame");
}

}  // namespace vbr::model
