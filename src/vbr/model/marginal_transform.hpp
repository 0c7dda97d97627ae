// Marginal distribution distortion (Section 4.2, Eq. 13):
//
//   Y_k = F_target^{-1}( F_N(X_k) )
//
// maps a Gaussian realization point-by-point onto an arbitrary target
// marginal while leaving the rank order — and hence, to a very good
// approximation, the Hurst parameter — unchanged ("The measured value of H
// is not affected by the distortion of the marginal distribution").
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "vbr/stats/gamma_pareto.hpp"

namespace vbr::model {

/// The map, table-driven: precomputes the composite map on a uniform grid of
/// `table_points` Gaussian quantiles and interpolates. This is the paper's
/// implementation device (a 10,000-point table) and is much faster than
/// evaluating F^{-1}(Phi(z)) per sample; the tails beyond the table are
/// evaluated exactly. The paper notes (Section 5.2) that the tabulated map can clip
/// the extreme Pareto tail — measured in bench_model_validation.
class TabulatedMarginalMap {
 public:
  TabulatedMarginalMap(const stats::Distribution& target, std::size_t table_points = 10000);

  /// Map one standard-Gaussian value.
  double operator()(double z) const;

  /// Map a whole realization with Gaussian parameters (mu, sigma).
  std::vector<double> apply(std::span<const double> gaussian, double mu = 0.0,
                            double sigma = 1.0) const;

  /// Map into `out` (same size as `gaussian`; may be the same memory, as
  /// each output depends only on the input at its own index).
  void apply(std::span<const double> gaussian, std::span<double> out, double mu = 0.0,
             double sigma = 1.0) const;

 private:
  const stats::Distribution& target_;
  std::vector<double> z_grid_;   ///< Gaussian abscissae
  std::vector<double> y_grid_;   ///< target quantiles at those abscissae
};

/// A Gamma/Pareto marginal and the 10,000-point map that references it,
/// shared immutably by every generation and stream that uses the triple.
struct SharedMarginalMap {
  stats::GammaParetoDistribution dist;
  TabulatedMarginalMap map;  ///< references `dist`, so the pair never moves

  explicit SharedMarginalMap(const stats::GammaParetoParams& params)
      : dist(params), map(dist) {}
  SharedMarginalMap(const SharedMarginalMap&) = delete;
  SharedMarginalMap& operator=(const SharedMarginalMap&) = delete;
};

/// The process-wide, thread-safe marginal-map cache, keyed by the three
/// parameters' bit patterns. The first use of a triple tabulates it (a few
/// ms); the table is a function of the key, so caching changes no bit.
std::shared_ptr<const SharedMarginalMap> shared_marginal_map(
    const stats::GammaParetoParams& params);

/// Number of distinct parameter triples currently tabulated.
std::size_t marginal_map_cache_size();

/// Drop every cached map (holders keep theirs alive; next uses re-tabulate).
void marginal_map_cache_clear();

}  // namespace vbr::model
