#include "vbr/model/marginal_transform.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <mutex>
#include <tuple>

#include "vbr/common/error.hpp"
#include "vbr/common/special_functions.hpp"

namespace vbr::model {
namespace {

// Keep probabilities strictly inside (0, 1) so target quantiles stay finite.
double clamp_probability(double p) {
  constexpr double kEps = 1e-15;
  VBR_DCHECK(p >= 0.0 && p <= 1.0, "CDF value left [0, 1]");
  return std::clamp(p, kEps, 1.0 - kEps);
}

using MapKey = std::tuple<std::uint64_t, std::uint64_t, std::uint64_t>;

struct MapCache {
  std::mutex mutex;
  std::map<MapKey, std::shared_ptr<const SharedMarginalMap>> entries;
};

MapCache& map_cache() {
  static MapCache cache;
  return cache;
}

}  // namespace

TabulatedMarginalMap::TabulatedMarginalMap(const stats::Distribution& target,
                                           std::size_t table_points)
    : target_(target) {
  VBR_ENSURE(table_points >= 64, "marginal map table needs at least 64 points");
  // Uniform grid in z over +-8 sigma covers everything a 171k-point
  // realization will produce except the most extreme draws, which fall back
  // to the exact quantile in operator().
  constexpr double kZMax = 8.0;
  z_grid_.resize(table_points);
  y_grid_.resize(table_points);
  for (std::size_t i = 0; i < table_points; ++i) {
    const double t = static_cast<double>(i) / static_cast<double>(table_points - 1);
    const double z = -kZMax + 2.0 * kZMax * t;
    z_grid_[i] = z;
    y_grid_[i] = target.quantile(clamp_probability(normal_cdf(z)));
    VBR_CHECK_FINITE(y_grid_[i], "tabulated marginal-map quantile");
  }
}

double TabulatedMarginalMap::operator()(double z) const {
  if (z <= z_grid_.front() || z >= z_grid_.back()) {
    return target_.quantile(clamp_probability(normal_cdf(z)));
  }
  const double step = z_grid_[1] - z_grid_[0];
  const double pos = (z - z_grid_.front()) / step;
  const auto idx = std::min(static_cast<std::size_t>(pos), z_grid_.size() - 2);
  const double frac = pos - static_cast<double>(idx);
  return y_grid_[idx] * (1.0 - frac) + y_grid_[idx + 1] * frac;
}

std::vector<double> TabulatedMarginalMap::apply(std::span<const double> gaussian, double mu,
                                                double sigma) const {
  std::vector<double> out(gaussian.size());
  apply(gaussian, out, mu, sigma);
  return out;
}

void TabulatedMarginalMap::apply(std::span<const double> gaussian, std::span<double> out,
                                 double mu, double sigma) const {
  VBR_ENSURE(sigma > 0.0, "Gaussian sigma must be positive");
  VBR_ENSURE(out.size() == gaussian.size(), "marginal map output must match its input");
  for (std::size_t i = 0; i < gaussian.size(); ++i) out[i] = (*this)((gaussian[i] - mu) / sigma);
}

std::shared_ptr<const SharedMarginalMap> shared_marginal_map(
    const stats::GammaParetoParams& params) {
  const MapKey key(std::bit_cast<std::uint64_t>(params.mu_gamma),
                   std::bit_cast<std::uint64_t>(params.sigma_gamma),
                   std::bit_cast<std::uint64_t>(params.tail_slope));
  auto& cache = map_cache();
  {
    const std::scoped_lock lock(cache.mutex);
    if (const auto it = cache.entries.find(key); it != cache.entries.end()) return it->second;
  }
  // Tabulate outside the lock; a racing duplicate is identical and the
  // first insert wins.
  auto entry = std::make_shared<const SharedMarginalMap>(params);
  const std::scoped_lock lock(cache.mutex);
  return cache.entries.emplace(key, std::move(entry)).first->second;
}

std::size_t marginal_map_cache_size() {
  auto& cache = map_cache();
  const std::scoped_lock lock(cache.mutex);
  return cache.entries.size();
}

void marginal_map_cache_clear() {
  auto& cache = map_cache();
  const std::scoped_lock lock(cache.mutex);
  cache.entries.clear();
}

}  // namespace vbr::model
