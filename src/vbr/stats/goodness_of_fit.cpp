#include "vbr/stats/goodness_of_fit.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "vbr/common/error.hpp"

namespace vbr::stats {

double kolmogorov_survival(double t) {
  if (t <= 0.0) return 1.0;
  // Q(t) = 2 sum_{k>=1} (-1)^{k-1} exp(-2 k^2 t^2); converges very fast.
  double sum = 0.0;
  for (int k = 1; k <= 100; ++k) {
    const double term = std::exp(-2.0 * k * k * t * t);
    sum += ((k % 2 == 1) ? term : -term);
    if (term < 1e-16) break;
  }
  return std::clamp(2.0 * sum, 0.0, 1.0);
}

KsResult ks_test(std::span<const double> data, const Distribution& model) {
  VBR_ENSURE(data.size() >= 8, "KS test needs a reasonable sample");
  std::vector<double> sorted(data.begin(), data.end());
  std::sort(sorted.begin(), sorted.end());

  KsResult result;
  const auto n = static_cast<double>(sorted.size());
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    const double f = model.cdf(sorted[i]);
    const double upper = (static_cast<double>(i) + 1.0) / n - f;  // F_n jumps to (i+1)/n
    const double lower = f - static_cast<double>(i) / n;          // just before the jump
    const double d = std::max(upper, lower);
    if (d > result.statistic) {
      result.statistic = d;
      result.location = sorted[i];
    }
  }
  const double t = (std::sqrt(n) + 0.12 + 0.11 / std::sqrt(n)) * result.statistic;
  result.p_value = kolmogorov_survival(t);
  return result;
}

}  // namespace vbr::stats
