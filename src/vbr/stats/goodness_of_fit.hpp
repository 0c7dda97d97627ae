// Goodness-of-fit statistics for the marginal-distribution comparisons of
// Section 3.1 (Figs. 4-6): the Kolmogorov-Smirnov distance turns the
// paper's visual "which curve tracks the data" argument into a number.
#pragma once

#include <cstddef>
#include <span>

#include "vbr/stats/distributions.hpp"

namespace vbr::stats {

struct KsResult {
  double statistic = 0.0;  ///< sup_x |F_n(x) - F(x)|
  double location = 0.0;   ///< x where the supremum is attained
  /// Asymptotic p-value via the Kolmogorov distribution (two-sided,
  /// parameters assumed known; with fitted parameters treat it as a
  /// relative score rather than an exact test).
  double p_value = 0.0;
};

/// Kolmogorov-Smirnov test of `data` against a fitted distribution.
KsResult ks_test(std::span<const double> data, const Distribution& model);

/// Kolmogorov distribution's survival function Q(t) = P(K > t)
/// (series expansion; used for the KS p-value).
double kolmogorov_survival(double t);

}  // namespace vbr::stats
