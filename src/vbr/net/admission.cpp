#include "vbr/net/admission.hpp"

#include <cmath>

#include "vbr/common/error.hpp"

namespace vbr::net {

BufferlessAdmission::BufferlessAdmission(const stats::GammaParetoDistribution& marginal,
                                         double dt_seconds, std::size_t table_points)
    : base_(marginal, 0.0,
            // Cover the marginal far into its tail: the (1 - 1e-9) quantile.
            marginal.quantile(1.0 - 1e-9), table_points),
      dt_seconds_(dt_seconds),
      per_source_mean_bytes_(marginal.mean()) {
  VBR_ENSURE(dt_seconds > 0.0, "interval duration must be positive");
}

const stats::TabulatedDistribution& BufferlessAdmission::convolved(
    std::size_t sources) const {
  VBR_ENSURE(sources >= 1, "need at least one source");
  while (cache_.size() < sources) {
    cache_.push_back(base_.convolve_power(cache_.size() + 1));
  }
  return cache_[sources - 1];
}

double BufferlessAdmission::loss_fraction(std::size_t sources,
                                          double total_capacity_bps) const {
  VBR_ENSURE(total_capacity_bps > 0.0, "capacity must be positive");
  const double capacity_bytes = total_capacity_bps / 8.0 * dt_seconds_;
  const auto& sum = convolved(sources);
  const double excess = sum.partial_expectation_above(capacity_bytes);
  const double fraction = excess / (static_cast<double>(sources) * per_source_mean_bytes_);
  VBR_CHECK_PROB(fraction, "bufferless loss fraction");
  return fraction;
}

double BufferlessAdmission::required_capacity_bps(std::size_t sources,
                                                  double target_loss) const {
  VBR_ENSURE(target_loss > 0.0 && target_loss < 1.0, "target loss must be in (0, 1)");
  const double mean_bps =
      static_cast<double>(sources) * per_source_mean_bytes_ * 8.0 / dt_seconds_;
  double lo = mean_bps * 0.5;
  double hi = mean_bps;
  while (loss_fraction(sources, hi) > target_loss) {
    hi *= 1.5;
    VBR_ENSURE(hi < mean_bps * 100.0, "target loss unreachable within the table range");
  }
  for (int i = 0; i < 60; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (loss_fraction(sources, mid) > target_loss) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return hi;
}

std::size_t BufferlessAdmission::max_admissible_sources(double total_capacity_bps,
                                                        double target_loss,
                                                        std::size_t limit) const {
  VBR_ENSURE(limit >= 1, "limit must be >= 1");
  // Loss is monotone in N at fixed capacity; linear scan with early exit
  // keeps the convolution cache warm for subsequent queries.
  std::size_t admitted = 0;
  for (std::size_t n = 1; n <= limit; ++n) {
    if (loss_fraction(n, total_capacity_bps) <= target_loss) {
      admitted = n;
    } else {
      break;
    }
  }
  return admitted;
}

}  // namespace vbr::net
