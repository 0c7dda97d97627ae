#include "vbr/stats/descriptive.hpp"

#include <algorithm>
#include <cmath>

#include "vbr/common/error.hpp"
#include "vbr/common/math_util.hpp"

namespace vbr::stats {

BatchMoments batch_moments(std::span<const double> data) {
  VBR_ENSURE(data.size() >= 4, "batch_moments requires at least 4 samples");
  BatchMoments out;
  out.count = data.size();
  const double n = static_cast<double>(data.size());
  out.mean = kahan_total(data) / n;
  out.min = data[0];
  out.max = data[0];
  KahanSum m2;
  KahanSum m3;
  KahanSum m4;
  for (double v : data) {
    out.min = std::min(out.min, v);
    out.max = std::max(out.max, v);
    const double d = v - out.mean;
    const double d2 = d * d;
    m2.add(d2);
    m3.add(d2 * d);
    m4.add(d2 * d2);
  }
  VBR_ENSURE(m2.value() > 0.0, "batch_moments requires a non-constant series");
  out.variance = m2.value() / (n - 1.0);
  out.skewness = std::sqrt(n) * m3.value() / std::pow(m2.value(), 1.5);
  out.excess_kurtosis = n * m4.value() / (m2.value() * m2.value()) - 3.0;
  return out;
}

double Histogram::bin_width() const {
  return (hi - lo) / static_cast<double>(counts.size());
}

double Histogram::bin_center(std::size_t i) const {
  return lo + (static_cast<double>(i) + 0.5) * bin_width();
}

double Histogram::density(std::size_t i) const {
  if (total == 0) return 0.0;
  return static_cast<double>(counts[i]) / (static_cast<double>(total) * bin_width());
}

double Histogram::mass(std::size_t i) const {
  if (total == 0) return 0.0;
  return static_cast<double>(counts[i]) / static_cast<double>(total);
}

Histogram make_histogram(std::span<const double> data, std::size_t bins, double lo, double hi) {
  VBR_ENSURE(bins >= 1, "histogram needs at least one bin");
  VBR_ENSURE(lo < hi, "histogram range must be non-empty");
  Histogram h;
  h.lo = lo;
  h.hi = hi;
  h.counts.assign(bins, 0);
  const double width = (hi - lo) / static_cast<double>(bins);
  for (double v : data) {
    auto idx = static_cast<std::ptrdiff_t>(std::floor((v - lo) / width));
    idx = std::clamp<std::ptrdiff_t>(idx, 0, static_cast<std::ptrdiff_t>(bins) - 1);
    ++h.counts[static_cast<std::size_t>(idx)];
  }
  h.total = data.size();
  return h;
}

Ecdf::Ecdf(std::span<const double> data) : sorted_(data.begin(), data.end()) {
  VBR_ENSURE(!sorted_.empty(), "Ecdf requires a non-empty sample");
  std::sort(sorted_.begin(), sorted_.end());
}

double Ecdf::cdf(double x) const {
  const auto it = std::upper_bound(sorted_.begin(), sorted_.end(), x);
  return static_cast<double>(it - sorted_.begin()) / static_cast<double>(sorted_.size());
}

double Ecdf::quantile(double q) const { return percentile(sorted_, q); }

}  // namespace vbr::stats
