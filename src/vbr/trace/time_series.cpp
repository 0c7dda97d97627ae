#include "vbr/trace/time_series.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "vbr/common/error.hpp"
#include "vbr/common/math_util.hpp"

namespace vbr::trace {

TimeSeries::TimeSeries(std::vector<double> values, double dt_seconds, std::string unit)
    : values_(std::move(values)), dt_seconds_(dt_seconds), unit_(std::move(unit)) {
  VBR_ENSURE(dt_seconds_ > 0.0, "TimeSeries requires a positive sampling interval");
}

double TimeSeries::mean_rate_bps() const {
  if (values_.empty()) return 0.0;
  const double mean_bytes = kahan_total(values_) / static_cast<double>(values_.size());
  return mean_bytes * 8.0 / dt_seconds_;
}

double TimeSeries::peak_rate_bps() const {
  if (values_.empty()) return 0.0;
  const double peak = *std::max_element(values_.begin(), values_.end());
  return peak * 8.0 / dt_seconds_;
}

SummaryStats TimeSeries::summary() const {
  SummaryStats s;
  s.count = values_.size();
  if (values_.empty()) return s;

  s.mean = kahan_total(values_) / static_cast<double>(s.count);
  KahanSum ss;
  double lo = values_.front();
  double hi = values_.front();
  for (double v : values_) {
    const double d = v - s.mean;
    ss.add(d * d);
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  s.variance = (s.count > 1) ? ss.value() / static_cast<double>(s.count - 1) : 0.0;
  s.stddev = std::sqrt(s.variance);
  s.coefficient_of_variation = (s.mean != 0.0) ? s.stddev / s.mean : 0.0;
  s.min = lo;
  s.max = hi;
  s.peak_to_mean = (s.mean != 0.0) ? hi / s.mean : 0.0;
  return s;
}

TimeSeries TimeSeries::slice(std::size_t first, std::size_t count) const {
  VBR_ENSURE(first <= values_.size(), "slice start beyond end of series");
  const std::size_t n = std::min(count, values_.size() - first);
  std::vector<double> sub(values_.begin() + static_cast<std::ptrdiff_t>(first),
                          values_.begin() + static_cast<std::ptrdiff_t>(first + n));
  return TimeSeries(std::move(sub), dt_seconds_, unit_);
}

}  // namespace vbr::trace
