#include "vbr/common/math_util.hpp"

#include <algorithm>
#include <cmath>

#include "vbr/common/error.hpp"

namespace vbr {

double kahan_total(std::span<const double> values) {
  KahanSum sum;
  for (double v : values) sum.add(v);
  return sum.value();
}

LinearFit linear_fit(std::span<const double> x, std::span<const double> y) {
  VBR_ENSURE(x.size() == y.size(), "linear_fit requires equal-length inputs");
  VBR_ENSURE(x.size() >= 2, "linear_fit requires at least two points");
  const auto n = static_cast<double>(x.size());

  KahanSum sx, sy;
  for (double v : x) sx.add(v);
  for (double v : y) sy.add(v);
  const double mx = sx.value() / n;
  const double my = sy.value() / n;

  KahanSum sxx, sxy, syy;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double dx = x[i] - mx;
    const double dy = y[i] - my;
    sxx.add(dx * dx);
    sxy.add(dx * dy);
    syy.add(dy * dy);
  }
  VBR_ENSURE(sxx.value() > 0.0, "linear_fit requires non-degenerate x values");

  LinearFit fit;
  fit.n = x.size();
  fit.slope = sxy.value() / sxx.value();
  fit.intercept = my - fit.slope * mx;
  const double ss_tot = syy.value();
  const double ss_res = ss_tot - fit.slope * sxy.value();
  fit.r_squared = (ss_tot > 0.0) ? 1.0 - ss_res / ss_tot : 1.0;
  if (x.size() > 2) {
    const double var_res = std::max(0.0, ss_res) / (n - 2.0);
    fit.slope_stderr = std::sqrt(var_res / sxx.value());
  }
  return fit;
}

std::vector<double> log_spaced(double lo, double hi, std::size_t count) {
  VBR_ENSURE(lo > 0.0 && hi >= lo, "log_spaced requires 0 < lo <= hi");
  VBR_ENSURE(count >= 2, "log_spaced requires count >= 2");
  std::vector<double> out(count);
  const double llo = std::log(lo);
  const double lhi = std::log(hi);
  for (std::size_t i = 0; i < count; ++i) {
    const double t = static_cast<double>(i) / static_cast<double>(count - 1);
    out[i] = std::exp(llo + t * (lhi - llo));
  }
  return out;
}

std::vector<std::size_t> log_spaced_sizes(std::size_t lo, std::size_t hi, std::size_t count) {
  VBR_ENSURE(lo >= 1 && hi >= lo, "log_spaced_sizes requires 1 <= lo <= hi");
  const auto grid = log_spaced(static_cast<double>(lo), static_cast<double>(hi),
                               std::max<std::size_t>(count, 2));
  std::vector<std::size_t> out;
  out.reserve(grid.size());
  for (double g : grid) {
    const auto v = static_cast<std::size_t>(std::llround(g));
    if (out.empty() || v > out.back()) out.push_back(v);
  }
  return out;
}

std::vector<double> block_means(std::span<const double> values, std::size_t m) {
  VBR_ENSURE(m >= 1, "block size must be >= 1");
  const std::size_t blocks = values.size() / m;
  std::vector<double> out;
  out.reserve(blocks);
  for (std::size_t b = 0; b < blocks; ++b) {
    KahanSum sum;
    for (std::size_t i = 0; i < m; ++i) sum.add(values[b * m + i]);
    out.push_back(sum.value() / static_cast<double>(m));
  }
  return out;
}

double sample_mean(std::span<const double> values) {
  VBR_ENSURE(!values.empty(), "mean requires a non-empty range");
  return kahan_total(values) / static_cast<double>(values.size());
}

double sample_variance(std::span<const double> values) {
  VBR_ENSURE(values.size() >= 2, "variance requires at least two values");
  const double mean = sample_mean(values);
  KahanSum ss;
  for (double v : values) {
    const double d = v - mean;
    ss.add(d * d);
  }
  return ss.value() / static_cast<double>(values.size() - 1);
}

double percentile(std::span<const double> values, double q) {
  VBR_ENSURE(!values.empty(), "percentile requires a non-empty range");
  VBR_ENSURE(q >= 0.0 && q <= 1.0, "percentile requires q in [0, 1]");
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

}  // namespace vbr
