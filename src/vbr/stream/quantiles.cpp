#include "vbr/stream/quantiles.hpp"

#include <algorithm>
#include <cmath>

#include "vbr/common/error.hpp"
#include "vbr/common/math_util.hpp"
#include "vbr/common/serialize.hpp"

namespace vbr::stream {

StreamingQuantiles::StreamingQuantiles(const QuantileSketchOptions& options)
    : options_(options) {
  VBR_ENSURE(options_.relative_error > 0.0 && options_.relative_error < 0.5,
             "quantile sketch relative error must be in (0, 0.5)");
  VBR_ENSURE(options_.min_value > 0.0 && options_.min_value < options_.max_value,
             "quantile sketch needs 0 < min_value < max_value");
  const double gamma =
      (1.0 + options_.relative_error) / (1.0 - options_.relative_error);
  log_gamma_ = std::log(gamma);
  const auto buckets = static_cast<std::size_t>(
      std::ceil(std::log(options_.max_value / options_.min_value) / log_gamma_));
  // counts_[0] = underflow, counts_[1..buckets] = geometric buckets,
  // counts_[buckets + 1] = overflow.
  counts_.assign(buckets + 2, 0);
}

std::size_t StreamingQuantiles::bucket_index(double v) const {
  if (v < options_.min_value) return 0;
  if (v >= options_.max_value) return counts_.size() - 1;
  const auto i = static_cast<std::size_t>(std::log(v / options_.min_value) / log_gamma_);
  return std::min(i + 1, counts_.size() - 2);
}

double StreamingQuantiles::bucket_value(std::size_t i) const {
  if (i == 0) return options_.min_value;
  if (i == counts_.size() - 1) return options_.max_value;
  // Geometric midpoint of [lo * g^(i-1), lo * g^i): relative error <=
  // sqrt(g) - 1, approximately options_.relative_error.
  return options_.min_value * std::exp((static_cast<double>(i - 1) + 0.5) * log_gamma_);
}

void StreamingQuantiles::push(std::span<const double> samples) {
  for (const double v : samples) {
    VBR_DCHECK(std::isfinite(v), "non-finite sample pushed into StreamingQuantiles");
    if (count_ == 0) {
      min_ = v;
      max_ = v;
    } else {
      min_ = std::min(min_, v);
      max_ = std::max(max_, v);
    }
    ++counts_[bucket_index(v)];
    ++count_;
  }
}

void StreamingQuantiles::merge(const Sink& other) {
  const auto& peer = detail::merge_peer<StreamingQuantiles>(other, kind());
  VBR_ENSURE(peer.counts_.size() == counts_.size() &&
                 peer.options_.relative_error == options_.relative_error &&
                 peer.options_.min_value == options_.min_value &&
                 peer.options_.max_value == options_.max_value,
             "cannot merge quantile sketches with different configurations");
  if (peer.count_ == 0) return;
  if (count_ == 0) {
    min_ = peer.min_;
    max_ = peer.max_;
  } else {
    min_ = std::min(min_, peer.min_);
    max_ = std::max(max_, peer.max_);
  }
  for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += peer.counts_[i];
  count_ += peer.count_;
}

std::unique_ptr<Sink> StreamingQuantiles::clone_empty() const {
  return std::make_unique<StreamingQuantiles>(options_);
}

void StreamingQuantiles::save(std::ostream& out) const {
  io::write_string(out, kind());
  io::write_f64(out, options_.relative_error);
  io::write_f64(out, options_.min_value);
  io::write_f64(out, options_.max_value);
  io::write_u64(out, count_);
  io::write_f64(out, min_);
  io::write_f64(out, max_);
  io::write_u64_vector(out, counts_);
}

void StreamingQuantiles::restore(std::istream& in) {
  io::read_tag(in, kind(), kind());
  const double rel = io::read_f64(in, kind());
  const double lo = io::read_f64(in, kind());
  const double hi = io::read_f64(in, kind());
  if (rel != options_.relative_error || lo != options_.min_value ||
      hi != options_.max_value) {
    throw IoError("quantiles: serialized sketch configuration does not match this sink");
  }
  const std::uint64_t count = io::read_u64(in, kind());
  const double mn = io::read_f64(in, kind());
  const double mx = io::read_f64(in, kind());
  std::vector<std::uint64_t> counts =
      io::read_u64_vector(in, counts_.size(), kind());
  if (counts.size() != counts_.size()) {
    throw IoError("quantiles: serialized bucket count does not match this sketch");
  }
  count_ = static_cast<std::size_t>(count);
  min_ = mn;
  max_ = mx;
  counts_ = std::move(counts);
}

double StreamingQuantiles::quantile(double q) const {
  VBR_ENSURE(count_ >= 1, "quantile of an empty sketch");
  VBR_ENSURE(q >= 0.0 && q <= 1.0, "quantile order must lie in [0, 1]");
  if (q <= 0.0) return min_;
  if (q >= 1.0) return max_;
  const auto rank = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(count_)));
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    cumulative += counts_[i];
    if (cumulative >= rank) return std::clamp(bucket_value(i), min_, max_);
  }
  return max_;
}

double StreamingQuantiles::ccdf(double x) const {
  VBR_ENSURE(count_ >= 1, "ccdf of an empty sketch");
  std::uint64_t above = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] != 0 && bucket_value(i) > x) above += counts_[i];
  }
  return static_cast<double>(above) / static_cast<double>(count_);
}

StreamingQuantiles::Curve StreamingQuantiles::ccdf_curve(std::size_t points) const {
  VBR_ENSURE(count_ >= 1, "ccdf curve of an empty sketch");
  VBR_ENSURE(points >= 2, "ccdf curve needs at least two points");
  const double lo = std::max(min_, options_.min_value);
  const double hi = std::max(max_, lo * (1.0 + 1e-12));
  Curve curve;
  for (const double x : log_spaced(lo, hi, points)) {
    const double p = ccdf(x);
    if (p <= 0.0) continue;
    curve.x.push_back(x);
    curve.p.push_back(p);
  }
  return curve;
}

}  // namespace vbr::stream
