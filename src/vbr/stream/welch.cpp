#include "vbr/stream/welch.hpp"

#include <algorithm>
#include <cmath>
#include <complex>
#include <numbers>

#include "vbr/common/error.hpp"
#include "vbr/common/fft.hpp"
#include "vbr/common/math_util.hpp"
#include "vbr/common/serialize.hpp"

namespace vbr::stream {

StreamingWelchPeriodogram::StreamingWelchPeriodogram(const WelchOptions& options)
    : StreamingWelchPeriodogram(options, nullptr) {}

StreamingWelchPeriodogram::StreamingWelchPeriodogram(const WelchOptions& options,
                                                     std::shared_ptr<const Window> window)
    : options_(options), window_(std::move(window)) {
  const std::size_t s = options_.segment_size;
  VBR_ENSURE(s >= 8 && is_power_of_two(s), "Welch segment size must be a power of two >= 8");
  if (window_ == nullptr) {
    auto built = std::make_shared<Window>();
    built->weights.resize(s);
    KahanSum window_power;
    for (std::size_t i = 0; i < s; ++i) {
      double w = 1.0;
      if (options_.hann_window) {
        w = 0.5 * (1.0 - std::cos(2.0 * std::numbers::pi * static_cast<double>(i) /
                                  static_cast<double>(s)));
      }
      built->weights[i] = w;
      window_power.add(w * w);
    }
    built->norm = 1.0 / (2.0 * std::numbers::pi * window_power.value());
    window_ = std::move(built);
  }
  buffer_.assign(s, 0.0);
  power_sum_.assign((s - 1) / 2, 0.0);
}

void StreamingWelchPeriodogram::flush_segment() {
  const std::size_t s = options_.segment_size;
  // Per-segment mean removal (Welch's detrend); the global-mean batch
  // periodogram differs only in the lowest ordinate's leakage.
  const double mean = kahan_total(buffer_) / static_cast<double>(s);
  const std::vector<double>& weights = window_->weights;
  segment_.resize(s);
  for (std::size_t i = 0; i < s; ++i) segment_[i] = (buffer_[i] - mean) * weights[i];
  const auto spectrum = rfft(segment_);
  for (std::size_t k = 0; k < power_sum_.size(); ++k) {
    const double p = std::norm(spectrum[k + 1]) * window_->norm;
    VBR_DCHECK(std::isfinite(p), "non-finite Welch ordinate");
    // NOLINTNEXTLINE(vbr-naive-accumulation): ordinates are nonnegative (no cancellation) and power_sum_ is snapshot-serialized state; a compensation vector would change the on-disk format and the merge identity.
    power_sum_[k] += p;
  }
  ++segments_;
  buffer_fill_ = 0;
}

void StreamingWelchPeriodogram::push(std::span<const double> samples) {
  const std::size_t s = options_.segment_size;
  while (!samples.empty()) {
    const auto run = samples.first(std::min(samples.size(), s - buffer_fill_));
    for (const double x : run) {
      VBR_DCHECK(std::isfinite(x), "non-finite sample pushed into Welch periodogram");
    }
    std::copy(run.begin(), run.end(), buffer_.data() + buffer_fill_);
    buffer_fill_ += run.size();
    n_ += run.size();
    samples = samples.subspan(run.size());
    if (buffer_fill_ == s) flush_segment();
  }
}

void StreamingWelchPeriodogram::merge(const Sink& other) {
  const auto& peer = detail::merge_peer<StreamingWelchPeriodogram>(other, kind());
  VBR_ENSURE(peer.options_.segment_size == options_.segment_size &&
                 peer.options_.hann_window == options_.hann_window,
             "cannot merge Welch sinks with different configurations");
  // Completed segments add exactly; our open partial segment (if any) is
  // discarded at the boundary and the peer's stays open.
  // NOLINTNEXTLINE(vbr-naive-accumulation): one nonnegative term per peer; same serialized-state constraint as flush_segment.
  for (std::size_t k = 0; k < power_sum_.size(); ++k) power_sum_[k] += peer.power_sum_[k];
  segments_ += peer.segments_;
  buffer_ = peer.buffer_;
  buffer_fill_ = peer.buffer_fill_;
  n_ += peer.n_;
}

std::unique_ptr<Sink> StreamingWelchPeriodogram::clone_empty() const {
  return std::make_unique<StreamingWelchPeriodogram>(options_, window_);
}

void StreamingWelchPeriodogram::save(std::ostream& out) const {
  io::write_string(out, kind());
  io::write_u64(out, options_.segment_size);
  io::write_u8(out, options_.hann_window ? 1 : 0);
  io::write_u64(out, n_);
  io::write_u64(out, segments_);
  io::write_u64(out, buffer_fill_);
  io::write_f64_vector(out, buffer_);
  io::write_f64_vector(out, power_sum_);
}

void StreamingWelchPeriodogram::restore(std::istream& in) {
  io::read_tag(in, kind(), kind());
  const std::uint64_t segment_size = io::read_u64(in, kind());
  const std::uint8_t hann = io::read_u8(in, kind());
  if (segment_size != options_.segment_size || (hann != 0) != options_.hann_window) {
    throw IoError("welch: serialized configuration does not match this sink");
  }
  const std::uint64_t n = io::read_u64(in, kind());
  const std::uint64_t segments = io::read_u64(in, kind());
  const std::uint64_t fill = io::read_u64(in, kind());
  if (fill >= options_.segment_size) {
    throw IoError("welch: serialized partial-segment fill out of range");
  }
  std::vector<double> buffer = io::read_f64_vector(in, options_.segment_size, kind());
  std::vector<double> power = io::read_f64_vector(in, power_sum_.size(), kind());
  if (buffer.size() != options_.segment_size || power.size() != power_sum_.size()) {
    throw IoError("welch: serialized buffer sizes do not match this configuration");
  }
  n_ = static_cast<std::size_t>(n);
  segments_ = static_cast<std::size_t>(segments);
  buffer_fill_ = static_cast<std::size_t>(fill);
  buffer_ = std::move(buffer);
  power_sum_ = std::move(power);
}

stats::Periodogram StreamingWelchPeriodogram::result() const {
  VBR_ENSURE(segments_ >= 1, "Welch periodogram needs at least one full segment");
  stats::Periodogram pg;
  pg.frequency.reserve(power_sum_.size());
  pg.power.reserve(power_sum_.size());
  const auto s = static_cast<double>(options_.segment_size);
  for (std::size_t k = 0; k < power_sum_.size(); ++k) {
    pg.frequency.push_back(2.0 * std::numbers::pi * static_cast<double>(k + 1) / s);
    pg.power.push_back(power_sum_[k] / static_cast<double>(segments_));
  }
  return pg;
}

}  // namespace vbr::stream
