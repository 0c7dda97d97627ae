#include "vbr/service/streaming_onoff.hpp"

#include <algorithm>
#include <cmath>
#include <functional>

#include "vbr/common/error.hpp"
#include "vbr/common/serialize.hpp"

namespace vbr::service {
namespace {

// Session-count ceiling for checkpoint reads: the live set is Poisson
// around mean_active_sessions with a heavy-tailed straggler fringe, so two
// decades of headroom rejects forged counts without ever tripping on a
// legitimate state.
std::uint64_t heap_read_cap(double mean_active_sessions) {
  const double cap = 100.0 * mean_active_sessions + 4096.0;
  return static_cast<std::uint64_t>(std::min(cap, 1e12));
}

}  // namespace

StreamingOnOff::StreamingOnOff(const model::OnOffOptions& options, Rng& parent)
    : options_(options), rng_(parent.split()) {
  VBR_ENSURE(options.hurst > 0.5 && options.hurst < 1.0,
             "on/off superposition needs H in (0.5, 1)");
  VBR_ENSURE(options.mean_active_sessions > 0.0, "mean active sessions must be positive");
  VBR_ENSURE(options.min_session_frames > 0.0, "minimum session duration must be positive");
  VBR_ENSURE(options.variance > 0.0, "variance must be positive");

  // Same constants as onoff_aggregate (header note there derives them).
  alpha_ = 3.0 - 2.0 * options.hurst;
  k_ = options.min_session_frames;
  const double mu = alpha_ * k_ / (alpha_ - 1.0);
  lambda_ = options.mean_active_sessions / mu;
  mean_count_ = lambda_ * mu;
  const double tail_a = lambda_ * std::pow(k_, alpha_) / (alpha_ - 1.0);
  const double rho1 = std::pow(2.0, 2.0 * options.hurst - 1.0) - 1.0;
  const double total_var = tail_a / rho1;
  noise_sd_ = std::sqrt(std::max(0.0, total_var - mean_count_));
  scale_ = std::sqrt(options.variance) / std::sqrt(total_var);

  // Equilibrium start, batch draw phases (1)-(2): Poisson(lambda mu)
  // in-progress sessions, each with a forward-recurrence residual (> 0, so
  // each is active at frame 0), then the first arrival gap.
  std::size_t initial = 0;
  double acc = rng_.exponential(1.0);
  while (acc <= options.mean_active_sessions) {
    ++initial;
    // Bounded Poisson-count draw (~mean_active_sessions terms, once per
    // stream), kept arithmetically identical to the batch equilibrium
    // construction in onoff_source.cpp.
    // NOLINTNEXTLINE(vbr-naive-accumulation): bounded one-shot count draw
    acc += rng_.exponential(1.0);
  }
  heap_.reserve(initial + 16);
  for (std::size_t i = 0; i < initial; ++i) {
    heap_.push_back(model::pareto_forward_recurrence(k_, alpha_, rng_));
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
  }
  next_arrival_ = rng_.exponential(lambda_);
}

double StreamingOnOff::next_sample() {
  const auto now = static_cast<double>(position_);
  // A session on [s, e) is active at integer frame j iff s <= j < e (the
  // batch difference-array marks exactly ceil(s) .. ceil(e) - 1).
  while (!heap_.empty() && heap_.front() <= now) {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
    heap_.pop_back();
  }
  while (next_arrival_ <= now) {
    const double start = next_arrival_;
    const double end = start + rng_.pareto(k_, alpha_);
    if (end > now) {
      heap_.push_back(end);
      std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
    }
    next_arrival_ = start + rng_.exponential(lambda_);
  }
  const auto count = static_cast<double>(heap_.size());
  ++position_;
  return scale_ * (count - mean_count_ + noise_sd_ * rng_.normal());
}

void StreamingOnOff::next_block(std::size_t n, std::vector<double>& out) {
  out.reserve(out.size() + n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(next_sample());
}

void StreamingOnOff::append_state(std::string& out) const {
  io::write_string(out, kind());
  io::write_f64(out, options_.hurst);
  io::write_f64(out, options_.mean_active_sessions);
  io::write_f64(out, options_.min_session_frames);
  io::write_f64(out, options_.variance);
  io::write_u64(out, position_);
  io::write_f64(out, next_arrival_);
  rng_.save(out);
  io::write_f64_vector(out, heap_);
}

void StreamingOnOff::restore(std::istream& in) {
  io::read_tag(in, kind(), "StreamingOnOff::restore");
  const double hurst = io::read_f64(in, "StreamingOnOff::restore");
  const double mean_active = io::read_f64(in, "StreamingOnOff::restore");
  const double min_session = io::read_f64(in, "StreamingOnOff::restore");
  const double variance = io::read_f64(in, "StreamingOnOff::restore");
  if (hurst != options_.hurst || mean_active != options_.mean_active_sessions ||
      min_session != options_.min_session_frames || variance != options_.variance) {
    throw IoError("StreamingOnOff::restore: configuration mismatch");
  }
  const std::uint64_t position = io::read_u64(in, "StreamingOnOff::restore");
  const double next_arrival = io::read_f64(in, "StreamingOnOff::restore");
  if (!std::isfinite(next_arrival) || next_arrival < 0.0) {
    throw IoError("StreamingOnOff::restore: corrupt arrival clock");
  }
  Rng rng;
  rng.restore(in);
  std::vector<double> heap = io::read_f64_vector(
      in, heap_read_cap(options_.mean_active_sessions), "StreamingOnOff::restore sessions");
  for (const double end : heap) {
    if (!std::isfinite(end) || end <= 0.0) {
      throw IoError("StreamingOnOff::restore: corrupt session end time");
    }
  }
  if (!std::is_heap(heap.begin(), heap.end(), std::greater<>{})) {
    throw IoError("StreamingOnOff::restore: session set is not a heap");
  }
  position_ = position;
  next_arrival_ = next_arrival;
  rng_ = rng;
  heap_ = std::move(heap);
}

}  // namespace vbr::service
