#include "vbr/service/traffic_service.hpp"

#include <algorithm>
#include <array>
#include <span>
#include <utility>

#include "vbr/common/error.hpp"
#include "vbr/common/serialize.hpp"
#include "vbr/engine/thread_pool.hpp"
#include "vbr/model/fgn_generator.hpp"
#include "vbr/service/streaming_hosking.hpp"

namespace vbr::service {
namespace {

/// Streams generated per scratch cycle: large enough to amortize dispatch,
/// small enough that the scratch pool (kChunkStreams * block doubles) stays
/// a rounding error next to a million stream states.
constexpr std::size_t kChunkStreams = 1024;

}  // namespace

TrafficService::TrafficService(const ServiceConfig& config) : config_(config) {
  VBR_ENSURE(config.num_streams >= 1, "service needs at least one stream");
  VBR_ENSURE(config.frame_seconds > 0.0, "frame interval must be positive");
  VBR_ENSURE(config.queue_capacity_bytes_per_sec >= 0.0,
             "queue capacity must be non-negative");
  if (config.queue_capacity_bytes_per_sec > 0.0) {
    VBR_ENSURE(config.queue_buffer_bytes > 0.0,
               "a queue feed needs a positive buffer");
    queue_ = std::make_unique<net::FluidQueue>(config.queue_capacity_bytes_per_sec,
                                               config.queue_buffer_bytes);
  }

  // The engine's determinism guarantee: derive every per-stream Rng from
  // the master seed by split(), in stream order, before building anything.
  Rng master(config.seed);
  std::vector<Rng> stream_rngs;
  stream_rngs.reserve(config.num_streams);
  for (std::size_t i = 0; i < config.num_streams; ++i) stream_rngs.push_back(master.split());

  streams_.reserve(config.num_streams);
  for (std::size_t i = 0; i < config.num_streams; ++i) {
    streams_.push_back(std::make_unique<StreamingVbrSource>(
        config.params, config.variant, config.backend, config.tuning, stream_rngs[i]));
  }
  status_.assign(config.num_streams, StreamStatus::kActive);
  stream_hash_.assign(config.num_streams, Fnv1a::kOffsetBasis);
}

std::uint64_t TrafficService::results_hash() const {
  Fnv1a combined;
  for (const std::uint64_t digest : stream_hash_) combined.update(&digest, sizeof digest);
  return combined.digest();
}

std::uint64_t TrafficService::stream_digest(std::size_t stream) const {
  VBR_ENSURE(stream < stream_hash_.size(), "stream index out of range");
  return stream_hash_[stream];
}

void TrafficService::advance_round(std::size_t block, StreamGovernor* governor) {
  VBR_ENSURE(block >= 1, "round block must be at least 1");
  const std::size_t n = streams_.size();
  const std::size_t threads =
      std::min(engine::resolve_thread_count(config_.threads), kChunkStreams);

  aggregate_.assign(block, KahanSum{});
  scratch_.resize(std::min(n, kChunkStreams));
  quarantine_pending_.assign(scratch_.size(), 0);

  for (std::size_t base = 0; base < n; base += kChunkStreams) {
    const std::size_t count = std::min(kChunkStreams, n - base);
    // Parallel generation: a worker writes only the scratch slots (and
    // quarantine bytes) of the streams it was given; scheduling decides who
    // computes each stream, never what is computed. Ungoverned, a task is
    // kLockstepLanes consecutive streams; the governor's faults and retries
    // are per stream, so governed tasks are single streams, and its hook
    // catches every stream exception internally.
    if (governor == nullptr) {
      const std::size_t groups = (count + kLockstepLanes - 1) / kLockstepLanes;
      engine::parallel_for_index(groups, std::min(threads, groups), [&](std::size_t t) {
        const std::size_t first = t * kLockstepLanes;
        generate_group(base, first, std::min(first + kLockstepLanes, count), block);
      });
    } else {
      engine::parallel_for_index(count, std::min(threads, count), [&](std::size_t i) {
        std::vector<double>& buf = scratch_[i];
        buf.clear();
        quarantine_pending_[i] = 0;
        if (status_[base + i] != StreamStatus::kActive) return;
        if (!governor->generate(base + i, *streams_[base + i], block, buf)) {
          quarantine_pending_[i] = 1;
        }
      });
    }
    // Sequential fold in stream order: hash, sink, totals, aggregate. This
    // is the only place round results are observed, so thread count can
    // never reorder the reduction.
    for (std::size_t i = 0; i < count; ++i) {
      if (quarantine_pending_[i] != 0) status_[base + i] = StreamStatus::kQuarantined;
      const std::vector<double>& buf = scratch_[i];
      if (buf.empty()) continue;
      const std::span<const double> samples(buf);
      Fnv1a h(stream_hash_[base + i]);
      h.update(samples);
      stream_hash_[base + i] = h.digest();
      moments_.push(samples);
      for (std::size_t j = 0; j < samples.size(); ++j) {
        total_bytes_.add(samples[j]);
        aggregate_[j].add(samples[j]);
      }
      total_samples_ += samples.size();
    }
  }

  if (queue_) {
    for (std::size_t j = 0; j < block; ++j) {
      queue_->offer(aggregate_[j].value(), config_.frame_seconds);
    }
  }
  ++rounds_;
}

void TrafficService::generate_group(std::size_t base, std::size_t first, std::size_t last,
                                    std::size_t block) {
  std::array<StreamingVbrSource*, kLockstepLanes> lanes{};
  std::array<std::vector<double>*, kLockstepLanes> outs{};
  bool lockstep = last - first == kLockstepLanes;
  for (std::size_t i = first; i < last; ++i) {
    scratch_[i].clear();
    quarantine_pending_[i] = 0;
    lanes[i - first] = streams_[base + i].get();
    outs[i - first] = &scratch_[i];
    lockstep = lockstep && status_[base + i] == StreamStatus::kActive &&
               lanes[0]->lockstep_compatible(*lanes[i - first]);
  }
  if (lockstep) {
    StreamingVbrSource::next_block_lockstep<kLockstepLanes>(lanes, block, outs);
    return;
  }
  for (std::size_t i = first; i < last; ++i) {
    if (status_[base + i] == StreamStatus::kActive) {
      streams_[base + i]->next_block(block, scratch_[i]);
    }
  }
}

void TrafficService::pause(std::size_t stream) {
  VBR_ENSURE(stream < status_.size(), "stream index out of range");
  VBR_ENSURE(status_[stream] == StreamStatus::kActive, "only an active stream can pause");
  status_[stream] = StreamStatus::kPaused;
}

void TrafficService::resume(std::size_t stream) {
  VBR_ENSURE(stream < status_.size(), "stream index out of range");
  VBR_ENSURE(status_[stream] == StreamStatus::kPaused, "only a paused stream can resume");
  status_[stream] = StreamStatus::kActive;
}

void TrafficService::retire(std::size_t stream) {
  VBR_ENSURE(stream < status_.size(), "stream index out of range");
  VBR_ENSURE(status_[stream] != StreamStatus::kRetired, "stream already retired");
  status_[stream] = StreamStatus::kRetired;
  streams_[stream].reset();  // reclaim the per-stream state immediately
}

StreamStatus TrafficService::status(std::size_t stream) const {
  VBR_ENSURE(stream < status_.size(), "stream index out of range");
  return status_[stream];
}

std::uint64_t TrafficService::stream_position(std::size_t stream) const {
  VBR_ENSURE(stream < status_.size(), "stream index out of range");
  VBR_ENSURE(status_[stream] != StreamStatus::kRetired, "retired streams have no position");
  return streams_[stream]->position();
}

std::size_t TrafficService::active_streams() const {
  std::size_t active = 0;
  for (const StreamStatus s : status_) active += (s == StreamStatus::kActive) ? 1 : 0;
  return active;
}

void TrafficService::save_state(std::ostream& out) const {
  io::write_string(out, "service");
  // Config fingerprint: everything that shapes the sample sequence or the
  // feed state. `threads` is deliberately absent — it never affects output.
  io::write_u64(out, config_.num_streams);
  io::write_u64(out, config_.seed);
  io::write_u8(out, static_cast<std::uint8_t>(config_.variant));
  io::write_string(out, model::generator_backend_name(config_.backend));
  io::write_f64(out, config_.params.marginal.mu_gamma);
  io::write_f64(out, config_.params.marginal.sigma_gamma);
  io::write_f64(out, config_.params.marginal.tail_slope);
  io::write_f64(out, config_.params.hurst);
  io::write_u64(out, config_.tuning.hosking_horizon);
  io::write_u64(out, config_.tuning.paxson_window);
  io::write_u64(out, config_.tuning.paxson_overlap);
  io::write_f64(out, config_.tuning.onoff_mean_active_sessions);
  io::write_f64(out, config_.tuning.onoff_min_session_frames);
  io::write_f64(out, config_.frame_seconds);
  io::write_f64(out, config_.queue_capacity_bytes_per_sec);
  io::write_f64(out, config_.queue_buffer_bytes);

  io::write_u64(out, rounds_);
  io::write_u64(out, total_samples_);
  io::write_f64(out, total_bytes_.value());
  io::write_f64(out, total_bytes_.compensation());
  io::write_u8(out, queue_ ? 1 : 0);
  if (queue_) queue_->save(out);
  moments_.save(out);
  for (std::size_t i = 0; i < streams_.size(); ++i) {
    io::write_u8(out, static_cast<std::uint8_t>(status_[i]));
    io::write_u64(out, stream_hash_[i]);
    if (status_[i] != StreamStatus::kRetired) streams_[i]->save(out);
  }
}

void TrafficService::restore_state(std::istream& in) {
  io::read_tag(in, "service", "TrafficService::restore");
  const std::uint64_t num_streams = io::read_u64(in, "TrafficService::restore");
  const std::uint64_t seed = io::read_u64(in, "TrafficService::restore");
  const std::uint8_t variant = io::read_u8(in, "TrafficService::restore");
  const std::string backend = io::read_string(in, 64, "TrafficService::restore");
  const double mu = io::read_f64(in, "TrafficService::restore");
  const double sigma = io::read_f64(in, "TrafficService::restore");
  const double tail = io::read_f64(in, "TrafficService::restore");
  const double hurst = io::read_f64(in, "TrafficService::restore");
  const std::uint64_t horizon = io::read_u64(in, "TrafficService::restore");
  const std::uint64_t window = io::read_u64(in, "TrafficService::restore");
  const std::uint64_t overlap = io::read_u64(in, "TrafficService::restore");
  const double onoff_mean = io::read_f64(in, "TrafficService::restore");
  const double onoff_min = io::read_f64(in, "TrafficService::restore");
  const double frame_seconds = io::read_f64(in, "TrafficService::restore");
  const double queue_capacity = io::read_f64(in, "TrafficService::restore");
  const double queue_buffer = io::read_f64(in, "TrafficService::restore");
  if (num_streams != config_.num_streams || seed != config_.seed ||
      variant != static_cast<std::uint8_t>(config_.variant) ||
      backend != model::generator_backend_name(config_.backend) ||
      mu != config_.params.marginal.mu_gamma || sigma != config_.params.marginal.sigma_gamma ||
      tail != config_.params.marginal.tail_slope || hurst != config_.params.hurst ||
      horizon != config_.tuning.hosking_horizon || window != config_.tuning.paxson_window ||
      overlap != config_.tuning.paxson_overlap ||
      onoff_mean != config_.tuning.onoff_mean_active_sessions ||
      onoff_min != config_.tuning.onoff_min_session_frames ||
      frame_seconds != config_.frame_seconds ||
      queue_capacity != config_.queue_capacity_bytes_per_sec ||
      queue_buffer != config_.queue_buffer_bytes) {
    throw IoError("TrafficService::restore: checkpoint belongs to a different config");
  }

  const std::uint64_t rounds = io::read_u64(in, "TrafficService::restore");
  const std::uint64_t total_samples = io::read_u64(in, "TrafficService::restore");
  const double bytes_sum = io::read_f64(in, "TrafficService::restore");
  const double bytes_comp = io::read_f64(in, "TrafficService::restore");
  const std::uint8_t has_queue = io::read_u8(in, "TrafficService::restore");
  if (has_queue > 1 || (has_queue == 1) != (queue_ != nullptr)) {
    throw IoError("TrafficService::restore: queue presence mismatch");
  }
  if (queue_) queue_->restore(in);
  moments_.restore(in);
  for (std::size_t i = 0; i < config_.num_streams; ++i) {
    const std::uint8_t status = io::read_u8(in, "TrafficService::restore");
    if (status > static_cast<std::uint8_t>(StreamStatus::kQuarantined)) {
      throw IoError("TrafficService::restore: corrupt stream status");
    }
    const std::uint64_t stream_hash = io::read_u64(in, "TrafficService::restore");
    const auto s = static_cast<StreamStatus>(status);
    if (s == StreamStatus::kRetired) {
      streams_[i].reset();
    } else {
      if (!streams_[i]) {
        // This service already retired the stream, but the checkpoint says
        // it is live: rebuild it in construction order so restore lands on
        // the exact saved state. Re-deriving one split chain is cheap next
        // to the restore itself.
        Rng master(config_.seed);
        Rng stream_rng;
        for (std::size_t k = 0; k <= i; ++k) stream_rng = master.split();
        streams_[i] = std::make_unique<StreamingVbrSource>(
            config_.params, config_.variant, config_.backend, config_.tuning, stream_rng);
      }
      streams_[i]->restore(in);
    }
    status_[i] = s;
    stream_hash_[i] = stream_hash;
  }
  rounds_ = rounds;
  total_samples_ = total_samples;
  total_bytes_ = KahanSum::from_parts(bytes_sum, bytes_comp);
}

}  // namespace vbr::service
