#include "vbr/service/traffic_service.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <exception>
#include <span>
#include <sstream>
#include <string>
#include <utility>

#include "vbr/common/error.hpp"
#include "vbr/common/serialize.hpp"
#include "vbr/engine/thread_pool.hpp"
#include "vbr/model/fgn_generator.hpp"
#include "vbr/service/streaming_hosking.hpp"

namespace vbr::service {
namespace {

/// Streams per chunk, the unit of a round's dispatch and of its merge. Fixed,
/// so the merge order depends on the fleet size alone, never on the thread
/// count or the lockstep width (every width divides it); a fleet under
/// 2 * kChunkStreams streams is one chunk and runs on one thread. Large
/// enough to amortize a chunk's partials and kernel window ((m + block) x G
/// doubles), small enough that the scratch pool (threads * kChunkStreams *
/// block doubles) stays a rounding error next to a million stream states.
constexpr std::size_t kChunkStreams = 1024;

/// One chunk's share of a round, folded in stream order within the chunk:
/// everything order-sensitive the round merges after the dispatch.
struct ChunkFold {
  std::vector<KahanSum> frames;  ///< per-frame-offset sums of the chunk's samples
  stream::StreamingMoments moments;
  KahanSum bytes;
  std::array<bool, kChunkStreams> quarantine{};
  std::exception_ptr error;  ///< what generating the chunk threw, if it did
};

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
  const std::size_t chunks = (n + kChunkStreams - 1) / kChunkStreams;
  const std::size_t workers = std::min(engine::resolve_thread_count(config_.threads), chunks);
  scratch_.resize(workers * kChunkStreams);
  std::vector<ChunkFold> folds(chunks);

  // Worker w claims chunks from one counter and generates each into scratch
  // slot w; a chunk folds only into its own partial, so no write is shared.
  std::atomic<std::size_t> next{0};
  engine::parallel_for_index(workers, workers, [&](std::size_t w, std::size_t /*worker*/) {
    std::vector<double>* const out = &scratch_[w * kChunkStreams];
    for (std::size_t c = next.fetch_add(1, std::memory_order_relaxed); c < chunks;
         c = next.fetch_add(1, std::memory_order_relaxed)) {
      ChunkFold& fold = folds[c];
      const std::size_t base = c * kChunkStreams;
      const std::size_t count = std::min(kChunkStreams, n - base);
      try {
        fold.frames.assign(block, KahanSum{});
        generate_groups(base, count, out, block, governor, fold.quarantine.data());
        for (std::size_t i = 0; i < count; ++i) {
          const std::span<const double> samples(out[i]);
          Fnv1a h(stream_hash_[base + i]);
          h.update(samples);
          stream_hash_[base + i] = h.digest();
          fold.moments.push(samples);
          for (std::size_t j = 0; j < samples.size(); ++j) {
            fold.bytes.add(samples[j]);
            fold.frames[j].add(samples[j]);
          }
        }
        // NOLINTNEXTLINE(vbr-silent-catch): kept, not swallowed: the merge below rethrows it.
      } catch (...) {
        fold.error = std::current_exception();
      }
    }
  });

  // Merge in chunk order, so the result depends on the fleet alone. A failed
  // round merges the chunks before the lowest failing one and rethrows that
  // chunk's exception; the rest stay generated and digested but unmerged.
  std::vector<KahanSum> aggregate(block);
  for (std::size_t c = 0; c < chunks; ++c) {
    const ChunkFold& fold = folds[c];
    if (fold.error) std::rethrow_exception(fold.error);
    const std::size_t base = c * kChunkStreams;
    for (std::size_t i = 0; i < std::min(kChunkStreams, n - base); ++i) {
      if (fold.quarantine[i]) status_[base + i] = StreamStatus::kQuarantined;
    }
    moments_.merge(fold.moments);
    total_bytes_.add(fold.bytes.value());
    total_samples_ += fold.moments.count();
    for (std::size_t j = 0; j < block; ++j) aggregate[j].add(fold.frames[j].value());
  }

  if (queue_) {
    for (std::size_t j = 0; j < block; ++j) {
      queue_->offer(aggregate[j].value(), config_.frame_seconds);
    }
  }
  ++rounds_;
}

void StreamGovernor::generate_lanes(std::span<const std::size_t> streams,
                                    std::span<StreamingVbrSource* const> lanes,
                                    std::size_t block,
                                    std::span<std::vector<double>* const> outs,
                                    std::vector<double>& /*window*/, std::span<bool> quarantine) {
  for (std::size_t g = 0; g < lanes.size(); ++g) {
    quarantine[g] = !generate(streams[g], *lanes[g], block, *outs[g]);
  }
}

void TrafficService::generate_groups(std::size_t first, std::size_t count,
                                     std::vector<double>* out, std::size_t block,
                                     StreamGovernor* governor, bool* quarantine) {
  const std::size_t lanes_per_group = lockstep_lanes();
  std::array<StreamingVbrSource*, kLockstepLanes> lanes{};
  std::array<std::vector<double>*, kLockstepLanes> outs{};
  std::array<std::size_t, kLockstepLanes> streams{};  // each lane's stream index
  std::array<bool, kLockstepLanes> lane_quarantine{};
  std::vector<double> window;  // the kernel's scratch, one per chunk task
  // The fleet is far past the last-level cache, so while one group computes
  // the state of later ones is prefetched, one pointer hop per group of
  // distance (each hop reads a pointer the previous hop fetched): source
  // objects three groups past the one computing, cores two, rings one.
  std::array<std::size_t, StreamingVbrSource::kPrefetchHops> fetched{};
  std::size_t i = 0;
  while (i < count) {
    for (std::size_t hop = 0; hop < fetched.size(); ++hop) {
      const std::size_t upto = std::min(i + (fetched.size() + 1 - hop) * lanes_per_group, count);
      for (std::size_t& k = fetched[hop]; k < upto; ++k) {
        if (const StreamingVbrSource* stream = streams_[first + k].get()) stream->prefetch(hop);
      }
    }
    // Up to G consecutive active streams compatible with the first;
    // paused and retired holes are skipped, an incompatible stream starts
    // the next group.
    std::size_t g = 0;
    for (; i < count && g < lanes_per_group; ++i) {
      out[i].clear();
      if (status_[first + i] != StreamStatus::kActive) continue;
      StreamingVbrSource* stream = streams_[first + i].get();
      if (g > 0 && !lanes[0]->lockstep_compatible(*stream)) break;
      lanes[g] = stream;
      outs[g] = &out[i];
      streams[g] = first + i;
      ++g;
    }
    if (g == 0) continue;
    if (governor == nullptr) {
      StreamingVbrSource::next_block_lanes(std::span(lanes.data(), g), block,
                                           std::span(outs.data(), g), window);
      continue;
    }
    governor->generate_lanes(std::span(streams.data(), g), std::span(lanes.data(), g), block,
                             std::span(outs.data(), g), window,
                             std::span(lane_quarantine.data(), g));
    for (std::size_t k = 0; k < g; ++k) quarantine[streams[k] - first] = lane_quarantine[k];
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

void TrafficService::append_header(std::string& out) const {
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
  // The queue and sink serialize through streams; their state is small.
  std::ostringstream feed(std::ios::binary);
  if (queue_) queue_->save(feed);
  moments_.save(feed);
  out.append(feed.view());
}

void TrafficService::append_stream(std::size_t stream, std::string& out) const {
  io::write_u8(out, static_cast<std::uint8_t>(status_[stream]));
  io::write_u64(out, stream_hash_[stream]);
  if (status_[stream] != StreamStatus::kRetired) streams_[stream]->append_state(out);
}

std::uint32_t TrafficService::save_state(std::ostream& out) const {
  std::string header;
  append_header(header);
  io::write_bytes(out, header.data(), header.size());
  std::uint32_t crc = crc32(header.data(), header.size());
  // The streams go out a batch of chunks at a time, one chunk per worker:
  // each worker serializes its chunk into its own piece and checksums it,
  // then the pieces are written in chunk order and their CRCs combined.
  const std::size_t n = streams_.size();
  const std::size_t chunks = (n + kChunkStreams - 1) / kChunkStreams;
  const std::size_t workers = std::min(engine::resolve_thread_count(config_.threads), chunks);
  std::vector<std::string> pieces(workers);  // reused by every batch
  std::vector<std::uint32_t> piece_crcs(workers);
  for (std::size_t first = 0; first < chunks; first += workers) {
    const std::size_t batch = std::min(workers, chunks - first);
    engine::parallel_for_index(batch, batch, [&](std::size_t w, std::size_t /*worker*/) {
      std::string& piece = pieces[w];
      piece.clear();
      const std::size_t base = (first + w) * kChunkStreams;
      for (std::size_t i = base; i < std::min(base + kChunkStreams, n); ++i) {
        append_stream(i, piece);
      }
      piece_crcs[w] = crc32(piece.data(), piece.size());
    });
    for (std::size_t w = 0; w < batch; ++w) {
      io::write_bytes(out, pieces[w].data(), pieces[w].size());
      crc = crc32_combine(crc, piece_crcs[w], pieces[w].size());
    }
  }
  return crc;
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
