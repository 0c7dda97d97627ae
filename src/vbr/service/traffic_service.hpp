// TrafficService: one long-lived driver multiplexing N endless streaming
// VBR sources — the production shape of ROADMAP item 3, where the paper's
// model serves traffic for millions of users rather than emitting batch
// trace files.
//
// The service owns N StreamingSource states and advances them round-robin:
// advance_round(block) gives every active stream `block` more samples.
// Memory is O(scratch_chunk * block + sum of per-stream states) — blocks
// are generated into a bounded pool of scratch buffers that are recycled
// every chunk, never materialized for the whole fleet at once.
//
// Determinism: per-stream Rngs are derived from the seed by split() in
// stream order before any work is dispatched (the engine's guarantee), and
// every round folds results sequentially in stream order — generation is
// parallel, reduction is not — so the results hash, the sink state, and the
// queue state are bit-identical for any thread count.
//
// Feeds: each stream's block is pushed zero-copy (a span over the scratch
// buffer) into the service's streaming sink, and the per-frame aggregate
// across streams — the multiplexer arrival process of Section 5.1 — is
// offered to an optional net::FluidQueue. Aggregation uses one Kahan
// accumulator per frame offset so a million-term sum stays exact enough to
// reproduce across checkpoints (the compensation word is part of the
// state).
//
// Failure semantics: pause() freezes a stream (its Rng state is retained,
// resume() continues bit-exactly); retire() permanently frees the stream's
// state and its memory. save_state()/restore_state() serialize the complete
// service — every live stream, the sink, the queue, the hash, and the
// Kahan totals — and the VBRSRVC1 envelope wrapper in service_checkpoint.hpp
// makes that crash-safe on disk (SIGKILL + --resume reproduces the
// uninterrupted run's results_hash bit-for-bit; scripts/crash_soak.sh
// --service drills exactly this).
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <vector>

#include "vbr/common/checksum.hpp"
#include "vbr/common/math_util.hpp"
#include "vbr/model/vbr_source.hpp"
#include "vbr/net/fluid_queue.hpp"
#include "vbr/service/streaming_source.hpp"
#include "vbr/service/streaming_vbr.hpp"
#include "vbr/stream/moments.hpp"

namespace vbr::service {

enum class StreamStatus : std::uint8_t {
  kActive = 0,
  kPaused = 1,
  kRetired = 2,
  /// Frozen by the overload governor after a generation fault. Like
  /// kPaused the stream state is retained (and checkpointed), but the
  /// lifecycle API will not resume it — quarantine is the governor's
  /// verdict, not a scheduling decision.
  kQuarantined = 3,
};

/// Generation hook for the overload governor (service/governor.hpp): when
/// advance_round is given a governor, every active stream's block is
/// produced through generate() instead of a direct next_block() call.
/// Called concurrently for distinct streams, never concurrently for the
/// same stream. `out` is empty on entry; return false to quarantine the
/// stream after this round — `out` may then hold a deterministic partial
/// block (the samples emitted before the fault), which is still folded
/// into the stream's digest.
class StreamGovernor {
 public:
  virtual ~StreamGovernor() = default;
  virtual bool generate(std::size_t stream, StreamingSource& source, std::size_t block,
                        std::vector<double>& out) = 0;
};

/// Everything needed to reproduce a service run. Stream i's Rng is the
/// i-th split() of Rng(seed), exactly like engine::GenerationPlan sources.
struct ServiceConfig {
  std::size_t num_streams = 1;
  std::uint64_t seed = 0;
  model::VbrModelParams params;
  model::ModelVariant variant = model::ModelVariant::kFull;
  /// Streaming backend; davies-harte is rejected (no streaming form).
  model::GeneratorBackend backend = model::GeneratorBackend::kHosking;
  StreamingTuning tuning;
  /// Worker threads; 0 means hardware concurrency. Never affects output.
  std::size_t threads = 0;
  /// Frame interval for the multiplexer feed.
  double frame_seconds = 1.0 / 24.0;
  /// When capacity > 0, the per-frame aggregate is offered to a fluid
  /// queue with this service rate (bytes/second) and buffer (bytes).
  double queue_capacity_bytes_per_sec = 0.0;
  double queue_buffer_bytes = 0.0;
};

class TrafficService {
 public:
  /// Builds all num_streams stream states (this is the expensive, memory-
  /// proportional step). Throws vbr::InvalidArgument on a bad config.
  explicit TrafficService(const ServiceConfig& config);

  const ServiceConfig& config() const { return config_; }

  /// Advance every active stream by `block` samples, in stream order.
  /// With a governor, each block is produced through the governor's
  /// generate() hook and a false return quarantines that stream at the end
  /// of the round (its partial block, if any, is folded normally).
  void advance_round(std::size_t block, StreamGovernor* governor = nullptr);

  /// Freeze a stream; its state is retained and resume() continues the
  /// sample sequence bit-exactly where it stopped.
  void pause(std::size_t stream);
  void resume(std::size_t stream);
  /// Permanently drop a stream and free its state. Irreversible.
  void retire(std::size_t stream);
  StreamStatus status(std::size_t stream) const;
  /// Samples emitted by one live stream; throws for a retired stream.
  std::uint64_t stream_position(std::size_t stream) const;
  std::size_t active_streams() const;

  std::uint64_t rounds() const { return rounds_; }
  std::uint64_t total_samples() const { return total_samples_; }
  /// Total generated traffic volume (sum of every sample), Kahan-exact.
  double total_bytes() const { return total_bytes_.value(); }
  /// Run witness: each stream keeps an FNV-1a digest over the bit patterns
  /// of its own emitted samples, and results_hash() folds the per-stream
  /// digests in stream order. Depending only on what each stream emitted —
  /// never on how rounds interleaved the work — the hash is invariant to
  /// block size, thread count, and pause scheduling; the SIGKILL soak
  /// compares exactly this value.
  std::uint64_t results_hash() const;
  /// One stream's own FNV-1a digest (the per-stream term results_hash()
  /// folds). Lets the fault-isolation tests assert that healthy streams
  /// are bit-identical to a fault-free run, stream by stream.
  std::uint64_t stream_digest(std::size_t stream) const;

  const stream::StreamingMoments& moments() const { return moments_; }
  /// Null unless the config enables the queue feed.
  const net::FluidQueue* queue() const { return queue_.get(); }

  /// Serialize the complete service state (config fingerprint + counters +
  /// every live stream + sink + queue). restore_state() on a service built
  /// from the same config reproduces the run bit-for-bit. On restore
  /// failure (vbr::IoError) the service may hold partial state — discard
  /// it, as the campaign runner discards a half-restored sink chain.
  void save_state(std::ostream& out) const;
  void restore_state(std::istream& in);

 private:
  ServiceConfig config_;
  std::vector<std::unique_ptr<StreamingVbrSource>> streams_;
  std::vector<StreamStatus> status_;
  stream::StreamingMoments moments_;
  std::unique_ptr<net::FluidQueue> queue_;
  KahanSum total_bytes_;
  /// Per-stream FNV-1a states (raw digests; retired streams keep theirs).
  std::vector<std::uint64_t> stream_hash_;
  std::uint64_t rounds_ = 0;
  std::uint64_t total_samples_ = 0;
  /// Recycled per-chunk generation buffers (bounded scratch pool).
  std::vector<std::vector<double>> scratch_;
  /// Per-chunk quarantine verdicts from the governor hook (one byte per
  /// scratch slot; each worker writes only its own slot).
  std::vector<std::uint8_t> quarantine_pending_;
  /// Per-frame-offset aggregate accumulators, reset every round.
  std::vector<KahanSum> aggregate_;

  /// Fill scratch_[first, last) for chunk `base` without a governor: one
  /// lockstep group when the slots are kLockstepLanes active, compatible
  /// streams, else each active stream on its own.
  void generate_group(std::size_t base, std::size_t first, std::size_t last, std::size_t block);
};

}  // namespace vbr::service
