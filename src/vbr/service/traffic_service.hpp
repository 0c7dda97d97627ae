// TrafficService: one long-lived driver multiplexing N endless streaming
// VBR sources — the production shape of ROADMAP item 3, where the paper's
// model serves traffic for millions of users rather than emitting batch
// trace files.
//
// The service owns N StreamingSource states and advances them round-robin:
// advance_round(block) gives every active stream `block` more samples.
// Memory is O(threads * chunk * block + sum of per-stream states), chunk =
// 1024 streams — blocks are generated into one chunk-sized scratch slot per
// worker thread, recycled every chunk, never materialized for the whole
// fleet at once. A checkpoint adds O(threads * chunk) record bytes: the
// save serializes one chunk per worker into a reused piece buffer, and the
// load parses straight from the file.
//
// Scheduling: a round is one engine::parallel_for_index dispatch with one
// task per worker; each worker claims chunks of 1024 consecutive streams
// from a shared counter. For each chunk it generates the streams, folds
// each stream's own FNV digest (the digest belongs to that stream alone),
// and folds the order-sensitive rest — quarantine marks, moments, the byte
// total and the per-frame aggregate — into a partial owned by that chunk.
// After the dispatch the caller merges the partials in chunk order.
//
// Determinism: per-stream Rngs are derived from the seed by split() in
// stream order before any work is dispatched (the engine's guarantee);
// each partial folds its streams in stream order and the merge runs in
// chunk order over a chunking fixed by the fleet size — generation is
// parallel, reduction order is not — so the results hash, the sink state,
// and the queue state are bit-identical for any thread count.
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
#include <span>
#include <string>
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
/// produced through it instead of a direct generation call. Both methods
/// are called concurrently for distinct streams, never concurrently for the
/// same stream. Each `out` is empty on entry; a false return (a true
/// `quarantine[g]`) quarantines the stream after this round — its `out` may
/// then hold a deterministic partial block (the samples emitted before the
/// fault), which is still folded into the stream's digest.
class StreamGovernor {
 public:
  virtual ~StreamGovernor() = default;
  virtual bool generate(std::size_t stream, StreamingSource& source, std::size_t block,
                        std::vector<double>& out) = 0;
  /// One lockstep group: lanes[g] is stream streams[g], the lanes are
  /// pairwise lockstep_compatible, and lane g's block goes to *outs[g].
  /// `window` is the kernel's scratch (StreamingVbrSource::next_block_lanes).
  /// The default runs generate() lane by lane.
  virtual void generate_lanes(std::span<const std::size_t> streams,
                              std::span<StreamingVbrSource* const> lanes, std::size_t block,
                              std::span<std::vector<double>* const> outs,
                              std::vector<double>& window, std::span<bool> quarantine);
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
  /// With a governor, each lockstep group's blocks are produced through the
  /// governor's generate_lanes() hook and a quarantine verdict takes effect
  /// at the end of the round (the partial block, if any, is folded
  /// normally). If a generation call throws, the round fails: every other
  /// chunk still generates its streams and digests, the chunks before the
  /// lowest throwing one are merged and the rest are not, and that chunk's
  /// exception is rethrown. The service then holds a partly advanced round
  /// (the same one on every run) — discard it or restore a checkpoint.
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

  /// Write the complete service state (config fingerprint + counters +
  /// queue + sink + every live stream's record) to `out` and return the
  /// CRC-32 of the bytes written. The stream records are serialized a chunk
  /// per worker into reused piece buffers, so beyond the fleet a save holds
  /// O(threads * chunk) bytes; the bytes do not depend on the thread count.
  /// restore_state() on a service built from the same config reproduces the
  /// run bit-for-bit. On restore failure (vbr::IoError) the service may
  /// hold partial state — discard it, as the campaign runner discards a
  /// half-restored sink chain.
  std::uint32_t save_state(std::ostream& out) const;
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
  /// Generation buffers: one chunk-sized slot per worker thread, recycled
  /// every round (bounded scratch pool).
  std::vector<std::vector<double>> scratch_;

  /// Fill out[0, count) with the blocks of streams [first, first + count)
  /// in lockstep groups of up to lockstep_lanes() consecutive active,
  /// compatible streams, holes skipped. With a governor each group runs
  /// through its generate_lanes(), which marks quarantine[0, count).
  void generate_groups(std::size_t first, std::size_t count, std::vector<double>* out,
                       std::size_t block, StreamGovernor* governor, bool* quarantine);
  /// Everything save_state() writes before the per-stream records.
  void append_header(std::string& out) const;
  /// One stream's status, digest and (unless retired) state record.
  void append_stream(std::size_t stream, std::string& out) const;
};

}  // namespace vbr::service
