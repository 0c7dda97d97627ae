#include "vbr/run/campaign.hpp"

#include <chrono>
#include <filesystem>
#include <optional>
#include <span>
#include <sstream>
#include <vector>

#include "vbr/common/checksum.hpp"
#include "vbr/common/error.hpp"
#include "vbr/common/rng.hpp"
#include "vbr/engine/thread_pool.hpp"
#include "vbr/run/checkpoint.hpp"
#include "vbr/run/fault_injection.hpp"
#include "vbr/stream/sink.hpp"
#include "vbr/trace/trace_stream.hpp"

namespace vbr::run {

CampaignResult run_campaign(const CampaignOptions& options, stream::Sink* tap) {
  const engine::GenerationPlan& plan = options.plan;
  VBR_ENSURE(plan.num_sources >= 1, "campaign needs at least one source");
  VBR_ENSURE(plan.frames_per_source >= 1, "campaign needs at least one frame per source");
  VBR_ENSURE(!options.trace_path.empty(), "campaign needs a trace path");

  const model::VbrVideoSourceModel model(plan.params);
  const std::uint64_t fingerprint =
      plan_fingerprint(plan, options.dt_seconds, options.unit);
  const std::uint64_t total_samples =
      static_cast<std::uint64_t>(plan.num_sources) * plan.frames_per_source;

  // Every source stream is derived up front in source order, exactly as the
  // in-memory engine does; a checkpoint replaces the tail of this vector
  // with the states recorded at the kill point (which are identical — the
  // split sequence depends only on the seed — but recording them keeps old
  // checkpoints valid even if the derivation ever changes).
  Rng master(plan.seed);
  std::vector<Rng> streams;
  streams.reserve(plan.num_sources);
  for (std::size_t i = 0; i < plan.num_sources; ++i) streams.push_back(master.split());

  CampaignResult result;
  std::size_t next_source = 0;
  Fnv1a hash;
  double bytes = 0.0;
  std::uint64_t transient_retries = 0;
  std::vector<engine::SourceFailure> failures;

  const bool checkpointing = !options.checkpoint_path.empty();
  trace::TraceWriterOptions writer_options;
  writer_options.durable = options.durable;
  std::optional<trace::ChunkedTraceWriter> writer;

  if (options.resume && checkpointing &&
      std::filesystem::exists(options.checkpoint_path)) {
    CheckpointData ckpt = load_checkpoint(options.checkpoint_path);
    if (ckpt.plan_fingerprint != fingerprint || ckpt.num_sources != plan.num_sources ||
        ckpt.frames_per_source != plan.frames_per_source || ckpt.seed != plan.seed) {
      throw IoError(options.checkpoint_path.string() +
                    ": checkpoint belongs to a different campaign plan");
    }
    next_source = static_cast<std::size_t>(ckpt.next_source);
    hash = Fnv1a(ckpt.trace_hash_state);
    bytes = ckpt.bytes;
    transient_retries = ckpt.transient_retries;
    failures = std::move(ckpt.failures);
    for (std::size_t i = 0; i < ckpt.stream_states.size(); ++i) {
      streams[next_source + i] = Rng::from_state(ckpt.stream_states[i]);
    }
    if (tap != nullptr) {
      if (!ckpt.has_sink) {
        throw IoError(options.checkpoint_path.string() +
                      ": checkpoint carries no sink state but a tap was provided");
      }
      std::istringstream sink_in(ckpt.sink_state, std::ios::binary);
      tap->restore(sink_in);
    }
    writer.emplace(trace::ChunkedTraceWriter::resume(
        options.trace_path, total_samples, ckpt.samples_written, writer_options));
    result.resumed = true;
    result.resumed_at_source = ckpt.next_source;
  } else {
    writer.emplace(options.trace_path, total_samples, options.dt_seconds,
                   options.unit, writer_options);
  }

  // Persist progress: trace first (flushed, so the kernel owns the bytes),
  // checkpoint second. A kill between the two leaves a trace ahead of its
  // checkpoint, which resume truncates; the reverse — a checkpoint claiming
  // samples the trace lost — cannot happen.
  const auto save_progress = [&] {
    if (!checkpointing) return;
    writer->flush();
    if (options.faults != nullptr) options.faults->maybe_throw("checkpoint");
    CheckpointData data;
    data.plan_fingerprint = fingerprint;
    data.num_sources = plan.num_sources;
    data.frames_per_source = plan.frames_per_source;
    data.seed = plan.seed;
    data.next_source = next_source;
    data.samples_written =
        static_cast<std::uint64_t>(next_source) * plan.frames_per_source;
    data.trace_hash_state = hash.digest();
    data.bytes = bytes;
    data.transient_retries = transient_retries;
    data.failures = failures;
    data.stream_states.reserve(plan.num_sources - next_source);
    for (std::size_t i = next_source; i < plan.num_sources; ++i) {
      data.stream_states.push_back(streams[i].state());
    }
    if (tap != nullptr) {
      std::ostringstream sink_out(std::ios::binary);
      tap->save(sink_out);
      data.has_sink = true;
      data.sink_state = sink_out.str();
    }
    save_checkpoint(options.checkpoint_path, data, options.durable);
  };

  const std::size_t threads = engine::resolve_thread_count(plan.threads);
  // One per worker, and one batch of trace buffers, for the whole campaign:
  // every batch reuses the generators' FFT buffers and the trace memory
  // instead of faulting in fresh pages per source.
  std::vector<model::Workspace> workspaces(threads);
  engine::SourceBatch batch;
  std::vector<double> zeros;  // quarantine padding, allocated on first use
  // Runs on this thread, in source order, beside the generation of later
  // sources: merge into the tap, append to the trace, fold into the hash.
  // A quarantined source keeps its trace slot as zeros (the binary header's
  // declared count is a promise) but adds nothing to the statistics.
  const auto commit = [&](const engine::FinishedSource& source) {
    std::span<const double> samples = source.trace;
    if (samples.empty()) {
      if (zeros.empty()) zeros.assign(plan.frames_per_source, 0.0);
      samples = zeros;
    } else if (source.sink != nullptr) {
      tap->merge(*source.sink);
    }
    writer->append(samples);
    hash.update(samples);
    bytes += source.total;
  };
  const auto t0 = std::chrono::steady_clock::now();
  while (next_source < plan.num_sources) {
    const std::size_t remaining = plan.num_sources - next_source;
    const std::size_t batch_size =
        options.checkpoint_every_sources == 0
            ? remaining
            : std::min(options.checkpoint_every_sources, remaining);
    engine::generate_source_batch(
        model, std::span<const Rng>(streams).subspan(next_source, batch_size),
        next_source, plan.frames_per_source, plan.variant, plan.resolved_backend(),
        threads, tap, options.failure, workspaces, batch, commit);
    for (auto& f : batch.failures) failures.push_back(std::move(f));
    transient_retries += batch.transient_retries;
    next_source += batch_size;
    save_progress();
  }
  writer->finish();
  const auto t1 = std::chrono::steady_clock::now();

  result.stats.sources = plan.num_sources;
  result.stats.frames =
      (plan.num_sources - failures.size()) * plan.frames_per_source;
  result.stats.bytes = bytes;
  result.stats.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  result.stats.threads_used = threads;
  result.stats.failures = std::move(failures);
  result.stats.transient_retries = transient_retries;
  result.trace_hash = hash.digest();
  return result;
}

}  // namespace vbr::run
