#include "vbr/engine/engine.hpp"

#include <chrono>
#include <memory>
#include <thread>

#include "vbr/common/error.hpp"
#include "vbr/common/math_util.hpp"
#include "vbr/engine/thread_pool.hpp"
#include "vbr/model/fgn_generator.hpp"
#include "vbr/stream/sink.hpp"

namespace vbr::engine {

model::GeneratorBackend GenerationPlan::resolved_backend() const {
  return generator.empty() ? backend : model::generator_backend_from_name(generator);
}

std::vector<double> MultiSourceTrace::aggregate() const {
  // Quarantined sources leave empty slots; they contribute nothing to the
  // multiplexer feed, so size the total from the surviving sources.
  std::size_t frames = 0;
  for (const auto& source : sources) frames = std::max(frames, source.size());
  std::vector<double> total(frames, 0.0);
  for (const auto& source : sources) {
    for (std::size_t f = 0; f < source.size(); ++f) total[f] += source[f];
  }
  return total;
}

namespace {

/// Outcome of the per-source retry loop, filled into a slot owned by one
/// task index so the parallel phase needs no shared mutable state.
struct SourceOutcome {
  SourceFailure failure;  ///< meaningful only when failed
  bool failed = false;
  std::size_t transient_retries = 0;
};

}  // namespace

SourceBatch generate_source_batch(const model::VbrVideoSourceModel& model,
                                  std::span<const Rng> streams,
                                  std::size_t first_index,
                                  std::size_t frames_per_source,
                                  model::ModelVariant variant,
                                  model::GeneratorBackend backend,
                                  std::size_t threads,
                                  const stream::Sink* tap,
                                  const FailurePolicy& policy,
                                  std::span<model::Workspace> workspaces) {
  VBR_ENSURE(frames_per_source >= 1, "batch needs at least one frame per source");
  VBR_ENSURE(policy.max_attempts >= 1, "failure policy needs at least one attempt");

  const std::size_t count = streams.size();
  SourceBatch batch;
  batch.traces.resize(count);
  if (tap != nullptr) batch.sinks.resize(count);
  std::vector<SourceOutcome> outcomes(count);
  if (count == 0) return batch;

  threads = std::min(resolve_thread_count(threads), count);
  std::vector<model::Workspace> own;
  if (workspaces.empty()) {
    own.resize(threads);
    workspaces = own;
  }
  VBR_ENSURE(workspaces.size() >= threads, "batch needs one workspace per worker");
  parallel_for_index(count, threads, [&](std::size_t i, std::size_t worker) {
    const auto start = std::chrono::steady_clock::now();
    const auto elapsed = [&] {
      return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
    };
    for (std::size_t attempt = 1;; ++attempt) {
      try {
        // A fresh copy of the pre-derived stream every attempt: a source
        // that needed three tries is bit-identical to one that succeeded
        // immediately.
        Rng rng = streams[i];
        std::vector<double> trace(frames_per_source);
        model.generate(trace, rng, variant, backend, workspaces[worker]);
        std::unique_ptr<stream::Sink> sink;
        if (tap != nullptr) {
          sink = tap->clone_empty();
          sink->push(trace);
        }
        batch.traces[i] = std::move(trace);
        if (tap != nullptr) batch.sinks[i] = std::move(sink);
        return;
      } catch (const TransientError& e) {
        const bool out_of_attempts = attempt >= policy.max_attempts;
        const bool out_of_time = policy.source_deadline_seconds > 0.0 &&
                                 elapsed() >= policy.source_deadline_seconds;
        if (out_of_attempts || out_of_time) {
          auto& out = outcomes[i];
          out.failed = true;
          out.failure.source_index = first_index + i;
          out.failure.attempts = attempt;
          out.failure.error =
              out_of_time && !out_of_attempts
                  ? std::string("source deadline exceeded after transient fault: ") +
                        e.what()
                  : std::string("transient fault persisted across ") +
                        std::to_string(attempt) + " attempts: " + e.what();
          if (!policy.quarantine) throw;
          batch.traces[i].clear();
          return;
        }
        ++outcomes[i].transient_retries;
        if (policy.backoff_seconds > 0.0) {
          const double scale = static_cast<double>(std::size_t{1} << (attempt - 1));
          std::this_thread::sleep_for(
              std::chrono::duration<double>(policy.backoff_seconds * scale));
        }
      } catch (const std::exception& e) {
        auto& out = outcomes[i];
        out.failed = true;
        out.failure.source_index = first_index + i;
        out.failure.attempts = attempt;
        out.failure.error = std::string("permanent failure: ") + e.what();
        if (!policy.quarantine) throw;
        batch.traces[i].clear();
        return;
      }
    }
  });

  for (std::size_t i = 0; i < count; ++i) {
    if (outcomes[i].failed) batch.failures.push_back(outcomes[i].failure);
    batch.transient_retries += outcomes[i].transient_retries;
  }
  return batch;
}

MultiSourceTrace generate_sources(const GenerationPlan& plan, stream::Sink* tap,
                                  const FailurePolicy& policy) {
  VBR_ENSURE(plan.num_sources >= 1, "plan needs at least one source");
  VBR_ENSURE(plan.frames_per_source >= 1, "plan needs at least one frame per source");

  const model::VbrVideoSourceModel model(plan.params);

  // Derive every child stream up front, in source order, from one master
  // stream. The split() sequence depends only on the seed, so source i sees
  // the same Rng no matter how many threads later run it.
  Rng master(plan.seed);
  std::vector<Rng> streams;
  streams.reserve(plan.num_sources);
  for (std::size_t i = 0; i < plan.num_sources; ++i) streams.push_back(master.split());

  const std::size_t threads =
      std::min(resolve_thread_count(plan.threads), plan.num_sources);
  const auto t0 = std::chrono::steady_clock::now();
  SourceBatch batch = generate_source_batch(
      model, streams, /*first_index=*/0, plan.frames_per_source, plan.variant,
      plan.resolved_backend(), threads, tap, policy);
  const auto t1 = std::chrono::steady_clock::now();

  // In-order reduction keeps the tap independent of scheduling; quarantined
  // sources have null sinks and contribute nothing.
  if (tap != nullptr) {
    for (const auto& sink : batch.sinks) {
      if (sink) tap->merge(*sink);
    }
  }

  MultiSourceTrace out;
  out.sources = std::move(batch.traces);
  out.stats.sources = plan.num_sources;
  out.stats.frames =
      (plan.num_sources - batch.failures.size()) * plan.frames_per_source;
  double bytes = 0.0;
  for (const auto& source : out.sources) bytes += kahan_total(source);
  out.stats.bytes = bytes;
  out.stats.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  out.stats.threads_used = threads;
  out.stats.failures = std::move(batch.failures);
  out.stats.transient_retries = batch.transient_retries;
  return out;
}

}  // namespace vbr::engine
