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
  double total = 0.0;  ///< kahan_total of the trace
};

}  // namespace

void generate_source_batch(const model::VbrVideoSourceModel& model,
                           std::span<const Rng> streams,
                           std::size_t first_index,
                           std::size_t frames_per_source,
                           model::ModelVariant variant,
                           model::GeneratorBackend backend,
                           std::size_t threads,
                           const stream::Sink* tap,
                           const FailurePolicy& policy,
                           std::span<model::Workspace> workspaces,
                           SourceBatch& batch,
                           const CommitSource& commit) {
  VBR_ENSURE(frames_per_source >= 1, "batch needs at least one frame per source");
  VBR_ENSURE(policy.max_attempts >= 1, "failure policy needs at least one attempt");

  const std::size_t count = streams.size();
  // Sized here, on the calling thread, so a reused batch keeps its buffers
  // and a fresh one allocates them from one thread.
  batch.traces.resize(count);
  for (auto& trace : batch.traces) trace.resize(frames_per_source);
  batch.sinks.clear();
  if (tap != nullptr) batch.sinks.resize(count);
  batch.failures.clear();
  batch.transient_retries = 0;
  if (count == 0) return;

  threads = std::min(resolve_thread_count(threads), count);
  std::vector<model::Workspace> own;
  if (workspaces.empty()) {
    own.resize(threads);
    workspaces = own;
  }
  VBR_ENSURE(workspaces.size() >= threads, "batch needs one workspace per worker");
  // Workers clone this, never `tap`: the committer merges into `tap` while
  // they run.
  const std::unique_ptr<stream::Sink> prototype =
      tap != nullptr ? tap->clone_empty() : nullptr;
  std::vector<SourceOutcome> outcomes(count);

  parallel_for_ordered(count, threads, [&](std::size_t i, std::size_t worker) {
    const auto start = std::chrono::steady_clock::now();
    const auto elapsed = [&] {
      return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
    };
    std::vector<double>& trace = batch.traces[i];
    for (std::size_t attempt = 1;; ++attempt) {
      try {
        // A fresh copy of the pre-derived stream every attempt: a source
        // that needed three tries is bit-identical to one that succeeded
        // immediately.
        Rng rng = streams[i];
        model.generate(trace, rng, variant, backend, workspaces[worker]);
        if (prototype != nullptr) {
          std::unique_ptr<stream::Sink> sink = prototype->clone_empty();
          sink->push(trace);
          batch.sinks[i] = std::move(sink);
        }
        outcomes[i].total = kahan_total(trace);
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
          trace.clear();
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
        trace.clear();
        return;
      }
    }
  }, [&](std::size_t i) {
    commit(FinishedSource{batch.traces[i], tap != nullptr ? batch.sinks[i].get() : nullptr,
                          outcomes[i].total});
  });

  for (std::size_t i = 0; i < count; ++i) {
    if (outcomes[i].failed) batch.failures.push_back(outcomes[i].failure);
    batch.transient_retries += outcomes[i].transient_retries;
  }
}

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
  SourceBatch batch;
  generate_source_batch(model, streams, first_index, frames_per_source, variant, backend,
                        threads, tap, policy, workspaces, batch,
                        [](const FinishedSource&) {});
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
  SourceBatch batch;
  double bytes = 0.0;
  const auto t0 = std::chrono::steady_clock::now();
  // In-order reduction keeps the tap independent of scheduling; quarantined
  // sources have null sinks and contribute nothing.
  generate_source_batch(model, streams, /*first_index=*/0, plan.frames_per_source,
                        plan.variant, plan.resolved_backend(), threads, tap, policy, {},
                        batch, [&](const FinishedSource& source) {
                          if (source.sink != nullptr) tap->merge(*source.sink);
                          bytes += source.total;
                        });
  const auto t1 = std::chrono::steady_clock::now();

  MultiSourceTrace out;
  out.sources = std::move(batch.traces);
  out.stats.sources = plan.num_sources;
  out.stats.frames =
      (plan.num_sources - batch.failures.size()) * plan.frames_per_source;
  out.stats.bytes = bytes;
  out.stats.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  out.stats.threads_used = threads;
  out.stats.failures = std::move(batch.failures);
  out.stats.transient_retries = batch.transient_retries;
  return out;
}

}  // namespace vbr::engine
