// Deterministic parallel generation of many independent VBR video sources.
//
// The paper's multiplexing study (Section 5) needs N statistically
// independent copies of the four-parameter source; at production scale that
// is the dominant cost, and it is embarrassingly parallel. The engine fans
// a GenerationPlan across a fixed thread pool with a determinism guarantee:
// every source's Rng stream is derived from the master seed by Rng::split()
// *in source order, before any work is dispatched*, so the output is
// bit-identical for any thread count — scheduling decides only who computes
// each source, never what is computed.
//
// The Davies-Harte backend amortizes beautifully here: all sources share
// one circulant eigenvalue vector through the process-wide cache, so after
// the first source each generation is just noise draws plus one half-length
// real FFT.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "vbr/common/rng.hpp"
#include "vbr/model/vbr_source.hpp"

namespace vbr::stream {
class Sink;
}

namespace vbr::engine {

/// Everything needed to reproduce a multi-source generation run.
struct GenerationPlan {
  std::size_t num_sources = 1;
  std::size_t frames_per_source = 0;
  std::uint64_t seed = 0;
  /// Model shared by every source (sources differ only by Rng stream).
  model::VbrModelParams params;
  model::ModelVariant variant = model::ModelVariant::kFull;
  model::GeneratorBackend backend = model::GeneratorBackend::kDaviesHarte;
  /// Zoo registry name (fgn_generator.hpp) selecting the LRD generator; when
  /// non-empty it takes precedence over `backend`. The plan-text form and
  /// CLI surfaces set this; programmatic callers may keep using the enum.
  std::string generator;
  /// Worker threads; 0 means hardware concurrency. Never affects output.
  std::size_t threads = 0;

  /// The backend this plan actually runs: `generator` resolved through the
  /// zoo registry when set, else `backend`. Everything that consumes a plan
  /// — the engine, the campaign runner, the checkpoint fingerprint — goes
  /// through this, so a name-selected plan and its enum-selected twin are
  /// interchangeable (identical output and fingerprint). Throws
  /// vbr::InvalidArgument on an unknown name.
  model::GeneratorBackend resolved_backend() const;
};

/// How the engine responds when a source's generation or tap fails.
///
/// vbr::TransientError is retried up to max_attempts with exponential
/// backoff; every retry regenerates the source from a copy of its original
/// Rng stream, so a retried source is bit-identical to one that succeeded
/// first try. Any other exception — or exhausting the retry budget, or
/// blowing the per-source deadline — is permanent: with `quarantine` the
/// source is dropped (empty output, failure recorded in EngineStats) and the
/// rest of the campaign completes; without it, the failure propagates as an
/// exception after all sources have run (lowest source index wins, see
/// parallel_for_ordered), and the sources before it have been committed.
struct FailurePolicy {
  std::size_t max_attempts = 3;       ///< total tries per source (>= 1)
  double backoff_seconds = 0.0;       ///< sleep before retry k: backoff * 2^(k-1)
  double source_deadline_seconds = 0.0;  ///< wall-clock budget per source; 0 = none
  bool quarantine = false;            ///< degrade gracefully instead of throwing
};

/// One quarantined source: which, why, and how hard the engine tried.
struct SourceFailure {
  std::size_t source_index = 0;
  std::string error;
  std::size_t attempts = 0;
};

/// Throughput accounting for one engine run.
struct EngineStats {
  std::size_t sources = 0;
  std::size_t frames = 0;  ///< total frames across all sources
  double bytes = 0.0;      ///< total generated traffic volume
  double wall_seconds = 0.0;
  std::size_t threads_used = 0;
  /// Sources that exhausted the FailurePolicy and were quarantined, in
  /// source order. Empty on a fully successful run.
  std::vector<SourceFailure> failures;
  /// Transient faults that were absorbed by retry (the run still succeeded).
  std::size_t transient_retries = 0;

  double frames_per_second() const {
    return wall_seconds > 0.0 ? static_cast<double>(frames) / wall_seconds : 0.0;
  }
  double bytes_per_second() const {
    return wall_seconds > 0.0 ? bytes / wall_seconds : 0.0;
  }
};

/// Result of a run: one frame-size vector per source, in plan order.
struct MultiSourceTrace {
  std::vector<std::vector<double>> sources;
  EngineStats stats;

  /// Aggregate arrival process: per-frame sum across all sources (the
  /// multiplexer feed of Section 5.1, with zero relative lags).
  std::vector<double> aggregate() const;
};

/// Output of one generation batch. `traces[k]` / `sinks[k]` belong to source
/// `first_index + k` of the surrounding plan; a quarantined source leaves an
/// empty trace and a null sink, with the reason recorded in `failures`.
/// A caller that keeps one SourceBatch across same-shape batches (the
/// campaign runner) reuses its trace buffers: after the first batch no
/// trace memory is allocated.
struct SourceBatch {
  std::vector<std::vector<double>> traces;
  std::vector<std::unique_ptr<stream::Sink>> sinks;  ///< empty when tap == nullptr
  std::vector<SourceFailure> failures;               ///< in source order
  std::size_t transient_retries = 0;
};

/// One generated source, handed to the committer in source order.
struct FinishedSource {
  std::span<const double> trace;       ///< empty when quarantined
  const stream::Sink* sink = nullptr;  ///< null when quarantined or untapped
  double total = 0.0;                  ///< kahan_total(trace), computed on the worker
};

/// Receives each finished source on the calling thread (see
/// generate_source_batch).
using CommitSource = std::function<void(const FinishedSource&)>;

/// Generate `streams.size()` sources, one per pre-derived Rng stream, under a
/// FailurePolicy, into `batch`. This is the checkpointable core of the
/// engine: the campaign runner calls it one batch at a time, persisting the
/// unconsumed stream states between calls, so a resumed run hands the
/// surviving streams back and continues bit-identically. `first_index` only
/// labels failures; it never influences the output. Each retry restarts from
/// a copy of the source's original stream, so retried output is
/// bit-identical to first-try output for any thread count.
///
/// `threads` workers generate while the calling thread commits: as soon as
/// source k and every source before it are generated, `commit` receives
/// source k, so the caller's in-order work (tap merge, trace append, hash)
/// runs beside generation rather than after it (with one thread, the
/// calling thread generates and commits each source in turn, spawning
/// nothing). Commits stop at the first source that failed without
/// quarantine, or after a commit that threw; the error rethrown once every
/// worker has joined is the one with the lowest source index, from either
/// side. Per-source sinks are clones of one blank prototype taken from
/// `tap` before generation starts, so the committer may merge into `tap`
/// itself while workers run.
///
/// Each worker generates into `workspaces[worker]` (at least one per worker
/// thread), so a caller that runs many batches keeps the generators' FFT
/// buffers warm across them; empty `workspaces` makes the batch hold its
/// own for this call. Neither the workspaces nor the reused buffers in
/// `batch` ever influence the output.
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
                           const CommitSource& commit);

/// The batch with nothing committed: every trace and per-source sink is
/// returned for the caller to fold.
SourceBatch generate_source_batch(const model::VbrVideoSourceModel& model,
                                  std::span<const Rng> streams,
                                  std::size_t first_index,
                                  std::size_t frames_per_source,
                                  model::ModelVariant variant,
                                  model::GeneratorBackend backend,
                                  std::size_t threads,
                                  const stream::Sink* tap,
                                  const FailurePolicy& policy,
                                  std::span<model::Workspace> workspaces = {});

/// Execute the plan. Output depends only on the plan fields other than
/// `threads`. Throws InvalidArgument on an empty plan.
///
/// If `tap` is non-null, every source's frame stream is also pushed into a
/// streaming-statistics sink while the run is in flight: each source gets a
/// private blank sink filled on whichever worker generates it, and the
/// per-source sinks are merged into `tap` *in source order on the calling
/// thread* while later sources are still generating. Because the sinks
/// never touch generation and the merge order is fixed, the generated trace
/// stays bit-identical for any thread count and the tap statistics are
/// deterministic too.
///
/// `policy` governs failure handling (see FailurePolicy); the default
/// retries transient faults and throws on anything permanent.
MultiSourceTrace generate_sources(const GenerationPlan& plan,
                                  stream::Sink* tap = nullptr,
                                  const FailurePolicy& policy = {});

}  // namespace vbr::engine
