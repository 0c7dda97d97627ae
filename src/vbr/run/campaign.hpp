// Crash-safe campaign runner: generation + streaming analysis that survives
// SIGKILL.
//
// run_campaign() executes a GenerationPlan source by source into a binary
// trace file, optionally feeding a streaming-statistics tap, and persists a
// checkpoint (see checkpoint.hpp) at every batch boundary. Kill the process
// at any instant and run again with `resume = true`: the runner reloads the
// checkpoint, truncates the trace back to the last durable sample, restores
// the tap sink state and the unconsumed per-source Rng streams, and
// continues. The final trace hash and sink state are bit-identical to an
// uninterrupted run — proof-by-determinism, enforced by the crash-soak
// harness (scripts/crash_soak.sh) and tests/campaign_test.cpp.
//
// The ordering that makes this safe: samples are appended and *flushed*
// (fsynced when durable) before the checkpoint that claims them is written,
// and the checkpoint itself goes through the atomic temp+rename helper. A
// crash can therefore leave a trace that is ahead of the checkpoint — the
// resume truncates the excess — but never a checkpoint that is ahead of the
// trace.
//
// Commits overlap generation. `plan.threads` workers generate a batch while
// the calling thread commits it in source order: tap merge, trace append,
// hash fold and byte total for source k, as soon as sources 0..k are
// generated. The checkpoint follows the batch's last commit. The runner
// keeps its workspaces and the batch's trace buffers for the whole
// campaign. Commits stop at the first source that failed without
// quarantine, or after a commit that threw; the error rethrown is the one
// with the lowest source index, from either side. Such a throw, like a
// kill, can leave the trace and the tap ahead of the last checkpoint;
// resume truncates the trace and restores the tap (DESIGN §8, "The commit
// pipeline").
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>

#include "vbr/engine/engine.hpp"

namespace vbr::stream {
class Sink;
}

namespace vbr::run {

class FaultInjector;

struct CampaignOptions {
  engine::GenerationPlan plan;
  std::filesystem::path trace_path;
  /// Empty disables checkpointing entirely (the bench baseline).
  std::filesystem::path checkpoint_path;
  /// Sources generated per batch; a checkpoint lands after every batch.
  /// 0 means one batch for the whole plan (checkpoint only at the end).
  std::size_t checkpoint_every_sources = 16;
  /// Continue from checkpoint_path if it exists; a fresh run otherwise.
  bool resume = false;
  /// fsync the trace (its directory at creation, the file at sync
  /// intervals and before each save) and the checkpoint on every save.
  /// SIGKILL-safety does not need this (the kernel keeps flushed data);
  /// power-loss safety does.
  bool durable = false;
  engine::FailurePolicy failure;
  /// Test-only seam: when set, the runner polls site "checkpoint" before
  /// every checkpoint save. Production callers leave it null.
  FaultInjector* faults = nullptr;
  double dt_seconds = 1.0 / 24.0;
  std::string unit = "bytes/frame";
};

struct CampaignResult {
  engine::EngineStats stats;
  /// FNV-1a over the bit patterns of every sample in the finished trace —
  /// the determinism witness the soak harness compares across kill/resume.
  std::uint64_t trace_hash = 0;
  bool resumed = false;
  std::uint64_t resumed_at_source = 0;
};

/// Run (or resume) a campaign. `tap` may be null; when resuming, the tap
/// must be configured exactly as in the original run — its state is restored
/// from the checkpoint before any new samples arrive. Quarantined sources
/// occupy their trace slots as all-zero frames (the header's declared count
/// is honored) but contribute nothing to the tap.
///
/// Throws vbr::IoError on trace/checkpoint I/O failures and on any
/// plan/checkpoint mismatch; rethrows engine failures per the FailurePolicy.
/// After a throw the trace and `tap` may hold sources past the last
/// checkpoint; a resume truncates the trace and restores the tap.
CampaignResult run_campaign(const CampaignOptions& options,
                            stream::Sink* tap = nullptr);

}  // namespace vbr::run
