// The supervised, process-isolated sweep: every evaluation cell runs in a
// forked worker so one bad cell — a hang at utilization -> 1, an OOM on a
// huge buffer, a numeric blow-up at H -> 1 — costs one quarantine record
// instead of the whole campaign.
//
// One settle_cells call forks one worker after its cache warm-up, and the
// worker serves cell after cell over a socket (worker.hpp) while they
// succeed. Per cell, the supervisor sends a request, watches the socket
// with a poll()-based watchdog whose deadline restarts with each request,
// and classifies the outcome:
//
//   result frame                   -> done (the worker serves the next cell)
//   structured vbr::Error frame    -> deterministic poison: quarantine now
//   structured OOM frame           -> retry (the report is transient-shaped)
//   watchdog deadline / SIGXCPU    -> hang: SIGKILL, retry
//   SIGKILL near the memory ceiling-> OOM: retry
//   any other signal/nonzero exit  -> crash: retry
//
// Every outcome but a result leaves the worker reaped, and the next cell
// gets a fresh fork. A record must not depend on what its worker ran
// before, so an attempt with an injected fault runs in a fresh worker, and
// a failed attempt in a worker that had served cells runs again, as the
// same attempt, in a fresh one before it is classified.
//
// Retries restart from the cell's deterministic split seed, so a retried
// cell is bit-identical to one that succeeded first try; a cell that
// exhausts max_attempts is quarantined with a structured CellFailure
// (kind, exit/signal, rusage peak RSS, captured stderr tail) and the sweep
// moves on. A failed attempt is *requeued with a due time* (backoff *
// 2^(k-1) from the failure) instead of sleeping the dispatch loop, so one
// flaky cell's exponential backoff never stalls the healthy cells behind
// it — and because every record is a pure function of its spec, the final
// results hash is independent of settling order.
//
// Progress persists in the pools' VBRSWPL1 append-only shard logs
// (dispatch.hpp, result_log.hpp) — one CRC-framed record per settled cell,
// O(1) write cost per settle — so SIGKILLing a sweep and rerunning the same
// command truncates any torn tail, salvages every settled cell, and
// reproduces the uninterrupted sweep's merged results bit-for-bit
// (scripts/crash_soak.sh sweep and shard modes enforce exactly that; the
// worker dies with its supervisor). settle_cells() is the core every shard
// pool runs.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "vbr/sweep/cell_eval.hpp"
#include "vbr/sweep/sweep_plan.hpp"
#include "vbr/sweep/worker.hpp"

namespace vbr::sweep {

/// Retry budget wrapped around the per-attempt WorkerLimits.
struct SweepLimits {
  WorkerLimits worker;          ///< deadline / memory / CPU per attempt
  std::size_t max_attempts = 3; ///< total tries per cell (>= 1)
  double backoff_seconds = 0.0; ///< retry k due backoff * 2^(k-1) after failure k
  /// Run cells in a forked worker (crash/hang/OOM containment): one per
  /// settle_cells call while cells succeed. false evaluates cells
  /// in-process — no isolation, for ~0.02 ms less overhead per cell and
  /// one fork less per call (bench_sweep_shard's isolated rows, 512 cells,
  /// on a 4-vCPU host); a structured vbr::Error still quarantines, and
  /// crash/hang/OOM fault injection is rejected (those need a worker
  /// process to kill).
  bool isolate = true;
};

/// Seeded deterministic fault injection (the soak harness seam). A cell's
/// *first* attempt faults with probability `rate`, the kind drawn from the
/// enabled set — so every injected fault is healed by one retry and the
/// merged results stay bit-identical to a fault-free sweep. Poison cells
/// fault on *every* attempt with a deterministic vbr::NumericalError and
/// must end quarantined.
struct SweepFaultPlan {
  double rate = 0.0;
  std::uint64_t seed = 0;
  bool crash = true;
  bool hang = true;
  bool oom = true;
  std::vector<std::uint64_t> poison;

  bool enabled() const { return rate > 0.0 || !poison.empty(); }
};

/// A whole sweep's records, merged from its shard logs (collect_sweep,
/// dispatch.hpp).
struct SweepReport {
  std::size_t total_cells = 0;
  std::size_t completed = 0;
  std::size_t quarantined = 0;
  /// Every cell, ascending cell_index.
  std::vector<CellRecord> records;
  /// Determinism witness over the deterministic record bytes (see
  /// results_hash); the soak harness compares this across kill/resume.
  std::uint64_t results_hash = 0;
};

/// FNV-1a over (cell_index, status, CellResult-if-done) in cell order.
/// Quarantine diagnostics (signals, rusage, stderr) are nondeterministic by
/// nature and deliberately excluded.
std::uint64_t results_hash(std::span<const CellRecord> records);

/// Reject a bad grid, retry budget or fault plan with vbr::InvalidArgument:
/// OOM injection without a memory ceiling, hang injection without a
/// watchdog deadline, crash/hang/OOM injection without isolation. The
/// pools (dispatch.hpp) call it before they create or fork anything, so a
/// bad configuration fails once, up front, instead of in every pool.
void validate_sweep_inputs(const SweepGrid& grid, const SweepLimits& limits,
                           const SweepFaultPlan& faults);

/// The deterministic per-attempt fault decision (exposed for tests).
InjectedFault fault_for_attempt(const SweepFaultPlan& faults, std::uint64_t cell_index,
                                std::size_t attempt);

/// Statistics from one settle_cells call.
struct SettleStats {
  std::size_t retried_attempts = 0;
  /// Worker processes forked: one per call while cells succeed, plus one
  /// after each failed isolated attempt and one per injected fault.
  std::size_t workers_forked = 0;
};

/// Settle an arbitrary set of cells under the non-blocking retry scheduler
/// — the core of every shard pool (dispatch.hpp). A failed attempt
/// requeues its cell with a due time instead of sleeping, so healthy cells
/// keep settling while a flaky cell backs off.
/// `on_settled` receives each record as it settles; returning false stops
/// early (a pool abandons a lost lease this way). `tick` runs at least
/// once per attempt and during idle waits — the lease-heartbeat seam.
/// The worker is killed and reaped on every way out, an exception from
/// either callback included.
/// Throws vbr::InvalidArgument on what validate_sweep_inputs rejects and on
/// an out-of-range cell index.
void settle_cells(const SweepGrid& grid, const std::vector<std::uint64_t>& cells,
                  const SweepLimits& limits, const SweepFaultPlan& faults,
                  const std::function<bool(const CellRecord&)>& on_settled,
                  const std::function<void()>& tick = {},
                  SettleStats* stats = nullptr);

}  // namespace vbr::sweep
