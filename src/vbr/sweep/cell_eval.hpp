// One sweep cell = one §5 queueing experiment, evaluated to a fixed-size
// result record.
//
// evaluate_cell() is a pure function of the CellSpec: it synthesizes the
// cell's multi-source traffic from the spec's split-derived seed (paper
// Star Wars marginals, the spec's Hurst), sizes the channel from the
// realized aggregate mean rate and the spec's utilization, sizes the buffer
// from the buffer-delay budget, and runs the requested queue model. Running
// it twice — in-process, in a forked worker, or on a retry after a crash —
// produces bit-identical CellResult bytes; the supervisor's determinism
// guarantees are built entirely on this property.
//
// The serialized form is raw little-endian f64 bit patterns (vbr::io), so
// the result log round-trips results at 0 ulp and the sweep soak can compare
// merged results byte-for-byte. CellRecord is what the supervisor settles
// per cell: a result, or the failure that quarantined the cell.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "vbr/stats/gamma_pareto.hpp"
#include "vbr/sweep/sweep_plan.hpp"

namespace vbr::sweep {

/// Result of one evaluated cell. Queue-specific fields are zero when they
/// do not apply (overflow_probability / required_capacity_bps are fBm-only).
/// Every field is deterministic — no wall-clock or rusage diagnostics here;
/// those live in CellFailure.
struct CellResult {
  double mean_rate_bps = 0.0;       ///< realized aggregate mean arrival rate
  double capacity_bps = 0.0;        ///< total service rate (mean / utilization)
  double buffer_bytes = 0.0;        ///< buffer sized from the delay budget
  double loss_rate = 0.0;           ///< overall loss (fluid/cell) or P(Q>b) (fBm)
  double mean_queue_bytes = 0.0;    ///< fluid only
  double max_queue_bytes = 0.0;     ///< fluid only
  double overflow_probability = 0.0;   ///< fBm only
  double required_capacity_bps = 0.0;  ///< fBm only, at epsilon = 1e-6

  bool operator==(const CellResult& other) const = default;
};

/// The Gamma/Pareto marginal every cell maps through: the paper's Star
/// Wars fit (Tables 2/3). Cells differ only by the grid's Hurst parameter.
stats::GammaParetoParams cell_marginal();

/// Evaluate one cell. Throws vbr::NumericalError / vbr::InvalidArgument on a
/// poisoned spec (the quarantine path); returns finite fields otherwise.
CellResult evaluate_cell(const CellSpec& spec);

/// Fixed-width serialization (8 f64 fields, vbr::io bit patterns).
void write_cell_result(std::ostream& out, const CellResult& result);
CellResult read_cell_result(std::istream& in, const char* what);

/// The serialized byte size of one CellResult.
inline constexpr std::size_t kCellResultBytes = 8 * sizeof(double);

/// Hard bound on any sweep's cell count: far above the 10^6-cell target,
/// low enough that a forged count cannot drive a pathological allocation.
/// Shared by the result log and the shard planner.
inline constexpr std::uint64_t kMaxSweepCells = std::uint64_t{1} << 24;

/// Terminal state of a settled cell.
enum class CellStatus : std::uint8_t {
  kDone = 1,         ///< evaluated; `result` is valid
  kQuarantined = 2,  ///< exhausted the retry budget; `failure` is valid
};

/// Why a worker attempt (or the whole cell) failed.
enum class FailureKind : std::uint32_t {
  kCrash = 1,  ///< nonzero exit or fatal signal
  kHang = 2,   ///< watchdog deadline or CPU ceiling (SIGXCPU)
  kOom = 3,    ///< memory ceiling (bad_alloc under RLIMIT_AS, or kernel kill)
  kError = 4,  ///< worker reported a structured vbr::Error (deterministic poison)
};

const char* failure_kind_name(FailureKind kind);

/// Post-mortem of a quarantined cell: what the last attempt looked like.
/// Diagnostics (rusage, wall time, stderr) are inherently nondeterministic
/// and are excluded from the sweep's determinism witness.
struct CellFailure {
  FailureKind kind = FailureKind::kCrash;
  std::int32_t exit_code = 0;    ///< valid when the worker exited
  std::int32_t term_signal = 0;  ///< valid when the worker was signaled
  std::uint64_t attempts = 0;    ///< total attempts spent on the cell
  std::uint64_t max_rss_kib = 0; ///< last attempt's peak RSS (rusage)
  double wall_seconds = 0.0;     ///< last attempt's wall time
  std::string message;           ///< worker-reported error, when structured
  std::string stderr_tail;       ///< last bytes of the worker's stderr
};

/// One settled cell.
struct CellRecord {
  std::uint64_t cell_index = 0;
  CellStatus status = CellStatus::kDone;
  CellResult result;   ///< valid when status == kDone
  CellFailure failure; ///< valid when status == kQuarantined
};

/// Serialize / parse one settled-cell record body (index + status + result
/// or failure): the per-record payload of the VBRSWPL1 result log.
/// read_cell_record validates index range, status and failure-kind enums,
/// and the bounded diagnostic strings, throwing vbr::IoError on any
/// violation.
void write_cell_record(std::ostream& out, const CellRecord& record);
CellRecord read_cell_record(std::istream& in, std::uint64_t total_cells,
                            const std::string& name);

}  // namespace vbr::sweep
