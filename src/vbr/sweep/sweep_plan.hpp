// The §5 evaluation grid: which queueing experiments a sweep runs.
//
// A sweep is the cross product queue-kind × Hurst × utilization × buffer
// delay × source count, every combination evaluated against synthetic
// traffic generated from the paper's Star Wars operating point. Cells are
// enumerated in a fixed row-major order and each cell owns a deterministic
// seed derived from the master seed by Rng::split() *in cell order*, exactly
// the discipline the generation engine uses per source: a cell's output
// depends only on its spec, never on which worker ran it, how often it was
// retried, or what happened to its neighbours. That is what makes retried
// cells bit-identical and a resumed sweep indistinguishable from an
// uninterrupted one.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace vbr::sweep {

/// Which net-layer evaluation a cell runs.
enum class QueueKind : std::uint32_t {
  kFluid = 1,  ///< exact piecewise-linear fluid simulation (Fig. 13/14)
  kCell = 2,   ///< discrete 48-byte cell FIFO (validates the fluid model)
  kFbm = 3,    ///< Norros fractional-Brownian analytic queue
};

/// Parse/format helpers for CLI and manifest reporting.
const char* queue_kind_name(QueueKind kind);
QueueKind parse_queue_kind(const std::string& name);

/// The full sweep grid. Axis vectors must be non-empty; validate() throws
/// vbr::InvalidArgument on an empty axis, a non-finite or out-of-domain
/// value (H outside (0,1), utilization <= 0, negative buffer delay), or an
/// empty traffic plan.
struct SweepGrid {
  std::vector<QueueKind> queues{QueueKind::kFluid};
  std::vector<double> hursts{0.8};
  std::vector<double> utilizations{0.9};
  std::vector<double> buffer_ms{10.0};
  std::vector<std::size_t> sources{1};
  std::size_t frames_per_source = 4096;
  std::uint64_t seed = 1994;

  void validate() const;
};

/// One fully-resolved evaluation cell: a point of the grid plus its derived
/// seed. This is everything a worker process needs.
struct CellSpec {
  std::uint64_t cell_index = 0;
  QueueKind queue = QueueKind::kFluid;
  double hurst = 0.8;
  double utilization = 0.9;
  double buffer_delay_ms = 10.0;
  std::size_t num_sources = 1;
  std::size_t frames_per_source = 4096;
  std::uint64_t seed = 0;
};

/// Number of cells in the grid's cross product.
std::size_t cell_count(const SweepGrid& grid);

/// The spec of cell `index` (row-major over queues, hursts, utilizations,
/// buffer_ms, sources — sources fastest). Requires index < cell_count and a
/// valid grid; the seed field is filled from derive_cell_seeds.
CellSpec cell_at(const SweepGrid& grid, std::size_t index);

/// Per-cell seeds: Rng(grid.seed).split() drawn once per cell in cell order.
/// Deterministic and independent of everything but the master seed and the
/// cell count.
std::vector<std::uint64_t> derive_cell_seeds(const SweepGrid& grid);

/// FNV-1a over every semantic grid field. A sweep directory or shard log
/// that carries a different fingerprint is rejected instead of silently
/// blending sweeps.
std::uint64_t sweep_fingerprint(const SweepGrid& grid);

}  // namespace vbr::sweep
