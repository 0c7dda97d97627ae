// Discrete cell-level FIFO queue, used to validate the fluid model.
//
// Cells (48-byte payloads) arrive at explicit instants — uniformly spaced
// within each interval, or uniformly-random within it (the two spacings the
// paper compares in [GARR93a]) — and are served at a constant byte rate.
// The finite buffer drops an arriving cell that does not fit. This is the
// classic workload recursion of a D-server finite-buffer FIFO and agrees
// with the fluid model to within one cell per interval.
//
// Uniform spacing puts cell c of k at t0 + dt*(c+0.5)/k, computed inline in
// that operation order, and its one loop fast-forwards a drained queue bit
// for bit. With u = 2^-53, each computed instant is within 2u*dt (the
// offset's two roundings) plus u*(t0+dt) (the sum) of the exact one, so a
// computed gap is within 6u*dt + 2u*t0 of dt/k, and gap*C loses two more
// u. An interval whose nominal service per arrival s = C*dt/k satisfies
//     s >= 48*(1 + 8*eps) + 8*eps*C*(t0 + dt),   eps = 2u,
// (the margin also covers the rounding of this test itself) therefore
// drains at least 48 B, in floating point, between any two of its
// arrivals. Once the workload just after an arrival is exactly 48 B, the
// next arrival clamps it to 0 and is accepted (the workload never exceeds
// the buffer, so the buffer holds 48 B), which leaves exactly 48 B again.
// The rest of the interval is then counted in O(1) and the last arrival
// instant is set with the same expression. Random spacing steps every cell.
#pragma once

#include <cstddef>
#include <span>

#include "vbr/common/rng.hpp"

namespace vbr::net {

enum class CellSpacing {
  kUniform,  ///< evenly spaced within the interval
  kRandom,   ///< i.i.d. uniform arrival instants within the interval
};

struct CellQueueResult {
  std::size_t arrived_cells = 0;
  std::size_t lost_cells = 0;
  double loss_rate() const {
    return arrived_cells > 0
               ? static_cast<double>(lost_cells) / static_cast<double>(arrived_cells)
               : 0.0;
  }
};

/// Run per-interval byte counts through a cell-level FIFO. `rng` is used
/// only for random spacing. A buffer smaller than one cell payload is legal
/// and degenerate: every arriving cell is lost.
CellQueueResult run_cell_queue(std::span<const double> interval_bytes, double dt_seconds,
                               double capacity_bytes_per_sec, double buffer_bytes,
                               CellSpacing spacing, Rng& rng);

}  // namespace vbr::net
