#include "vbr/net/cell_queue.hpp"

#include <algorithm>
#include <limits>
#include <vector>

#include "vbr/common/error.hpp"
#include "vbr/net/cell.hpp"

namespace vbr::net {

CellQueueResult run_cell_queue(std::span<const double> interval_bytes, double dt_seconds,
                               double capacity_bytes_per_sec, double buffer_bytes,
                               CellSpacing spacing, Rng& rng) {
  VBR_ENSURE(dt_seconds > 0.0, "interval must have positive duration");
  VBR_ENSURE(capacity_bytes_per_sec > 0.0, "capacity must be positive");
  VBR_ENSURE(buffer_bytes >= 0.0, "buffer must be non-negative");
  VBR_CHECK_FINITE(capacity_bytes_per_sec, "cell-queue capacity");
  VBR_CHECK_FINITE(buffer_bytes, "cell-queue buffer");
  check_finite_series(interval_bytes, "run_cell_queue arrivals");

  CellQueueResult result;
  // Unfinished work in the queue, in bytes, as seen just after the last
  // arrival. Between arrivals it drains at the service rate.
  double workload = 0.0;
  double last_arrival = 0.0;
  // One arrival at `now`; true when the cell was accepted.
  const auto arrive = [&](double now) {
    workload = std::max(0.0, workload - (now - last_arrival) * capacity_bytes_per_sec);
    last_arrival = now;
    ++result.arrived_cells;
    if (workload + kCellPayloadBytes > buffer_bytes) {
      ++result.lost_cells;
      return false;
    }
    workload += kCellPayloadBytes;
    return true;
  };
  constexpr double kEps = std::numeric_limits<double>::epsilon();
  std::vector<double> offsets;

  for (std::size_t i = 0; i < interval_bytes.size(); ++i) {
    VBR_DCHECK(interval_bytes[i] >= 0.0, "negative arrival volume");
    const double t0 = static_cast<double>(i) * dt_seconds;
    const std::size_t cells = bytes_to_cells(interval_bytes[i]);
    if (cells == 0) continue;

    if (spacing == CellSpacing::kUniform) {
      const double k = static_cast<double>(cells);
      // The drained-queue fast-forward and its rounding margin: see
      // cell_queue.hpp.
      const bool drains_per_cell =
          capacity_bytes_per_sec * (dt_seconds / k) >=
          kCellPayloadBytes * (1.0 + 8.0 * kEps) +
              8.0 * kEps * capacity_bytes_per_sec * (t0 + dt_seconds);
      for (std::size_t c = 0; c < cells; ++c) {
        const double now = t0 + dt_seconds * (static_cast<double>(c) + 0.5) / k;
        if (arrive(now) && drains_per_cell && workload == kCellPayloadBytes) {
          result.arrived_cells += cells - 1 - c;
          last_arrival = t0 + dt_seconds * (static_cast<double>(cells - 1) + 0.5) / k;
          break;
        }
      }
    } else {
      offsets.clear();
      offsets.reserve(cells);
      for (std::size_t c = 0; c < cells; ++c) offsets.push_back(rng.uniform(0.0, dt_seconds));
      std::sort(offsets.begin(), offsets.end());
      for (double off : offsets) arrive(t0 + off);
    }
  }
  return result;
}

}  // namespace vbr::net
