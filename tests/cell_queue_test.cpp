// Tests for the discrete cell-level queue and its agreement with the fluid
// model (the validation the fluid simulator's exactness claim rests on).
#include "vbr/net/cell_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "vbr/common/error.hpp"
#include "vbr/common/math_util.hpp"
#include "vbr/engine/engine.hpp"
#include "vbr/net/cell.hpp"
#include "vbr/net/fluid_queue.hpp"
#include "vbr/sweep/cell_eval.hpp"
#include "vbr/sweep/sweep_plan.hpp"

namespace vbr::net {
namespace {

TEST(CellMathTest, BytesToCells) {
  EXPECT_EQ(bytes_to_cells(0.0), 0u);
  EXPECT_EQ(bytes_to_cells(1.0), 1u);
  EXPECT_EQ(bytes_to_cells(48.0), 1u);
  EXPECT_EQ(bytes_to_cells(49.0), 2u);
  EXPECT_EQ(bytes_to_cells(480.0), 10u);
  EXPECT_THROW(bytes_to_cells(-1.0), vbr::InvalidArgument);
}

TEST(CellQueueTest, NoLossWhenUnderCapacity) {
  std::vector<double> arrivals(100, 480.0);  // 10 cells per 0.1 s = 4800 B/s
  Rng rng(1);
  const auto r = run_cell_queue(arrivals, 0.1, 10000.0, 480.0, CellSpacing::kUniform, rng);
  EXPECT_EQ(r.lost_cells, 0u);
  EXPECT_EQ(r.arrived_cells, 1000u);
  EXPECT_DOUBLE_EQ(r.loss_rate(), 0.0);
}

TEST(CellQueueTest, SevereOverloadLosesMostCells) {
  std::vector<double> arrivals(100, 4800.0);  // 48000 B/s into 4800 B/s
  Rng rng(2);
  const auto r = run_cell_queue(arrivals, 0.1, 4800.0, 480.0, CellSpacing::kUniform, rng);
  EXPECT_NEAR(r.loss_rate(), 0.9, 0.02);
}

TEST(CellQueueTest, AgreesWithFluidModelOnSmoothLoad) {
  // Moderate overload with uniform spacing: the fluid queue is the limit of
  // the cell queue, so loss rates must match to within cell granularity.
  std::vector<double> arrivals;
  Rng shape_rng(3);
  for (int i = 0; i < 2000; ++i) {
    arrivals.push_back(std::max(0.0, shape_rng.normal(27791.0, 6254.0)));
  }
  const double dt = 1.0 / 24.0;
  const double capacity = 27791.0 * 24.0 * 1.05;  // 5% above the mean rate
  const double buffer = capacity * 0.002;          // 2 ms worth

  Rng rng(4);
  const auto cell = run_cell_queue(arrivals, dt, capacity, buffer, CellSpacing::kUniform, rng);
  const auto fluid = run_fluid_queue(arrivals, dt, capacity, buffer);
  EXPECT_GT(cell.loss_rate(), 0.0);
  EXPECT_NEAR(cell.loss_rate(), fluid.loss_rate(), 0.015);
}

TEST(CellQueueTest, RandomSpacingLosesAtLeastAsMuchAsUniform) {
  // Clumped arrivals stress the buffer harder than evenly spaced ones.
  std::vector<double> arrivals;
  Rng shape_rng(5);
  for (int i = 0; i < 1500; ++i) {
    arrivals.push_back(std::max(0.0, shape_rng.normal(27791.0, 6254.0)));
  }
  const double dt = 1.0 / 24.0;
  const double capacity = 27791.0 * 24.0 * 1.1;
  const double buffer = 3.0 * kCellPayloadBytes;  // tiny buffer magnifies spacing effects

  Rng rng_u(6);
  Rng rng_r(7);
  const auto uniform =
      run_cell_queue(arrivals, dt, capacity, buffer, CellSpacing::kUniform, rng_u);
  const auto random =
      run_cell_queue(arrivals, dt, capacity, buffer, CellSpacing::kRandom, rng_r);
  EXPECT_GE(random.loss_rate(), uniform.loss_rate() * 0.9);
  EXPECT_GT(random.loss_rate(), 0.0);
}

TEST(CellQueueTest, LossMonotoneInBuffer) {
  std::vector<double> arrivals;
  Rng shape_rng(8);
  for (int i = 0; i < 1000; ++i) {
    arrivals.push_back(std::max(0.0, shape_rng.normal(2000.0, 900.0)));
  }
  Rng rng(9);
  double prev = 1.0;
  for (double cells : {1.0, 4.0, 16.0, 64.0}) {
    Rng local = rng;  // same arrival pattern per run (uniform spacing ignores rng)
    const auto r = run_cell_queue(arrivals, 0.04, 2000.0 / 0.04, cells * kCellPayloadBytes,
                                  CellSpacing::kUniform, local);
    EXPECT_LE(r.loss_rate(), prev + 1e-12);
    prev = r.loss_rate();
  }
}

TEST(CellQueueTest, Preconditions) {
  std::vector<double> arrivals{100.0};
  Rng rng(10);
  EXPECT_THROW(run_cell_queue(arrivals, 0.0, 100.0, 480.0, CellSpacing::kUniform, rng),
               vbr::InvalidArgument);
  EXPECT_THROW(run_cell_queue(arrivals, 1.0, 0.0, 480.0, CellSpacing::kUniform, rng),
               vbr::InvalidArgument);
  EXPECT_THROW(run_cell_queue(arrivals, 1.0, 100.0, -1.0, CellSpacing::kUniform, rng),
               vbr::InvalidArgument);
  // A sub-cell buffer is legal but degenerate: every arriving cell is lost.
  const CellQueueResult starved =
      run_cell_queue(arrivals, 1.0, 100.0, 10.0, CellSpacing::kUniform, rng);
  EXPECT_EQ(starved.lost_cells, starved.arrived_cells);
  EXPECT_GT(starved.arrived_cells, 0u);
}

// The uniform-spacing loop as it stood before the drained-queue
// fast-forward: every cell stepped, instants from a per-interval offsets
// buffer. An oracle for the library's bit-exact fast-forward.
CellQueueResult stepped_uniform_queue(std::span<const double> interval_bytes, double dt_seconds,
                                      double capacity_bytes_per_sec, double buffer_bytes) {
  CellQueueResult result;
  double workload = 0.0;
  double last_arrival = 0.0;
  std::vector<double> offsets;

  for (std::size_t i = 0; i < interval_bytes.size(); ++i) {
    const double t0 = static_cast<double>(i) * dt_seconds;
    const std::size_t cells = bytes_to_cells(interval_bytes[i]);
    if (cells == 0) continue;

    offsets.clear();
    offsets.reserve(cells);
    for (std::size_t c = 0; c < cells; ++c) {
      offsets.push_back(dt_seconds * (static_cast<double>(c) + 0.5) /
                        static_cast<double>(cells));
    }

    for (double off : offsets) {
      const double now = t0 + off;
      workload = std::max(0.0, workload - (now - last_arrival) * capacity_bytes_per_sec);
      last_arrival = now;
      ++result.arrived_cells;
      if (workload + kCellPayloadBytes > buffer_bytes) {
        ++result.lost_cells;
      } else {
        workload += kCellPayloadBytes;
      }
    }
  }
  return result;
}

/// The library's uniform run, after checking it against the stepped loop.
CellQueueResult expect_matches_stepped(std::span<const double> arrivals, double dt,
                                       double capacity, double buffer, const char* what) {
  Rng rng(0);
  const CellQueueResult fast =
      run_cell_queue(arrivals, dt, capacity, buffer, CellSpacing::kUniform, rng);
  const CellQueueResult stepped = stepped_uniform_queue(arrivals, dt, capacity, buffer);
  EXPECT_EQ(fast.arrived_cells, stepped.arrived_cells) << what;
  EXPECT_EQ(fast.lost_cells, stepped.lost_cells) << what;
  return fast;
}

TEST(CellQueueTest, FastForwardMatchesSteppedLoopOnTheSection5Grid) {
  // The sec. 5 grid's cell-queue cells, traffic and capacity as
  // sweep::evaluate_cell builds them, at 256 frames per source.
  sweep::SweepGrid grid;
  grid.queues = {sweep::QueueKind::kCell};
  grid.hursts = {0.6, 0.7, 0.8, 0.9};
  grid.utilizations = {0.7, 0.8, 0.9};
  grid.buffer_ms = {1.0, 10.0, 50.0};
  grid.sources = {1, 4, 16};
  grid.frames_per_source = 256;
  const std::vector<std::uint64_t> seeds = sweep::derive_cell_seeds(grid);
  const double dt = 1.0 / 24.0;
  std::size_t lossy = 0;
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    const sweep::CellSpec spec = sweep::cell_at(grid, i);
    engine::GenerationPlan plan;
    plan.num_sources = spec.num_sources;
    plan.frames_per_source = spec.frames_per_source;
    plan.seed = seeds[i];
    plan.params = {.marginal = sweep::cell_marginal(), .hurst = spec.hurst};
    plan.threads = 1;
    const std::vector<double> aggregate = engine::generate_sources(plan).aggregate();
    const double capacity = sample_mean(aggregate) / dt / spec.utilization;
    const double buffer = spec.buffer_delay_ms * 1e-3 * capacity;
    if (expect_matches_stepped(aggregate, dt, capacity, buffer, "grid cell").lost_cells > 0) {
      ++lossy;
    }
  }
  EXPECT_EQ(seeds.size(), 108u);
  EXPECT_GT(lossy, 0u);  // the grid reaches the stepped, lossy regime too
}

TEST(CellQueueTest, FastForwardMatchesSteppedLoopAtTheRoundingBoundary) {
  // Capacities whose nominal per-cell service C*dt/k sits within 1e-15 to
  // 1e-1 (relative) of one payload, on either side, where the
  // fast-forward's rounding margin decides; buffers around one payload;
  // zero-byte intervals; and long leading silences that push t0 past 1e5 s.
  Rng gen(20231994);
  const double buffers[] = {0.0, 47.9, 48.0, 3.0 * kCellPayloadBytes, 1e9};
  const double dts[] = {1.0 / 24.0, 1.0 / 480.0, 1.0, 25.0};
  for (int run = 0; run < 3000; ++run) {
    // Every fourth run starts its traffic at t0 >= 1e5 s: one second or
    // longer intervals, and every hundredth run at 24 fps.
    const bool long_lead = run % 4 == 0;
    const double dt = run % 100 == 0 ? dts[0]
                      : long_lead    ? dts[2 + gen.uniform_index(2)]
                                     : dts[gen.uniform_index(4)];
    const double buffer = buffers[gen.uniform_index(5)];
    const std::size_t k = 1 + gen.uniform_index(2000);
    const double rel = std::pow(10.0, gen.uniform(-15.0, -1.0));
    const double sign = gen.uniform() < 0.5 ? -1.0 : 1.0;
    const double capacity = kCellPayloadBytes * (1.0 + sign * rel) *
                            static_cast<double>(k) / dt;

    std::vector<double> arrivals;
    if (long_lead) {
      arrivals.assign(static_cast<std::size_t>(std::ceil(gen.uniform(1e5, 2e5) / dt)), 0.0);
    }
    const std::size_t intervals = 1 + gen.uniform_index(40);
    for (std::size_t n = 0; n < intervals; ++n) {
      const double u = gen.uniform();
      if (u < 0.15) {
        arrivals.push_back(0.0);
      } else if (u < 0.75) {
        // Exactly k cells: the nominal service is the boundary case.
        arrivals.push_back(static_cast<double>(k) * kCellPayloadBytes -
                           gen.uniform(0.0, kCellPayloadBytes - 1.0));
      } else {
        // A burst or a lull around k cells, to fill and drain the buffer.
        arrivals.push_back(gen.uniform(0.0, 3.0) * static_cast<double>(k) * kCellPayloadBytes);
      }
    }
    (void)expect_matches_stepped(arrivals, dt, capacity, buffer, "boundary case");
    if (HasFailure()) {
      ADD_FAILURE() << "run " << run << " dt " << dt << " k " << k << " rel "
                    << sign * rel << " buffer " << buffer;
      return;
    }
  }
}

}  // namespace
}  // namespace vbr::net
