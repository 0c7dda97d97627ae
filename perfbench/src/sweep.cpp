// Workload `sweep`: the sharded §5 sweep. Two forked pools drive eight
// shards of the full queue-kind × H × utilization × buffer × sources grid
// through fork-isolated workers, durable VBRSWPL1 logs and file leases,
// then collect_sweep merges the shard logs.
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "harness.hpp"
#include "vbr/common/error.hpp"
#include "vbr/common/math_util.hpp"
#include "vbr/common/rng.hpp"
#include "vbr/engine/engine.hpp"
#include "vbr/net/cell_queue.hpp"
#include "vbr/net/fbm_queue.hpp"
#include "vbr/net/fluid_queue.hpp"
#include "vbr/sweep/cell_eval.hpp"
#include "vbr/sweep/dispatch.hpp"
#include "vbr/sweep/result_log.hpp"
#include "vbr/sweep/shard.hpp"
#include "vbr/sweep/supervisor.hpp"

namespace perfbench {
namespace {

using vbr::sweep::CellRecord;
using vbr::sweep::CellResult;
using vbr::sweep::CellSpec;
using vbr::sweep::QueueKind;
using vbr::sweep::SweepGrid;

constexpr std::uint64_t kShards = 8;
constexpr std::size_t kSetupReps = 200;
constexpr std::size_t kCollectReps = 10;  ///< collect_sweep is read-only; repeat it
constexpr std::size_t kRecheckCells = 6;  ///< cells re-evaluated in-process per run
constexpr double kDtSeconds = 1.0 / 24.0;  ///< evaluate_cell's frame interval
constexpr double kFbmEpsilon = 1e-6;       ///< evaluate_cell's fBm target

/// The §5 cross product: 3 × 4 × 3 × 3 × 3 = 324 cells of 1024 frames.
SweepGrid full_grid(std::uint64_t seed) {
  SweepGrid grid;
  grid.queues = {QueueKind::kFluid, QueueKind::kCell, QueueKind::kFbm};
  grid.hursts = {0.6, 0.7, 0.8, 0.9};
  grid.utilizations = {0.7, 0.8, 0.9};
  grid.buffer_ms = {1.0, 10.0, 50.0};
  grid.sources = {1, 4, 16};
  grid.frames_per_source = 1024;
  grid.seed = seed;
  return grid;
}

/// The per-layer suite's smaller grid: every queue kind, H and source
/// count, at one utilization and buffer (36 cells).
SweepGrid layer_grid(std::uint64_t seed) {
  SweepGrid grid = full_grid(seed);
  grid.utilizations = {0.9};
  grid.buffer_ms = {10.0};
  return grid;
}

vbr::sweep::PoolOptions pool_options(const std::filesystem::path& dir, const SweepGrid& grid) {
  vbr::sweep::PoolOptions options;
  options.sweep_dir = dir;
  options.grid = grid;
  options.shard_count = kShards;
  // Far longer than any healthy shard takes, so a healthy run never steals.
  options.lease = {600.0, 2.0};
  options.durable = true;
  return options;
}

/// One settle event, written by a pool process through an O_APPEND file the
/// pools inherit. steady_clock is CLOCK_MONOTONIC, shared by all processes.
struct SettleEvent {
  std::int64_t t_ns = 0;
  std::int64_t pid = 0;
  std::uint64_t cell = 0;
  std::uint64_t quarantined = 0;
};

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
      .count();
}

class SettleLog {
 public:
  explicit SettleLog(std::filesystem::path path) : path_(std::move(path)) {
    fd_ = ::open(path_.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_APPEND, 0644);
    if (fd_ < 0) throw vbr::IoError("cannot open " + path_.string());
  }
  SettleLog(const SettleLog&) = delete;
  SettleLog& operator=(const SettleLog&) = delete;
  ~SettleLog() { ::close(fd_); }

  /// The hook each pool calls per settled record.
  std::function<void(const CellRecord&)> hook() const {
    const int fd = fd_;
    return [fd](const CellRecord& record) {
      SettleEvent e;
      e.t_ns = now_ns();
      e.pid = ::getpid();
      e.cell = record.cell_index;
      e.quarantined = record.status == vbr::sweep::CellStatus::kQuarantined ? 1 : 0;
      if (::write(fd, &e, sizeof e) != static_cast<ssize_t>(sizeof e)) {
        throw vbr::IoError("settle log write failed");
      }
    };
  }

  /// Every event since the last reset; the file is emptied for the next sweep.
  std::vector<SettleEvent> drain() {
    const std::string bytes = read_file(path_);
    std::vector<SettleEvent> events(bytes.size() / sizeof(SettleEvent));
    std::memcpy(events.data(), bytes.data(), events.size() * sizeof(SettleEvent));
    if (::ftruncate(fd_, 0) != 0) throw vbr::IoError("cannot reset " + path_.string());
    return events;
  }

 private:
  std::filesystem::path path_;
  int fd_ = -1;
};

/// Per-cell latency as a pool sees it: the gap between consecutive settles
/// of one pool (each pool settles its cells one at a time), the first one
/// measured from the sweep's start.
std::vector<double> settle_intervals_ms(std::vector<SettleEvent> events, std::int64_t start_ns) {
  std::sort(events.begin(), events.end(), [](const SettleEvent& a, const SettleEvent& b) {
    return a.pid != b.pid ? a.pid < b.pid : a.t_ns < b.t_ns;
  });
  std::vector<double> out;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const bool first = i == 0 || events[i - 1].pid != events[i].pid;
    const std::int64_t from = first ? start_ns : events[i - 1].t_ns;
    out.push_back(static_cast<double>(events[i].t_ns - from) * 1e-6);
  }
  return out;
}

/// Every cell of the grid with its split seed, as the supervisor builds them.
std::vector<CellSpec> cell_specs(const SweepGrid& grid) {
  const std::vector<std::uint64_t> seeds = vbr::sweep::derive_cell_seeds(grid);
  std::vector<CellSpec> specs;
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    specs.push_back(vbr::sweep::cell_at(grid, i));
    specs.back().seed = seeds[i];
  }
  return specs;
}

std::string result_bytes(const CellResult& r) {
  std::ostringstream out(std::ios::binary);
  vbr::sweep::write_cell_result(out, r);
  return out.str();
}

/// evaluate_cell, split into its two halves through the same public calls:
/// traffic generation (generate_sources + aggregate) and the queue model.
struct SplitCell {
  CellResult result;
  double generate_ms = 0;
  double queue_ms = 0;
};

SplitCell evaluate_split(const CellSpec& spec) {
  SplitCell out;
  const auto t0 = Clock::now();
  vbr::engine::GenerationPlan plan;
  plan.num_sources = spec.num_sources;
  plan.frames_per_source = spec.frames_per_source;
  plan.seed = spec.seed;
  plan.params.marginal.mu_gamma = 27791.0;
  plan.params.marginal.sigma_gamma = 6254.0;
  plan.params.marginal.tail_slope = 12.0;
  plan.params.hurst = spec.hurst;
  plan.threads = 1;
  const std::vector<double> aggregate = vbr::engine::generate_sources(plan).aggregate();
  out.generate_ms = ms_since(t0);

  const auto t1 = Clock::now();
  CellResult& result = out.result;
  const double mean_bytes = vbr::sample_mean(aggregate);
  const double capacity = mean_bytes / kDtSeconds / spec.utilization;
  result.mean_rate_bps = mean_bytes * 8.0 / kDtSeconds;
  result.capacity_bps = capacity * 8.0;
  result.buffer_bytes = spec.buffer_delay_ms * 1e-3 * capacity;
  switch (spec.queue) {
    case QueueKind::kFluid: {
      const auto fluid = vbr::net::run_fluid_queue(aggregate, kDtSeconds, capacity,
                                                   result.buffer_bytes);
      result.loss_rate = fluid.loss_rate();
      result.mean_queue_bytes = fluid.mean_queue_bytes;
      result.max_queue_bytes = fluid.max_queue_bytes;
      break;
    }
    case QueueKind::kCell: {
      vbr::Rng rng(spec.seed);
      result.loss_rate = vbr::net::run_cell_queue(aggregate, kDtSeconds, capacity,
                                                  result.buffer_bytes,
                                                  vbr::net::CellSpacing::kUniform, rng)
                             .loss_rate();
      break;
    }
    case QueueKind::kFbm: {
      const auto traffic = vbr::net::fit_fbm_traffic(aggregate, spec.hurst);
      result.overflow_probability = vbr::net::fbm_overflow_probability(
          traffic, capacity * kDtSeconds, result.buffer_bytes);
      result.loss_rate = result.overflow_probability;
      if (result.buffer_bytes > 0.0 && spec.utilization < 1.0) {
        result.required_capacity_bps =
            vbr::net::fbm_required_capacity(traffic, result.buffer_bytes, kFbmEpsilon) * 8.0 /
            kDtSeconds;
      }
      break;
    }
  }
  out.queue_ms = ms_since(t1);
  return out;
}

/// Cells chosen from the seed, so every run rechecks a different sample.
std::vector<std::uint64_t> sample_cells(std::uint64_t seed, std::size_t total, std::size_t n) {
  vbr::Rng rng(seed ^ 0x5eedce11ULL);
  std::vector<std::uint64_t> cells;
  while (cells.size() < n) {
    const std::uint64_t c = rng.uniform_index(total);
    if (std::find(cells.begin(), cells.end(), c) == cells.end()) cells.push_back(c);
  }
  return cells;
}

struct SweepRun {
  vbr::sweep::SweepReport report;
  double wall_s = 0;
  double collect_ms = 0;
  std::vector<double> settle_ms;
  std::size_t pools_failed = 0;
};

SweepRun run_one_sweep(const std::filesystem::path& dir, const SweepGrid& grid,
                       std::size_t pools, SettleLog& settles, Tracer& tracer) {
  vbr::sweep::PoolOptions options = pool_options(dir, grid);
  options.on_cell_settled = settles.hook();
  SweepRun run;
  const auto scope = tracer.span("sweep.run");
  const std::int64_t start_ns = now_ns();
  const auto t0 = Clock::now();
  {
    const auto s = tracer.span("sweep.run_pools");
    run.pools_failed = vbr::sweep::run_pools(options, pools).pools_failed;
  }
  {
    const auto s = tracer.span("sweep.collect");
    run.report = vbr::sweep::collect_sweep(dir, grid, kShards, /*require_complete=*/true);
  }
  run.wall_s = seconds_since(t0);
  std::vector<double> collect_ms;
  for (std::size_t rep = 0; rep < kCollectReps; ++rep) {
    const auto t1 = Clock::now();
    const auto again = vbr::sweep::collect_sweep(dir, grid, kShards, true);
    collect_ms.push_back(ms_since(t1));
    if (again.results_hash != run.report.results_hash) throw vbr::IoError("collect_sweep is not repeatable");
  }
  run.collect_ms = median(collect_ms);
  run.settle_ms = settle_intervals_ms(settles.drain(), start_ns);
  return run;
}

}  // namespace

void run_sweep(const Options& options, Tracer& tracer, Result& result) {
  const SweepGrid grid = full_grid(options.seed);
  const std::vector<CellSpec> specs = cell_specs(grid);
  SettleLog settles(options.work_dir / "settle.bin");

  // Set-up: what a supervisor plans before its first dispatch — validate the
  // grid and enumerate every cell with its split seed. (run_pools creates
  // the sweep directory itself, inside the timed sweep.)
  std::vector<double> setup_s;
  std::size_t total = 0;
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    const auto t0 = Clock::now();
    grid.validate();
    total = cell_specs(grid).size();
    setup_s.push_back(seconds_since(t0));
  }

  std::vector<double> settle_ms;
  std::vector<double> collect_ms;
  std::vector<double> cells_per_s;
  std::uint64_t cells = 0, quarantined = 0;
  std::uint64_t first_hash = 0;
  bool hashes_agree = true;
  std::size_t sweeps = 0, pools_failed = 0;
  const auto start = Clock::now();
  while (sweeps == 0 || seconds_since(start) < options.seconds) {
    const std::filesystem::path dir = options.work_dir / ("sweep_" + std::to_string(sweeps));
    SweepRun run = run_one_sweep(dir, grid, kPools, settles, tracer);
    cells_per_s.push_back(static_cast<double>(run.report.records.size()) / run.wall_s);
    collect_ms.push_back(run.collect_ms);
    settle_ms.insert(settle_ms.end(), run.settle_ms.begin(), run.settle_ms.end());
    cells += run.report.records.size();
    quarantined += run.report.quarantined;
    pools_failed += run.pools_failed;
    if (sweeps == 0) {
      first_hash = run.report.results_hash;
      result.pin("sweep.results_hash", first_hash);
      // Sampled cells re-evaluated in-process must equal their log records.
      for (const std::uint64_t c : sample_cells(options.seed, total, kRecheckCells)) {
        const CellRecord& rec = run.report.records.at(c);
        const bool same = rec.status == vbr::sweep::CellStatus::kDone &&
                          result_bytes(vbr::sweep::evaluate_cell(specs.at(c))) ==
                              result_bytes(rec.result);
        result.check("sweep cell " + std::to_string(c) + " re-evaluates to its log record",
                     same);
      }
    }
    hashes_agree = hashes_agree && run.report.results_hash == first_hash;
    std::filesystem::remove_all(dir);
    ++sweeps;
  }
  result.check("sweep results_hash equal across sweeps", hashes_agree,
               std::to_string(sweeps) + " sweeps, " + hex64(first_hash));
  result.check("sweep pools exited cleanly", pools_failed == 0,
               std::to_string(pools_failed) + " failed pools");
  result.check("sweep settle hook saw every cell", settle_ms.size() == cells,
               std::to_string(settle_ms.size()) + " of " + std::to_string(cells));

  result.attempted = cells;
  result.failed = quarantined;
  result.metric("setup_s", median(setup_s), "s", setup_s.size());
  result.metric("throughput_per_s", median(cells_per_s), "1/s", sweeps);
  result.metric("op_p50_ms", median(settle_ms), "ms", settle_ms.size());
  result.metric("op_tail_ms", percentile(settle_ms, 90.0), "ms", settle_ms.size());

  result.reported("setup_s", median(setup_s), "s", setup_s.size());
  result.reported("sweep_cells_per_s", median(cells_per_s), "cells/s", sweeps);
  result.reported("cell_settle_p50_ms", median(settle_ms), "ms", settle_ms.size());
  result.reported("cell_settle_p90_ms", percentile(settle_ms, 90.0), "ms", settle_ms.size());
  result.reported("collect_ms", median(collect_ms), "ms", collect_ms.size());
  result.reported("failed_share", static_cast<double>(quarantined) / static_cast<double>(cells),
                  "ratio", 1);
}

void layers_sweep(const Options& options, Tracer& tracer, Result& result, bool own) {
  const SweepGrid grid = layer_grid(options.seed);
  const std::vector<CellSpec> specs = cell_specs(grid);
  const std::size_t total = specs.size();
  SettleLog settles(options.work_dir / "layer_settle.bin");

  // Compute: each queue kind's whole cell, and the same cell split into
  // generation and queue model. The split must reproduce the bytes.
  std::map<QueueKind, std::vector<double>> eval_ms, gen_ms, queue_ms;
  std::size_t split_mismatches = 0;
  for (std::size_t i = 0; i < total; ++i) {
    const CellSpec& spec = specs[i];
    CellResult whole;
    {
      const auto s = tracer.span("sweep.cell_eval");
      const auto t0 = Clock::now();
      whole = vbr::sweep::evaluate_cell(spec);
      eval_ms[spec.queue].push_back(ms_since(t0));
    }
    const auto s = tracer.span("sweep.cell_split");
    const SplitCell split = evaluate_split(spec);
    gen_ms[spec.queue].push_back(split.generate_ms);
    queue_ms[spec.queue].push_back(split.queue_ms);
    split_mismatches += result_bytes(split.result) != result_bytes(whole);
  }
  result.check("sweep split cells reproduce evaluate_cell bytes", split_mismatches == 0,
               std::to_string(split_mismatches) + " of " + std::to_string(total) + " differ");
  std::vector<double> all_gen;
  for (const auto& [kind, v] : gen_ms) all_gen.insert(all_gen.end(), v.begin(), v.end());
  result.layer("engine.generate.ms_per_cell", median(all_gen), "ms", all_gen.size());
  for (const QueueKind kind : {QueueKind::kFluid, QueueKind::kCell, QueueKind::kFbm}) {
    const std::string name = vbr::sweep::queue_kind_name(kind);
    result.layer("sweep.cell_eval." + name + "_ms", median(eval_ms[kind]), "ms",
                 eval_ms[kind].size());
    result.layer("net." + name + ".ms_per_cell", median(queue_ms[kind]), "ms",
                 queue_ms[kind].size());
  }

  // Dispatch: the same cells settled with and without fork isolation, twice
  // each, alternating. Each cell's settle time is the gap since the previous
  // settle; the overhead is the median of the per-cell differences.
  std::vector<std::uint64_t> cells(total);
  for (std::size_t i = 0; i < total; ++i) cells[i] = i;
  auto settle = [&](bool isolate, std::vector<CellRecord>& out, std::vector<double>& cell_ms) {
    vbr::sweep::SweepLimits limits;
    limits.isolate = isolate;
    out.clear();
    cell_ms.assign(total, 0.0);
    auto last = Clock::now();
    vbr::sweep::settle_cells(grid, cells, limits, {}, [&](const CellRecord& r) {
      cell_ms.at(r.cell_index) = ms_since(last);
      last = Clock::now();
      out.push_back(r);
      return true;
    });
  };
  std::vector<CellRecord> isolated, in_process;
  std::vector<double> isolated_ms, in_process_ms, fork_ms;
  bool same_records = true;
  for (std::size_t rep = 0; rep < 2; ++rep) {
    settle(true, isolated, isolated_ms);
    settle(false, in_process, in_process_ms);
    same_records = same_records && isolated.size() == in_process.size();
    for (std::size_t i = 0; same_records && i < isolated.size(); ++i) {
      same_records = result_bytes(isolated[i].result) == result_bytes(in_process[i].result);
    }
    for (std::size_t c = 0; c < total; ++c) fork_ms.push_back(isolated_ms[c] - in_process_ms[c]);
  }
  result.check("sweep isolated and in-process settles agree", same_records);
  const double fork_overhead_ms = median(fork_ms);
  result.layer("sweep.worker.fork_overhead_ms_per_cell", fork_overhead_ms, "ms", fork_ms.size());

  // Durable result-log appends of real records.
  double append_us = 0;
  {
    const std::filesystem::path path = options.work_dir / "append.log";
    auto writer = vbr::sweep::ResultLogWriter::create(
        path, vbr::sweep::shard_log_header(grid, 1, 0), /*durable=*/true);
    std::vector<double> samples;
    for (const CellRecord& r : in_process) {
      const auto s = tracer.span("sweep.result_log.append");
      const auto t0 = Clock::now();
      writer.append(r);
      samples.push_back(1e3 * ms_since(t0));
    }
    writer.close();
    std::filesystem::remove(path);
    append_us = median(samples);
    result.layer("sweep.result_log.append_us", append_us, "us", samples.size());
  }

  // Lease primitives on a fresh lease file each time.
  {
    const std::filesystem::path dir = options.work_dir / "leases";
    std::filesystem::create_directories(dir);
    std::vector<double> claim_us, heartbeat_us, release_us;
    bool protocol_ok = true;
    for (std::size_t i = 0; i < 64; ++i) {
      const std::filesystem::path lease = dir / "shard.lease";
      const std::string token = "perfbench-" + std::to_string(i);
      auto t0 = Clock::now();
      protocol_ok &= vbr::sweep::claim_lease(lease, token, 600.0, true) ==
                     vbr::sweep::LeaseClaim::kClaimed;
      claim_us.push_back(1e3 * ms_since(t0));
      t0 = Clock::now();
      protocol_ok &= vbr::sweep::heartbeat_lease(lease, token);
      heartbeat_us.push_back(1e3 * ms_since(t0));
      t0 = Clock::now();
      vbr::sweep::release_lease(lease, token);
      release_us.push_back(1e3 * ms_since(t0));
      protocol_ok &= !std::filesystem::exists(lease);
    }
    std::filesystem::remove_all(dir);
    result.check("sweep lease claim/heartbeat/release succeed", protocol_ok);
    result.layer("sweep.lease.claim_us", median(claim_us), "us", claim_us.size());
    result.layer("sweep.lease.heartbeat_us", median(heartbeat_us), "us", heartbeat_us.size());
    result.layer("sweep.lease.release_us", median(release_us), "us", release_us.size());
  }

  // Pools: one in-process pool (its report carries the retry count), then
  // kPools forked pools; untraced first when this is the traced workload.
  Tracer quiet(false);
  const std::filesystem::path one_dir = options.work_dir / "layer_one_pool";
  double one_pool_s = 0;
  vbr::sweep::PoolReport one_report;
  {
    vbr::sweep::PoolOptions opts = pool_options(one_dir, grid);
    const auto t0 = Clock::now();
    one_report = vbr::sweep::run_pool(opts);
    one_pool_s = seconds_since(t0);
  }
  const std::uint64_t one_hash =
      vbr::sweep::collect_sweep(one_dir, grid, kShards, true).results_hash;
  std::filesystem::remove_all(one_dir);
  std::vector<double> untraced_s, traced_s;
  SweepRun pools;
  for (std::size_t rep = 0; rep < (own ? 2 : 1); ++rep) {
    const std::filesystem::path dir = options.work_dir / "layer_pools";
    if (own) {
      untraced_s.push_back(run_one_sweep(dir, grid, kPools, settles, quiet).wall_s);
      std::filesystem::remove_all(dir);
    }
    pools = run_one_sweep(dir, grid, kPools, settles, tracer);
    traced_s.push_back(pools.wall_s);
    std::filesystem::remove_all(dir);
  }
  result.check("sweep 1-pool hash equals multi-pool hash",
               one_hash == pools.report.results_hash && pools.pools_failed == 0);
  result.layer("sweep.collect.ms", pools.collect_ms, "ms", 1);
  result.layer("sweep.retried_attempts", static_cast<double>(one_report.retried_attempts),
               "count", 1);
  if (can_measure_scaling()) {
    result.layer("sweep.pool_speedup", one_pool_s / pools.wall_s, "x", 1);
  } else {
    result.layer_null("sweep.pool_speedup", "x", "hardware_concurrency < 2: scaling not measurable");
  }
  // Attributed: each cell's evaluation plus its fork and durable append,
  // spread over the pools; the rest is leases, shard turnover and collect.
  double attributed_ms = 0;
  for (const auto& [kind, v] : eval_ms) {
    for (const double ms : v) attributed_ms += ms + fork_overhead_ms + 1e-3 * append_us;
  }
  attributed_ms /= static_cast<double>(kPools);
  result.layer("sweep.unattributed_share", 1.0 - attributed_ms / (1e3 * pools.wall_s), "ratio",
               1);
  if (own) {
    result.layer("trace.overhead_share", median(traced_s) / median(untraced_s) - 1.0, "ratio",
                 traced_s.size());
  }
}

}  // namespace perfbench
