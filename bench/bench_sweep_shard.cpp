// bench_sweep_shard: checkpoint-I/O cost and steal latency of the sharded
// sweep machinery (src/vbr/sweep), emitted as JSON for dashboards/CI.
//
// Three questions, one driver:
//   1. Checkpoint I/O per settled cell — the VBRSWPL1 log appends one
//      frame per settled cell (O(1) amortized). It runs against real files
//      over a ladder of cell counts and reports measured bytes and seconds
//      per cell; the log's bytes/cell must stay flat.
//   2. Steal latency — how long a survivor takes to claim a dead pool's
//      stale lease and salvage its log prefix (claim_lease steal path +
//      recover_result_log), measured over many iterations.
//   3. Multi-pool throughput — a real sweep via run_pools for each pool
//      count, once in-process (isolate = false) and once on the production
//      path (isolate = true: one forked worker per shard), with the merged
//      results hash doubling as the determinism witness (every row must
//      agree bit-for-bit with the first). Each isolated row reports what
//      isolation costs per cell against the in-process row before it.
//
// Usage:
//   ./bench_sweep_shard [cells_list] [pool_list] [steal_iters]
// e.g. ./bench_sweep_shard 512,2048,8192 1,2,4 200
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench_support.hpp"
#include "vbr/sweep/dispatch.hpp"
#include "vbr/sweep/result_log.hpp"
#include "vbr/sweep/shard.hpp"
#include "vbr/sweep/supervisor.hpp"

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

void appendf(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  const int len = std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  if (len > 0) out.append(buf, std::min(static_cast<std::size_t>(len), sizeof buf - 1));
}

std::vector<std::size_t> parse_list(const char* arg) {
  std::vector<std::size_t> values;
  std::string token;
  for (const char* p = arg;; ++p) {
    if (*p == ',' || *p == '\0') {
      if (!token.empty()) values.push_back(std::stoul(token));
      token.clear();
      if (*p == '\0') break;
    } else {
      token += *p;
    }
  }
  return values;
}

vbr::sweep::CellRecord synthetic_record(std::uint64_t index) {
  vbr::sweep::CellRecord record;
  record.cell_index = index;
  record.status = vbr::sweep::CellStatus::kDone;
  record.result.mean_rate_bps = 5.3e6 + static_cast<double>(index);
  record.result.capacity_bps = 6.6e6;
  record.result.buffer_bytes = 8192.0;
  record.result.loss_rate = 1.25e-3;
  record.result.mean_queue_bytes = 900.0;
  record.result.max_queue_bytes = 8192.0;
  return record;
}

/// A grid of ~`cells` cells (hursts x 2 utilizations x 2 source counts),
/// cheap enough to evaluate in-process.
vbr::sweep::SweepGrid grid_of(std::size_t cells) {
  vbr::sweep::SweepGrid grid;
  grid.queues = {vbr::sweep::QueueKind::kFluid};
  const std::size_t steps = std::max<std::size_t>(1, cells / 4);
  grid.hursts.clear();
  for (std::size_t i = 0; i < steps; ++i) {
    grid.hursts.push_back(0.55 + 0.4 * static_cast<double>(i) /
                                     static_cast<double>(steps));
  }
  grid.utilizations = {0.8, 0.9};
  grid.buffer_ms = {10.0};
  grid.sources = {1, 2};
  grid.frames_per_source = 64;
  grid.seed = 1994;
  return grid;
}

struct CheckpointCost {
  std::uint64_t bytes = 0;
  double seconds = 0.0;
};

/// Append one framed record per settled cell.
CheckpointCost log_append_cost(const std::filesystem::path& path, std::size_t cells) {
  vbr::sweep::ResultLogHeader header;
  header.sweep_fingerprint = 0xbe9c4a11;
  header.shard_fingerprint = 0x5eed;
  header.total_cells = cells;
  header.first_cell = 0;
  header.end_cell = cells;
  CheckpointCost cost;
  const auto start = std::chrono::steady_clock::now();
  auto writer = vbr::sweep::ResultLogWriter::create(path, header, false);
  for (std::size_t i = 0; i < cells; ++i) writer.append(synthetic_record(i));
  writer.close();
  cost.seconds = seconds_since(start);
  cost.bytes = std::filesystem::file_size(path);
  std::filesystem::remove(path);
  return cost;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::size_t> cells_list =
      (argc > 1) ? parse_list(argv[1]) : std::vector<std::size_t>{512, 2048, 8192};
  const std::vector<std::size_t> pool_list =
      (argc > 2) ? parse_list(argv[2]) : std::vector<std::size_t>{1, 2, 4};
  const std::size_t steal_iters = (argc > 3) ? std::stoul(argv[3]) : 200;

  // Pid-salted scratch dir: two bench invocations (ctest smoke next to a
  // manual run) must not tear each other's sweep directories down.
  const auto scratch =
      std::filesystem::temp_directory_path() /
      ("bench_sweep_shard_" + std::to_string(static_cast<long>(::getpid())));
  std::filesystem::remove_all(scratch);
  std::filesystem::create_directories(scratch);

  std::string json;
  appendf(json, "{\n");
  appendf(json, "  \"benchmark\": \"sweep_shard\",\n");
  appendf(json, "  \"contracts\": \"%s\",\n", vbrbench::contracts_state());
  appendf(json, "  \"hardware_concurrency\": %u,\n", std::thread::hardware_concurrency());

  // --- 1. checkpoint I/O per settled cell, append-only ---
  appendf(json, "  \"checkpoint_io\": [\n");
  double first_log_bpc = 0.0;
  double last_log_bpc = 0.0;
  for (std::size_t i = 0; i < cells_list.size(); ++i) {
    const std::size_t cells = cells_list[i];
    const CheckpointCost append = log_append_cost(scratch / "shard.log", cells);
    const double append_bpc =
        static_cast<double>(append.bytes) / static_cast<double>(cells);
    if (i == 0) first_log_bpc = append_bpc;
    last_log_bpc = append_bpc;
    appendf(json,
            "    {\"cells\": %zu, "
            "\"log_append_bytes\": %llu, \"log_append_bytes_per_cell\": %.1f, "
            "\"log_append_seconds\": %.6f}%s\n",
            cells, static_cast<unsigned long long>(append.bytes), append_bpc,
            append.seconds,
            i + 1 < cells_list.size() ? "," : "");
  }
  appendf(json, "  ],\n");
  // O(1) amortized: bytes/cell must not grow with the cell count (the
  // header amortizes away, so the figure *shrinks* toward the frame size).
  const bool amortized_o1 = last_log_bpc <= first_log_bpc * 1.05;
  appendf(json, "  \"log_bytes_per_cell_flat\": %s,\n",
          amortized_o1 ? "true" : "false");

  // --- 2. steal latency: claim a stale lease + salvage the log prefix ---
  const std::size_t salvage_records = 64;
  {
    vbr::sweep::ResultLogHeader header;
    header.sweep_fingerprint = 0xbe9c4a11;
    header.shard_fingerprint = 0x5eed;
    header.total_cells = salvage_records;
    header.first_cell = 0;
    header.end_cell = salvage_records;
    const auto log_path = scratch / "stolen.log";
    auto writer = vbr::sweep::ResultLogWriter::create(log_path, header, false);
    for (std::size_t i = 0; i < salvage_records; ++i) {
      writer.append(synthetic_record(i));
    }
    writer.close();

    const auto lease_path = scratch / "stolen.lease";
    double steal_seconds = 0.0;
    double salvage_seconds = 0.0;
    bool steal_ok = true;
    for (std::size_t i = 0; i < steal_iters; ++i) {
      // A dead pool's lease: present, but its mtime stopped advancing.
      (void)vbr::sweep::claim_lease(lease_path, "dead-pool", 1.0, true);
      std::filesystem::last_write_time(
          lease_path,
          std::filesystem::file_time_type::clock::now() - std::chrono::hours(1));
      const auto steal_start = std::chrono::steady_clock::now();
      const auto claim = vbr::sweep::claim_lease(lease_path, "thief", 1.0, true);
      steal_seconds += seconds_since(steal_start);
      steal_ok = steal_ok && claim == vbr::sweep::LeaseClaim::kStolen;

      const auto salvage_start = std::chrono::steady_clock::now();
      const auto scan = vbr::sweep::recover_result_log(log_path, header);
      salvage_seconds += seconds_since(salvage_start);
      steal_ok = steal_ok && scan.has_value() &&
                 scan->records.size() == salvage_records;
      vbr::sweep::release_lease(lease_path, "thief");
    }
    appendf(json,
            "  \"steal\": {\"iterations\": %zu, \"mean_steal_seconds\": %.6e, "
            "\"salvage_records\": %zu, \"mean_salvage_seconds\": %.6e, "
            "\"all_steals_succeeded\": %s},\n",
            steal_iters, steal_seconds / static_cast<double>(steal_iters),
            salvage_records, salvage_seconds / static_cast<double>(steal_iters),
            steal_ok ? "true" : "false");
    if (!steal_ok) {
      std::fprintf(stderr, "bench_sweep_shard: steal/salvage loop failed\n");
      return 1;
    }
  }

  // --- 3. multi-pool throughput + cross-pool-count determinism witness ---
  const std::size_t sweep_cells = cells_list.front();
  const vbr::sweep::SweepGrid grid = grid_of(sweep_cells);
  appendf(json, "  \"sweep_cells\": %zu,\n", vbr::sweep::cell_count(grid));
  appendf(json, "  \"pools\": [\n");
  std::uint64_t baseline_hash = 0;
  double baseline_cps[2] = {0.0, 0.0};  // first row of each mode
  bool bit_identical = true;
  for (std::size_t i = 0; i < pool_list.size(); ++i) {
    double in_process_wall = 0.0;
    for (const bool isolate : {false, true}) {
      vbr::sweep::PoolOptions options;
      options.sweep_dir = scratch / ("sweep_p" + std::to_string(pool_list[i]) +
                                     (isolate ? "_isolated" : ""));
      options.grid = grid;
      options.shard_count = std::max<std::uint64_t>(1, pool_list[i] * 2);
      options.lease.ttl_seconds = 5.0;
      options.lease.heartbeat_seconds = 0.5;
      options.limits.isolate = isolate;

      const auto start = std::chrono::steady_clock::now();
      const vbr::sweep::MultiPoolReport multi =
          vbr::sweep::run_pools(options, pool_list[i]);
      const double wall = seconds_since(start);
      const vbr::sweep::SweepReport merged = vbr::sweep::collect_sweep(
          options.sweep_dir, grid, options.shard_count);
      const double cps =
          wall > 0.0 ? static_cast<double>(merged.total_cells) / wall : 0.0;
      if (i == 0) baseline_cps[isolate] = cps;
      if (i == 0 && !isolate) {
        baseline_hash = merged.results_hash;
      } else if (merged.results_hash != baseline_hash) {
        bit_identical = false;
      }
      std::string overhead;
      if (isolate) {
        appendf(overhead, ", \"isolation_overhead_ms_per_cell\": %.4f",
                1e3 * (wall - in_process_wall) / static_cast<double>(merged.total_cells));
      } else {
        in_process_wall = wall;
      }
      appendf(json,
              "    {\"pools\": %zu, \"isolate\": %s, \"shards\": %llu, "
              "\"pools_failed\": %zu, \"wall_seconds\": %.6f, "
              "\"cells_per_second\": %.1f, \"speedup_vs_first\": %.3f%s, "
              "\"results_hash\": \"%016llx\"}%s\n",
              pool_list[i], isolate ? "true" : "false",
              static_cast<unsigned long long>(options.shard_count), multi.pools_failed,
              wall, cps, baseline_cps[isolate] > 0.0 ? cps / baseline_cps[isolate] : 0.0,
              overhead.c_str(), static_cast<unsigned long long>(merged.results_hash),
              isolate && i + 1 == pool_list.size() ? "" : ",");
    }
  }
  appendf(json, "  ],\n");
  appendf(json, "  \"bit_identical_across_pool_counts\": %s\n",
          bit_identical ? "true" : "false");
  appendf(json, "}\n");

  std::filesystem::remove_all(scratch);
  std::fputs(json.c_str(), stdout);
  vbrbench::emit_bench_json("sweep_shard", json);
  return (bit_identical && amortized_o1) ? 0 : 1;
}
