// run_sweep: process-isolated §5 evaluation sweep with watchdogs, resource
// ceilings, retry/quarantine, append-only result logs, and sharded
// multi-pool work-stealing dispatch.
//
// The queue × Hurst × utilization × buffer × sources grid is split into
// shards in a sweep directory, and N pool processes claim them through file
// leases (vbr::sweep::run_pools). Every cell runs in a forked worker (one
// per shard, reused while cells succeed) under a per-cell watchdog deadline
// and setrlimit ceilings. Crashed, hung, and OOM-killed workers are retried
// from the cell's deterministic seed (requeued with a due time — one flaky
// cell never stalls the rest); cells that fail every attempt are
// quarantined with a structured failure record. Progress appends to the
// shard's VBRSWPL1 result log after every settled cell — O(1) per cell.
//
// Rerunning the same command resumes: torn tails are truncated, settled
// cells salvaged, and the results hash is bit-identical to an uninterrupted
// run's. A pool killed mid-shard leaves its lease behind; a survivor, or the
// rerun, steals it once it is older than --lease-ttl and replays the shard
// from its log prefix. --merge-only collects without computing.
// scripts/crash_soak.sh --sweep and --shard soak all of this.
//
// Usage:
//   ./run_sweep --shard-dir DIR [options]
//       --shard-dir DIR      sweep directory (created; rerun to resume)
//       --queues LIST        comma list of fluid,cell,fbm   (default fluid)
//       --hursts LIST        comma list of H values         (default 0.8)
//       --utilizations LIST  comma list in (0,1]            (default 0.9)
//       --buffers-ms LIST    comma list of delay budgets    (default 10)
//       --sources LIST       comma list of source counts    (default 1)
//       --frames N           frames per source              (default 4096)
//       --seed S             master seed                    (default 1994)
//       --deadline-sec X     per-attempt watchdog, 0 = off  (default 60)
//       --mem-mib N          RLIMIT_AS ceiling, 0 = off     (default 0)
//       --cpu-sec N          RLIMIT_CPU ceiling, 0 = off    (default 0)
//       --attempts N         tries per cell                 (default 3)
//       --backoff-ms N       base retry backoff             (default 0)
//       --durable            fsync log appends and markers
//       --hash-out FILE      write the results hash (hex) atomically
//       --quiet              suppress per-cell progress lines
//       --shards N           shard count                    (default 8)
//       --pools N            work-stealing pool processes   (default 4)
//       --lease-ttl X        steal leases staler than X sec (default 10)
//       --heartbeat X        lease refresh period           (default 1)
//       --merge-only         collect + merge existing logs, compute nothing
//   Fault injection (soak/test seam; disabled by default):
//       --fault-rate P       P(first attempt faults) per cell
//       --fault-seed S       fault stream seed              (default 7)
//       --fault-kinds LIST   comma subset of crash,hang,oom (default all)
//       --poison LIST        comma list of cell indexes that always fail
//       --kill-pool LIST     comma list of POOL:RECORDS — SIGKILL pool POOL
//                            after it appends RECORDS records
//       --torn-tail          killed pools also leave a torn log tail
//       --duplicate-claim N  pool N claims one shard through a fresh lease
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <string>
#include <vector>

#include "vbr/common/atomic_file.hpp"
#include "vbr/common/error.hpp"
#include "vbr/sweep/dispatch.hpp"

namespace {

std::uint64_t parse_u64(const char* text, const char* flag) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') {
    std::fprintf(stderr, "run_sweep: bad value for %s: %s\n", flag, text);
    std::exit(2);
  }
  return static_cast<std::uint64_t>(v);
}

double parse_f64(const char* text, const char* flag) {
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0') {
    std::fprintf(stderr, "run_sweep: bad value for %s: %s\n", flag, text);
    std::exit(2);
  }
  return v;
}

std::vector<std::string> split_csv(const std::string& text) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t comma = text.find(',', start);
    const std::size_t end = (comma == std::string::npos) ? text.size() : comma;
    parts.push_back(text.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return parts;
}

std::vector<double> parse_f64_list(const char* text, const char* flag) {
  std::vector<double> values;
  for (const std::string& part : split_csv(text)) {
    values.push_back(parse_f64(part.c_str(), flag));
  }
  return values;
}

std::vector<std::uint64_t> parse_u64_list(const char* text, const char* flag) {
  std::vector<std::uint64_t> values;
  for (const std::string& part : split_csv(text)) {
    values.push_back(parse_u64(part.c_str(), flag));
  }
  return values;
}

/// "POOL:RECORDS" pairs for --kill-pool.
std::map<std::size_t, std::uint64_t> parse_kill_plan(const char* text) {
  std::map<std::size_t, std::uint64_t> plan;
  for (const std::string& part : split_csv(text)) {
    const std::size_t colon = part.find(':');
    if (colon == std::string::npos) {
      std::fprintf(stderr, "run_sweep: --kill-pool expects POOL:RECORDS, got %s\n",
                   part.c_str());
      std::exit(2);
    }
    const std::uint64_t pool = parse_u64(part.substr(0, colon).c_str(), "--kill-pool");
    const std::uint64_t records =
        parse_u64(part.substr(colon + 1).c_str(), "--kill-pool");
    plan[static_cast<std::size_t>(pool)] = records;
  }
  return plan;
}

int usage() {
  std::fprintf(stderr,
               "usage: run_sweep --shard-dir DIR [--queues LIST]\n"
               "                 [--hursts LIST] [--utilizations LIST]\n"
               "                 [--buffers-ms LIST] [--sources LIST] [--frames N]\n"
               "                 [--seed S] [--deadline-sec X] [--mem-mib N]\n"
               "                 [--cpu-sec N] [--attempts N] [--backoff-ms N]\n"
               "                 [--durable] [--hash-out FILE] [--quiet]\n"
               "                 [--shards N] [--pools N] [--lease-ttl X]\n"
               "                 [--heartbeat X] [--merge-only]\n"
               "                 [--fault-rate P] [--fault-seed S]\n"
               "                 [--fault-kinds LIST] [--poison LIST]\n"
               "                 [--kill-pool LIST] [--torn-tail]\n"
               "                 [--duplicate-claim N]\n");
  return 2;
}

void write_hash_out(const std::string& hash_out, std::uint64_t hash) {
  if (hash_out.empty()) return;
  char line[32];
  std::snprintf(line, sizeof line, "%016" PRIx64 "\n", hash);
  vbr::write_file_atomic(hash_out, line);
}

void print_report(const vbr::sweep::SweepReport& report) {
  std::printf("cells        %zu\n", report.total_cells);
  std::printf("completed    %zu\n", report.completed);
  std::printf("quarantined  %zu\n", report.quarantined);
  std::printf("results_hash %016" PRIx64 "\n", report.results_hash);
  for (const vbr::sweep::CellRecord& record : report.records) {
    if (record.status != vbr::sweep::CellStatus::kQuarantined) continue;
    std::printf("quarantine   cell %" PRIu64 " %s attempts=%" PRIu64
                " signal=%d exit=%d rss_kib=%" PRIu64 ": %s\n",
                record.cell_index, vbr::sweep::failure_kind_name(record.failure.kind),
                record.failure.attempts, record.failure.term_signal,
                record.failure.exit_code, record.failure.max_rss_kib,
                record.failure.message.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  vbr::sweep::PoolOptions options;
  options.shard_count = 8;
  options.lease = {10.0, 1.0};
  options.faults.seed = 7;
  std::size_t pools = 4;
  std::string hash_out;
  bool quiet = false;
  bool merge_only = false;
  std::map<std::size_t, std::uint64_t> kill_plan;
  bool torn_tail = false;
  std::size_t duplicate_claim_pool = static_cast<std::size_t>(-1);

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "run_sweep: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--queues") {
      options.grid.queues.clear();
      for (const std::string& name : split_csv(next())) {
        try {
          options.grid.queues.push_back(vbr::sweep::parse_queue_kind(name));
        } catch (const vbr::Error& e) {
          std::fprintf(stderr, "run_sweep: %s\n", e.what());
          return 2;
        }
      }
    } else if (arg == "--hursts") {
      options.grid.hursts = parse_f64_list(next(), "--hursts");
    } else if (arg == "--utilizations") {
      options.grid.utilizations = parse_f64_list(next(), "--utilizations");
    } else if (arg == "--buffers-ms") {
      options.grid.buffer_ms = parse_f64_list(next(), "--buffers-ms");
    } else if (arg == "--sources") {
      options.grid.sources.clear();
      for (const std::uint64_t n : parse_u64_list(next(), "--sources")) {
        options.grid.sources.push_back(static_cast<std::size_t>(n));
      }
    } else if (arg == "--frames") {
      options.grid.frames_per_source =
          static_cast<std::size_t>(parse_u64(next(), "--frames"));
    } else if (arg == "--seed") {
      options.grid.seed = parse_u64(next(), "--seed");
    } else if (arg == "--deadline-sec") {
      options.limits.worker.deadline_seconds = parse_f64(next(), "--deadline-sec");
    } else if (arg == "--mem-mib") {
      options.limits.worker.memory_bytes = parse_u64(next(), "--mem-mib") << 20;
    } else if (arg == "--cpu-sec") {
      options.limits.worker.cpu_seconds = parse_u64(next(), "--cpu-sec");
    } else if (arg == "--attempts") {
      options.limits.max_attempts =
          static_cast<std::size_t>(parse_u64(next(), "--attempts"));
    } else if (arg == "--backoff-ms") {
      options.limits.backoff_seconds =
          static_cast<double>(parse_u64(next(), "--backoff-ms")) / 1000.0;
    } else if (arg == "--durable") {
      options.durable = true;
    } else if (arg == "--hash-out") {
      hash_out = next();
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--shard-dir") {
      options.sweep_dir = next();
    } else if (arg == "--shards") {
      options.shard_count = parse_u64(next(), "--shards");
    } else if (arg == "--pools") {
      pools = static_cast<std::size_t>(parse_u64(next(), "--pools"));
    } else if (arg == "--lease-ttl") {
      options.lease.ttl_seconds = parse_f64(next(), "--lease-ttl");
    } else if (arg == "--heartbeat") {
      options.lease.heartbeat_seconds = parse_f64(next(), "--heartbeat");
    } else if (arg == "--merge-only") {
      merge_only = true;
    } else if (arg == "--fault-rate") {
      options.faults.rate = parse_f64(next(), "--fault-rate");
    } else if (arg == "--fault-seed") {
      options.faults.seed = parse_u64(next(), "--fault-seed");
    } else if (arg == "--fault-kinds") {
      options.faults.crash = options.faults.hang = options.faults.oom = false;
      for (const std::string& kind : split_csv(next())) {
        if (kind == "crash") {
          options.faults.crash = true;
        } else if (kind == "hang") {
          options.faults.hang = true;
        } else if (kind == "oom") {
          options.faults.oom = true;
        } else {
          std::fprintf(stderr, "run_sweep: unknown fault kind: %s\n", kind.c_str());
          return 2;
        }
      }
    } else if (arg == "--poison") {
      options.faults.poison = parse_u64_list(next(), "--poison");
    } else if (arg == "--kill-pool") {
      kill_plan = parse_kill_plan(next());
    } else if (arg == "--torn-tail") {
      torn_tail = true;
    } else if (arg == "--duplicate-claim") {
      duplicate_claim_pool = static_cast<std::size_t>(parse_u64(next(), "--duplicate-claim"));
    } else {
      return usage();
    }
  }
  if (options.sweep_dir.empty()) return usage();

  if (!quiet) {
    options.on_cell_settled = [](const vbr::sweep::CellRecord& record) {
      if (record.status == vbr::sweep::CellStatus::kDone) {
        std::fprintf(stderr, "cell %6" PRIu64 "  done        loss=%.3e\n",
                     record.cell_index, record.result.loss_rate);
      } else {
        std::fprintf(stderr, "cell %6" PRIu64 "  quarantined %s: %s\n",
                     record.cell_index,
                     vbr::sweep::failure_kind_name(record.failure.kind),
                     record.failure.message.c_str());
      }
    };
  }

  try {
    if (!merge_only) {
      const vbr::sweep::MultiPoolReport multi = vbr::sweep::run_pools(
          options, pools, [&](std::size_t pool) {
            vbr::sweep::PoolFaultPlan plan;
            if (const auto it = kill_plan.find(pool); it != kill_plan.end()) {
              plan.kill_after_records = it->second;
              plan.torn_tail_on_kill = torn_tail;
            }
            plan.duplicate_claim = pool == duplicate_claim_pool;
            return plan;
          });
      std::printf("pools        %zu\n", multi.pools);
      std::printf("pools_failed %zu\n", multi.pools_failed);
      if (!multi.sweep_complete) {
        // Injected (or real) pool deaths outran the survivors. Everything
        // settled so far is on disk; rerunning the same command steals the
        // orphaned shards and finishes — the soak does exactly that.
        std::fprintf(stderr,
                     "run_sweep: sweep incomplete (%zu of %zu pools failed); "
                     "rerun to resume\n",
                     multi.pools_failed, multi.pools);
        return 3;
      }
    }

    const vbr::sweep::SweepReport report =
        vbr::sweep::collect_sweep(options.sweep_dir, options.grid, options.shard_count,
                                  /*require_complete=*/true);
    print_report(report);
    write_hash_out(hash_out, report.results_hash);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "run_sweep: %s\n", e.what());
    return 1;
  }
  return 0;
}
