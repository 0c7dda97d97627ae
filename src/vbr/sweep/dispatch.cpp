#include "vbr/sweep/dispatch.hpp"

#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <optional>
#include <sstream>
#include <thread>

#include "vbr/common/atomic_file.hpp"
#include "vbr/common/checksum.hpp"
#include "vbr/common/error.hpp"
#include "vbr/sweep/result_log.hpp"

namespace vbr::sweep {

namespace {

std::string hex16(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string shard_file_stem(std::uint64_t shard_index) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "shard_%04llu",
                static_cast<unsigned long long>(shard_index));
  return buf;
}

std::string read_small_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);  // a missing file reads as empty
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// Write a small control file (token, tmp claim). Lease files are
/// scheduling state, not results: losing one costs a replay, never data,
/// so they are never fsynced (DESIGN §13).
void write_small_file(const std::filesystem::path& path, const std::string& data) {
  OutputFile file(path, OutputFile::Mode::kTruncate);
  file.write(data);
  file.close();
}

double lease_age_seconds(const std::filesystem::path& lease_path) {
  std::error_code ec;
  const auto mtime = std::filesystem::last_write_time(lease_path, ec);
  if (ec) return -1.0;  // vanished: the holder released it
  const auto age = std::filesystem::file_time_type::clock::now() - mtime;
  return std::chrono::duration<double>(age).count();
}

/// Establish-or-verify the directory's identity witness. First writer
/// wins; every later pool compares byte-for-byte and a pool bringing a
/// different grid (or shard count) is turned away with both fingerprints
/// in the error — a sweep directory can never blend two sweeps.
void ensure_sweep_meta(const std::filesystem::path& sweep_dir,
                       const ResultLogHeader& shard0, bool durable) {
  const std::filesystem::path meta = sweep_dir / "sweep.meta";
  const std::string expected = encode_log_header(shard0);
  if (std::filesystem::exists(meta)) {
    const std::string found = read_small_file(meta);
    if (found == expected) return;
    std::istringstream in(found, std::ios::binary);
    ResultLogScan scan = scan_result_log(in, meta.string(), nullptr);
    throw IoError(meta.string() + ": sweep directory belongs to a different sweep: " +
                  "grid expects fingerprint " + hex16(shard0.sweep_fingerprint) +
                  " over " + std::to_string(shard0.shard_count) +
                  " shards, directory carries " +
                  hex16(scan.header.sweep_fingerprint) + " over " +
                  std::to_string(scan.header.shard_count) + " shards");
  }
  publish_agreed_file(meta, expected, durable);
}

std::atomic<std::uint64_t> g_claim_counter{0};

/// A sibling of `path` no other writer (process or thread) names.
std::filesystem::path unique_sibling(const std::filesystem::path& path, const char* prefix) {
  return path.parent_path() /
         (prefix + std::to_string(static_cast<std::uint64_t>(::getpid())) + "_" +
          std::to_string(g_claim_counter.fetch_add(1)));
}

/// A torn tail, manufactured: the first half of a plausible frame header,
/// exactly what a SIGKILL mid-append leaves behind. Recovery must truncate
/// it and lose nothing that was whole.
void append_torn_tail(const std::filesystem::path& log_path) {
  const char garbage[7] = {64, 0, 0, 0, 0, 0, 0};
  OutputFile(log_path, OutputFile::Mode::kExisting).write({garbage, sizeof garbage});
}

[[noreturn]] void run_pool_child(const PoolOptions* options) {
  int code = 1;
  try {
    (void)run_pool(*options);
    code = 0;
  } catch (const std::exception& e) {
    // stderr is unbuffered: safe before _exit, and the only trace a failed
    // pool leaves for the dispatcher's operator.
    std::fprintf(stderr, "run_pool[%s]: %s\n", options->pool_id.c_str(), e.what());
  } catch (...) {
    code = 1;
  }
  ::_exit(code);
}

}  // namespace

std::filesystem::path shard_log_path(const std::filesystem::path& sweep_dir,
                                     std::uint64_t shard_index) {
  return sweep_dir / (shard_file_stem(shard_index) + ".log");
}

std::filesystem::path shard_done_path(const std::filesystem::path& sweep_dir,
                                      std::uint64_t shard_index) {
  return sweep_dir / (shard_file_stem(shard_index) + ".done");
}

std::filesystem::path shard_lease_path(const std::filesystem::path& sweep_dir,
                                       std::uint64_t shard_index) {
  return sweep_dir / "leases" / (shard_file_stem(shard_index) + ".lease");
}

void publish_agreed_file(const std::filesystem::path& path, const std::string& content,
                         bool durable) {
  // Each writer stages its own temp, so no writer can truncate a file
  // another already published, and link(2) publishes it only if `path` does
  // not exist yet: the first writer wins, whole, and every later one finds
  // the winner's bytes and compares.
  const std::filesystem::path tmp = unique_sibling(path, ".publish_");
  {
    OutputFile file(tmp, OutputFile::Mode::kTruncate);
    file.write(content);
    if (durable) file.sync_file();
    file.close();
  }
  const int rc = ::link(tmp.c_str(), path.c_str());
  const int link_errno = errno;
  std::error_code ec;
  std::filesystem::remove(tmp, ec);
  if (rc == 0) {
    if (durable) fsync_parent_directory(path);
    return;
  }
  if (link_errno != EEXIST) {
    throw IoError("publish failed: " + path.string() + ": " + std::strerror(link_errno));
  }
  if (read_small_file(path) != content) {
    throw IoError(path.string() + ": already published with different content");
  }
}

LeaseClaim claim_lease(const std::filesystem::path& lease_path,
                       const std::string& token, double ttl_seconds,
                       bool steal_stale, bool ignore_fresh) {
  const std::filesystem::path tmp = unique_sibling(lease_path, ".claim_");
  write_small_file(tmp, token);

  // link(2) is atomic and *exclusive*: exactly one pool's token becomes the
  // lease, everyone else gets EEXIST. That is the whole claim protocol.
  if (::link(tmp.c_str(), lease_path.c_str()) == 0) {
    std::error_code ec;
    std::filesystem::remove(tmp, ec);
    return LeaseClaim::kClaimed;
  }
  const int link_errno = errno;
  if (link_errno != EEXIST) {
    std::error_code ec;
    std::filesystem::remove(tmp, ec);
    throw IoError("lease claim failed: " + lease_path.string() + ": " +
                  std::strerror(link_errno));
  }

  const double age = lease_age_seconds(lease_path);
  const bool stale = ignore_fresh || age < 0.0 || (steal_stale && age > ttl_seconds);
  if (!stale) {
    std::error_code ec;
    std::filesystem::remove(tmp, ec);
    return LeaseClaim::kHeld;
  }

  // Steal: rename(2) atomically replaces the stale lease with our token.
  // Two thieves can race here; rename is atomic, so one token survives and
  // the read-back below tells each thief whether it won. The brief window
  // where the loser still believes it owns the shard is healed downstream:
  // its appends are byte-identical duplicates and its next heartbeat sees
  // the foreign token and abandons.
  if (::rename(tmp.c_str(), lease_path.c_str()) != 0) {
    const int rename_errno = errno;
    std::error_code ec;
    std::filesystem::remove(tmp, ec);
    throw IoError("lease steal failed: " + lease_path.string() + ": " +
                  std::strerror(rename_errno));
  }
  return read_small_file(lease_path) == token ? LeaseClaim::kStolen
                                              : LeaseClaim::kHeld;
}

bool heartbeat_lease(const std::filesystem::path& lease_path,
                     const std::string& token) {
  if (read_small_file(lease_path) != token) return false;
  std::error_code ec;
  std::filesystem::last_write_time(lease_path,
                                   std::filesystem::file_time_type::clock::now(), ec);
  return !ec;
}

void release_lease(const std::filesystem::path& lease_path,
                   const std::string& token) {
  if (read_small_file(lease_path) != token) return;  // stolen: the thief owns it
  std::error_code ec;
  std::filesystem::remove(lease_path, ec);
}

namespace {

struct ShardWork {
  std::uint64_t index = 0;
  bool stolen = false;
  std::string token;
};

/// Settle one claimed shard from its log prefix to its done marker.
/// Returns false if the lease was stolen mid-run (the thief replays).
bool work_shard(const PoolOptions& options, const ShardWork& work,
                std::uint64_t& records_appended, PoolReport& report) {
  const ResultLogHeader header =
      shard_log_header(options.grid, options.shard_count, work.index);
  const std::filesystem::path log = shard_log_path(options.sweep_dir, work.index);
  const std::filesystem::path lease = shard_lease_path(options.sweep_dir, work.index);

  // Steal-and-replay: recover whatever the previous owner settled (torn
  // tail truncated), then append only the remainder.
  std::optional<ResultLogScan> scan = recover_result_log(log, header);
  std::vector<std::uint64_t> remaining;
  std::optional<ResultLogWriter> writer;
  if (scan.has_value()) {
    report.cells_salvaged += scan->records.size();
    std::size_t next = 0;
    for (std::uint64_t cell = header.first_cell; cell < header.end_cell; ++cell) {
      if (next < scan->records.size() && scan->records[next].cell_index == cell) {
        ++next;
      } else {
        remaining.push_back(cell);
      }
    }
    writer = ResultLogWriter::append_to(log, *scan, options.durable);
  } else {
    writer = ResultLogWriter::create(log, header, options.durable);
    remaining.reserve(static_cast<std::size_t>(header.end_cell - header.first_cell));
    for (std::uint64_t cell = header.first_cell; cell < header.end_cell; ++cell) {
      remaining.push_back(cell);
    }
  }

  bool lease_ok = true;
  auto last_beat = std::chrono::steady_clock::now();
  const auto beat = [&] {
    if (!lease_ok) return;
    const auto now = std::chrono::steady_clock::now();
    if (std::chrono::duration<double>(now - last_beat).count() <
        options.lease.heartbeat_seconds) {
      return;
    }
    last_beat = now;
    if (!heartbeat_lease(lease, work.token)) lease_ok = false;
  };

  if (!remaining.empty()) {
    SettleStats stats;
    settle_cells(
        options.grid, remaining, options.limits, options.faults,
        [&](const CellRecord& record) {
          // A lost lease means a thief is replaying this shard; stop
          // without appending so the overlap stays as small as the race.
          if (!lease_ok) return false;
          writer->append(record);
          report.cells_settled += 1;
          records_appended += 1;
          if (options.pool_faults.kill_after_records > 0 &&
              records_appended >= options.pool_faults.kill_after_records) {
            // The soak seam: die the way a power cut would — no release,
            // no flush ordering, optionally half a frame on disk. The
            // lease goes stale and a survivor steals the shard.
            writer->close();
            if (options.pool_faults.torn_tail_on_kill) append_torn_tail(log);
            (void)::raise(SIGKILL);
          }
          if (options.on_cell_settled) options.on_cell_settled(record);
          return true;
        },
        beat, &stats);
    report.retried_attempts += stats.retried_attempts;
  }

  if (!lease_ok) {
    report.lost_leases += 1;
    return false;
  }
  writer->close();
  // Done marker before release: a shard with no lease and no marker is
  // claimable, a shard with a marker is finished — there is no ambiguous
  // state in between.
  publish_agreed_file(shard_done_path(options.sweep_dir, work.index),
                      hex16(header.shard_fingerprint) + "\n", options.durable);
  release_lease(lease, work.token);
  report.shards_completed += 1;
  if (work.stolen) report.shards_stolen += 1;
  return true;
}

/// Everything a pool checks before it touches the directory. A bad
/// configuration must fail here, once: past this point it would leave a
/// sweep.meta, a held lease and a shard log behind, and read as a pool
/// death that a rerun resumes.
void validate_pool_options(const PoolOptions& options) {
  validate_sweep_inputs(options.grid, options.limits, options.faults);
  VBR_ENSURE(options.shard_count >= 1 && options.shard_count <= kMaxShards,
             "pool shard count out of range");
  VBR_ENSURE(options.lease.ttl_seconds > 0.0, "lease ttl must be positive");
  VBR_ENSURE(options.lease.heartbeat_seconds > 0.0 &&
                 options.lease.heartbeat_seconds < options.lease.ttl_seconds,
             "lease heartbeat must be shorter than the ttl");
  VBR_ENSURE(!options.sweep_dir.empty(), "pool needs a sweep directory");
}

}  // namespace

PoolReport run_pool(const PoolOptions& options) {
  validate_pool_options(options);

  std::filesystem::create_directories(options.sweep_dir / "leases");
  ensure_sweep_meta(options.sweep_dir,
                    shard_log_header(options.grid, options.shard_count, 0),
                    options.durable);

  const std::string pool_id =
      options.pool_id.empty()
          ? "pool-" + std::to_string(static_cast<std::uint64_t>(::getpid()))
          : options.pool_id;

  PoolReport report;
  std::uint64_t records_appended = 0;
  bool duplicate_claim_spent = false;

  // Start each pool's scan at a different shard so N pools fan out over N
  // shards instead of convoying on shard 0.
  Fnv1a spread;
  spread.update(pool_id.data(), pool_id.size());
  const std::uint64_t start = spread.digest() % options.shard_count;
  // Idle wait while every unfinished shard is leased elsewhere.
  const double idle_cap_seconds = std::min(options.lease.heartbeat_seconds, 0.25);
  const double idle_floor_seconds = std::min(0.001, idle_cap_seconds);
  double idle_seconds = idle_floor_seconds;

  for (;;) {
    bool all_done = true;
    std::optional<ShardWork> claimed;
    for (std::uint64_t step = 0; step < options.shard_count; ++step) {
      const std::uint64_t index = (start + step) % options.shard_count;
      if (std::filesystem::exists(shard_done_path(options.sweep_dir, index))) {
        continue;
      }
      all_done = false;
      if (claimed.has_value()) continue;  // finish the status scan anyway

      const bool ignore_fresh =
          options.pool_faults.duplicate_claim && !duplicate_claim_spent;
      std::string token = pool_id + " pid=" +
                          std::to_string(static_cast<std::uint64_t>(::getpid())) +
                          " claim=" + std::to_string(g_claim_counter.fetch_add(1)) +
                          "\n";
      const LeaseClaim claim =
          claim_lease(shard_lease_path(options.sweep_dir, index), token,
                      options.lease.ttl_seconds, /*steal_stale=*/true, ignore_fresh);
      if (claim == LeaseClaim::kHeld) continue;
      if (ignore_fresh) duplicate_claim_spent = true;
      claimed = ShardWork{index, claim == LeaseClaim::kStolen, std::move(token)};
    }
    if (all_done) {
      report.sweep_complete = true;
      return report;
    }
    if (!claimed.has_value()) {
      // Every unfinished shard is freshly leased to someone else. Wait:
      // either their markers appear, or their leases go stale and a later
      // scan steals them. A sweep's last shards settle within milliseconds
      // of each other, so the wait starts at 1 ms and doubles up to the cap.
      std::this_thread::sleep_for(std::chrono::duration<double>(idle_seconds));
      idle_seconds = std::min(2.0 * idle_seconds, idle_cap_seconds);
      continue;
    }
    idle_seconds = idle_floor_seconds;
    (void)work_shard(options, *claimed, records_appended, report);
  }
}

MultiPoolReport run_pools(const PoolOptions& base, std::size_t pool_count,
                          const std::function<PoolFaultPlan(std::size_t)>&
                              plan_for_pool) {
  VBR_ENSURE(pool_count >= 1, "run_pools needs at least one pool");
  validate_pool_options(base);
  MultiPoolReport report;
  report.pools = pool_count;

  // Everything a child needs is computed before its fork so the child
  // branch is a bare handoff (fork-confinement rule A1).
  std::vector<PoolOptions> per_pool(pool_count, base);
  for (std::size_t i = 0; i < pool_count; ++i) {
    per_pool[i].pool_id = (base.pool_id.empty() ? std::string("pool")
                                                : base.pool_id) +
                          "-" + std::to_string(i);
    if (plan_for_pool) per_pool[i].pool_faults = plan_for_pool(i);
  }

  std::vector<pid_t> pids;
  pids.reserve(pool_count);
  for (std::size_t i = 0; i < pool_count; ++i) {
    std::fflush(stdout);
    std::fflush(stderr);
    const pid_t pid = ::fork();
    if (pid < 0) {
      for (const pid_t child : pids) (void)::kill(child, SIGKILL);
      for (const pid_t child : pids) {
        int status = 0;
        while (::waitpid(child, &status, 0) < 0 && errno == EINTR) {
        }
      }
      throw IoError("run_pools: fork failed: " + std::string(std::strerror(errno)));
    }
    if (pid == 0) {
      run_pool_child(&per_pool[i]);
    }
    pids.push_back(pid);
  }

  for (const pid_t pid : pids) {
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) report.pools_failed += 1;
  }

  report.sweep_complete = true;
  for (std::uint64_t index = 0; index < base.shard_count; ++index) {
    if (!std::filesystem::exists(shard_done_path(base.sweep_dir, index))) {
      report.sweep_complete = false;
      break;
    }
  }
  return report;
}

SweepReport collect_sweep(const std::filesystem::path& sweep_dir,
                          const SweepGrid& grid, std::uint64_t shard_count,
                          bool require_complete) {
  grid.validate();
  const std::uint64_t cells = cell_count(grid);
  // Verify identity without establishing it: collecting must never create
  // state, and a collect against the wrong directory must fail the same
  // loud way a pool would.
  if (std::filesystem::exists(sweep_dir / "sweep.meta")) {
    ensure_sweep_meta(sweep_dir, shard_log_header(grid, shard_count, 0),
                      /*durable=*/false);
  }

  std::vector<std::vector<CellRecord>> shards;
  shards.reserve(static_cast<std::size_t>(shard_count));
  for (std::uint64_t index = 0; index < shard_count; ++index) {
    const ResultLogHeader header = shard_log_header(grid, shard_count, index);
    const std::filesystem::path log = shard_log_path(sweep_dir, index);
    if (!std::filesystem::exists(log)) continue;  // merge reports the gap
    std::ifstream in(log, std::ios::binary);
    if (!in) throw IoError("cannot open sweep result log: " + log.string());
    ResultLogScan scan = scan_result_log(in, log.string(), &header);
    shards.push_back(std::move(scan.records));
  }

  ShardMerge merge = merge_shard_records(shards, cells, require_complete);
  SweepReport report;
  report.total_cells = static_cast<std::size_t>(cells);
  report.completed = merge.completed;
  report.quarantined = merge.quarantined;
  report.records = std::move(merge.records);
  report.results_hash = merge.results_hash;
  return report;
}

}  // namespace vbr::sweep
