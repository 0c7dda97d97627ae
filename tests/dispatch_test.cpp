// Tests for lease-based multi-pool dispatch: the file-lease primitives
// (claim / heartbeat / steal / release), multi-pool sweeps over a shared
// directory, and fault healing — killed pools, torn tails, and duplicate
// claims must all end at the single-pool fault-free results hash.
#include "vbr/sweep/dispatch.hpp"

#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <exception>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "vbr/common/error.hpp"
#include "vbr/sweep/supervisor.hpp"

namespace vbr::sweep {
namespace {

class TempDir {
 public:
  explicit TempDir(const std::string& tag)
      : path_(std::filesystem::temp_directory_path() / ("vbr_dispatch_" + tag)) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  const std::filesystem::path& path() const { return path_; }

 private:
  std::filesystem::path path_;
};

/// In-process evaluation keeps fork count down to the pools themselves.
SweepGrid test_grid() {
  SweepGrid grid;
  grid.queues = {QueueKind::kFluid, QueueKind::kFbm};
  grid.hursts = {0.7, 0.8, 0.9};
  grid.utilizations = {0.8, 0.9};
  grid.buffer_ms = {10.0};
  grid.sources = {1};
  grid.frames_per_source = 64;
  grid.seed = 1994;
  return grid;
}

PoolOptions base_pool_options(const TempDir& dir, std::uint64_t shards) {
  PoolOptions options;
  options.sweep_dir = dir.path() / "sweep";
  options.grid = test_grid();
  options.shard_count = shards;
  options.lease.ttl_seconds = 1.0;
  options.lease.heartbeat_seconds = 0.2;
  options.limits.isolate = false;
  options.limits.max_attempts = 3;
  return options;
}

/// The fault-free reference hash for test_grid(): every cell settled in
/// one call, no directory.
std::uint64_t reference_hash() {
  const SweepGrid grid = test_grid();
  std::vector<std::uint64_t> cells(cell_count(grid));
  std::iota(cells.begin(), cells.end(), std::uint64_t{0});
  std::vector<CellRecord> records(cells.size());
  SweepLimits limits;
  limits.isolate = false;
  settle_cells(grid, cells, limits, SweepFaultPlan{}, [&](const CellRecord& record) {
    records.at(record.cell_index) = record;
    return true;
  });
  return results_hash(records);
}

// ---------------------------------------------------------------------------
// Lease primitives

TEST(Lease, ClaimIsExclusiveUntilReleased) {
  TempDir dir("claim");
  const auto lease = dir.path() / "shard.lease";
  EXPECT_EQ(claim_lease(lease, "alpha", 30.0, true), LeaseClaim::kClaimed);
  EXPECT_EQ(claim_lease(lease, "bravo", 30.0, true), LeaseClaim::kHeld);
  EXPECT_TRUE(heartbeat_lease(lease, "alpha"));
  EXPECT_FALSE(heartbeat_lease(lease, "bravo"));

  release_lease(lease, "bravo");  // not the holder: no-op
  EXPECT_TRUE(heartbeat_lease(lease, "alpha"));
  release_lease(lease, "alpha");
  EXPECT_FALSE(heartbeat_lease(lease, "alpha"));
  EXPECT_EQ(claim_lease(lease, "bravo", 30.0, true), LeaseClaim::kClaimed);
}

TEST(Lease, StaleLeaseIsStolenFreshIsNot) {
  TempDir dir("steal");
  const auto lease = dir.path() / "shard.lease";
  ASSERT_EQ(claim_lease(lease, "dead-pool", 30.0, true), LeaseClaim::kClaimed);

  // Fresh: not stealable, even with permission to steal stale ones.
  EXPECT_EQ(claim_lease(lease, "thief", 30.0, true), LeaseClaim::kHeld);

  // Age the lease past its ttl the way a SIGKILLed holder would: its mtime
  // stops advancing.
  std::filesystem::last_write_time(
      lease, std::filesystem::file_time_type::clock::now() - std::chrono::hours(1));
  EXPECT_EQ(claim_lease(lease, "patient", 30.0, /*steal_stale=*/false),
            LeaseClaim::kHeld);
  EXPECT_EQ(claim_lease(lease, "thief", 30.0, true), LeaseClaim::kStolen);

  // The dead pool's token no longer opens the lease.
  EXPECT_FALSE(heartbeat_lease(lease, "dead-pool"));
  EXPECT_TRUE(heartbeat_lease(lease, "thief"));
}

TEST(Lease, DuplicateClaimFaultIgnoresFreshness) {
  TempDir dir("dup");
  const auto lease = dir.path() / "shard.lease";
  ASSERT_EQ(claim_lease(lease, "owner", 30.0, true), LeaseClaim::kClaimed);
  EXPECT_EQ(claim_lease(lease, "rogue", 30.0, true, /*ignore_fresh=*/true),
            LeaseClaim::kStolen);
  EXPECT_FALSE(heartbeat_lease(lease, "owner"));
}

// ---------------------------------------------------------------------------
// Agreed files: the .done marker race

/// One racing pool's side: publish the marker 300 times, then exit with
/// the number of calls that threw.
[[noreturn]] void publish_in_child(const std::filesystem::path& path,
                                   const std::string& content, bool durable) {
  int throws = 0;
  for (int round = 0; round < 300; ++round) {
    try {
      publish_agreed_file(path, content, durable);
    } catch (const IoError&) {
      ++throws;
    }
  }
  ::_exit(std::min(throws, 255));
}

/// A pool starting up meanwhile: read the file until `stop` appears, then
/// exit with the number of reads of an existing file that did not return
/// exactly `content` (an empty or partial file).
[[noreturn]] void read_in_child(const std::filesystem::path& path, const std::string& content,
                                const std::filesystem::path& stop) {
  int wrong = 0;
  while (!std::filesystem::exists(stop)) {
    std::ifstream in(path, std::ios::binary);
    if (!in) continue;  // not published yet
    const std::string found((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    if (found != content) ++wrong;
  }
  ::_exit(std::min(wrong, 255));
}

TEST(AgreedFile, RacingPublishersNeverThrow) {
  // A run_pools start has every pool publish sweep.meta at once, and two
  // pools that finish one shard both publish its .done marker. Three
  // publishers race while a fourth process reads: no publish may throw,
  // and no read of the existing file may see less than its whole content.
  TempDir dir("agreed");
  const auto marker = dir.path() / "shard_0000.done";
  const auto stop = dir.path() / "stop";
  const std::string content = "0123456789abcdef\n";
  for (const bool durable : {false, true}) {
    std::filesystem::remove(marker);
    std::filesystem::remove(stop);
    // NOLINTNEXTLINE(vbr-fork-safety): the test stands in for a starting pool; gtest is single-threaded here and the child only reads, then _exits.
    const pid_t reader = ::fork();
    ASSERT_GE(reader, 0);
    if (reader == 0) read_in_child(marker, content, stop);
    std::vector<pid_t> pids;
    for (int pool = 0; pool < 3; ++pool) {
      // NOLINTNEXTLINE(vbr-fork-safety): the test stands in for racing pool processes; gtest is single-threaded here and the child only publishes, then _exits.
      const pid_t pid = ::fork();
      ASSERT_GE(pid, 0);
      if (pid == 0) publish_in_child(marker, content, durable);
      pids.push_back(pid);
    }
    for (const pid_t pid : pids) {
      int status = 0;
      ASSERT_EQ(::waitpid(pid, &status, 0), pid);
      ASSERT_TRUE(WIFEXITED(status));
      EXPECT_EQ(WEXITSTATUS(status), 0) << "calls that threw, durable=" << durable;
    }
    std::ofstream(stop).put('\n');
    int status = 0;
    ASSERT_EQ(::waitpid(reader, &status, 0), reader);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0) << "wrong reads, durable=" << durable;

    std::ifstream in(marker, std::ios::binary);
    EXPECT_EQ(std::string((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>()),
              content);
  }
  // A publish that cannot leave the file holding the bytes still throws:
  // a missing directory, or a file already holding other content.
  EXPECT_THROW(publish_agreed_file(dir.path() / "missing" / "shard_0001.done", content,
                                   false),
               IoError);
  EXPECT_THROW(publish_agreed_file(marker, "fedcba9876543210\n", false), IoError);
  // No staged temp is left behind.
  std::size_t entries = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir.path())) {
    (void)entry;
    ++entries;
  }
  EXPECT_EQ(entries, 2u);  // the marker and the stop file
}

// ---------------------------------------------------------------------------
// Pools end-to-end

TEST(Dispatch, SinglePoolShardedSweepMatchesReferenceHash) {
  TempDir dir("single");
  PoolOptions options = base_pool_options(dir, 3);
  const PoolReport report = run_pool(options);
  EXPECT_TRUE(report.sweep_complete);
  EXPECT_EQ(report.shards_completed, 3u);
  EXPECT_EQ(report.cells_settled, cell_count(options.grid));

  const SweepReport merged =
      collect_sweep(options.sweep_dir, options.grid, options.shard_count);
  EXPECT_EQ(merged.completed, cell_count(options.grid));
  EXPECT_EQ(merged.results_hash, reference_hash());
}

TEST(Dispatch, MultiplePoolsSplitTheWorkAndMatchReferenceHash) {
  TempDir dir("multi");
  PoolOptions options = base_pool_options(dir, 4);
  const MultiPoolReport multi = run_pools(options, 3);
  EXPECT_EQ(multi.pools, 3u);
  EXPECT_EQ(multi.pools_failed, 0u);
  EXPECT_TRUE(multi.sweep_complete);

  const SweepReport merged =
      collect_sweep(options.sweep_dir, options.grid, options.shard_count);
  EXPECT_EQ(merged.results_hash, reference_hash());
}

TEST(Dispatch, KilledPoolWithTornTailIsStolenAndHealed) {
  TempDir dir("killed");
  PoolOptions options = base_pool_options(dir, 4);
  const MultiPoolReport multi =
      run_pools(options, 3, [](std::size_t pool) {
        PoolFaultPlan plan;
        if (pool == 0) {
          plan.kill_after_records = 2;  // SIGKILL mid-shard
          plan.torn_tail_on_kill = true;
        }
        return plan;
      });
  EXPECT_EQ(multi.pools_failed, 1u);
  EXPECT_TRUE(multi.sweep_complete);  // survivors stole the wreckage

  const SweepReport merged =
      collect_sweep(options.sweep_dir, options.grid, options.shard_count);
  EXPECT_EQ(merged.completed, cell_count(options.grid));
  EXPECT_EQ(merged.results_hash, reference_hash());
}

TEST(Dispatch, DuplicateClaimOverlapHealsToReferenceHash) {
  TempDir dir("dupclaim");
  PoolOptions options = base_pool_options(dir, 3);
  const MultiPoolReport multi =
      run_pools(options, 2, [](std::size_t pool) {
        PoolFaultPlan plan;
        plan.duplicate_claim = pool == 1;
        return plan;
      });
  EXPECT_TRUE(multi.sweep_complete);

  const SweepReport merged =
      collect_sweep(options.sweep_dir, options.grid, options.shard_count);
  EXPECT_EQ(merged.results_hash, reference_hash());
}

TEST(Dispatch, InterruptedSweepResumesAcrossInvocations) {
  TempDir dir("resume");
  PoolOptions options = base_pool_options(dir, 4);
  // Every pool dies mid-shard: the sweep cannot complete this invocation.
  const MultiPoolReport first =
      run_pools(options, 2, [](std::size_t) {
        PoolFaultPlan plan;
        plan.kill_after_records = 1;
        plan.torn_tail_on_kill = true;
        return plan;
      });
  EXPECT_EQ(first.pools_failed, 2u);
  EXPECT_FALSE(first.sweep_complete);
  EXPECT_THROW((void)collect_sweep(options.sweep_dir, options.grid, 4), IoError);

  // A fresh fault-free invocation salvages the logs and finishes.
  const MultiPoolReport second = run_pools(options, 2);
  EXPECT_TRUE(second.sweep_complete);
  const SweepReport merged = collect_sweep(options.sweep_dir, options.grid, 4);
  EXPECT_EQ(merged.results_hash, reference_hash());
  EXPECT_EQ(merged.completed, cell_count(options.grid));
}

TEST(Dispatch, IdlePoolSeesAForeignShardFinishWithinMilliseconds) {
  // The only unfinished shard is freshly leased to another pool, which
  // publishes its done marker ~20 ms in. The idle pool's wait starts at
  // 1 ms and backs off, so it sees the marker long before one full
  // heartbeat-capped sleep (0.25 s here) would end.
  TempDir dir("idle");
  PoolOptions options = base_pool_options(dir, 1);
  options.lease.ttl_seconds = 30.0;
  options.lease.heartbeat_seconds = 5.0;
  std::filesystem::create_directories(options.sweep_dir / "leases");
  ASSERT_EQ(claim_lease(shard_lease_path(options.sweep_dir, 0), "other pool\n",
                        options.lease.ttl_seconds, false),
            LeaseClaim::kClaimed);

  const auto start = std::chrono::steady_clock::now();
  std::exception_ptr publish_error;
  std::thread other([&] {
    try {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      publish_agreed_file(shard_done_path(options.sweep_dir, 0), "done\n", false);
    } catch (...) {
      publish_error = std::current_exception();
    }
  });
  const PoolReport report = run_pool(options);
  const auto waited = std::chrono::steady_clock::now() - start;
  other.join();
  if (publish_error) std::rethrow_exception(publish_error);

  EXPECT_TRUE(report.sweep_complete);
  EXPECT_EQ(report.shards_completed, 0u);
  EXPECT_LT(waited, std::chrono::milliseconds(200));
}

TEST(Dispatch, MismatchedGridIsRejectedByTheSweepMeta) {
  TempDir dir("meta");
  PoolOptions options = base_pool_options(dir, 2);
  (void)run_pool(options);

  PoolOptions other = options;
  other.grid.seed += 1;
  EXPECT_THROW((void)run_pool(other), IoError);
  EXPECT_THROW((void)collect_sweep(options.sweep_dir, other.grid, 2), IoError);
  // A mismatched shard count is a different partition of the same grid:
  // also rejected (shard fingerprints would not line up).
  EXPECT_THROW((void)collect_sweep(options.sweep_dir, options.grid, 3), IoError);
}

}  // namespace
}  // namespace vbr::sweep
