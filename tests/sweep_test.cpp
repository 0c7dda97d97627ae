// Tests for the process-isolated sweep supervisor and its parts: grid
// enumeration and split-seed derivation, pure-function cell evaluation,
// the worker frame protocol, deterministic fault injection, crash/hang/OOM
// retry, poison quarantine, scheduling-independence of the results hash,
// kill/resume determinism on a one-shard sweep directory (a resumed sweep's
// results hash must equal an uninterrupted one's, bit for bit), the
// marginal-map fill that forked workers inherit, and the reused worker:
// records independent of what it ran before, a CPU ceiling re-armed per
// cell, and no worker left running on any exit path.
#include "vbr/sweep/supervisor.hpp"

#include <gtest/gtest.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "vbr/common/error.hpp"
#include "vbr/common/fft.hpp"
#include "vbr/model/davies_harte.hpp"
#include "vbr/model/marginal_transform.hpp"
#include "vbr/sweep/cell_eval.hpp"
#include "vbr/sweep/dispatch.hpp"
#include "vbr/sweep/result_log.hpp"
#include "vbr/sweep/shard.hpp"
#include "vbr/sweep/sweep_plan.hpp"
#include "vbr/sweep/worker.hpp"

namespace vbr::sweep {
namespace {

/// A sweep directory path under the test temp dir, absent at the start and
/// removed on destruction.
class TempDir {
 public:
  explicit TempDir(const std::string& tag)
      : path_(std::filesystem::temp_directory_path() / ("vbr_sweep_" + tag)) {
    std::filesystem::remove_all(path_);
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  const std::filesystem::path& path() const { return path_; }

 private:
  std::filesystem::path path_;
};

/// A grid small enough that fork-per-cell tests stay fast.
SweepGrid small_grid() {
  SweepGrid grid;
  grid.queues = {QueueKind::kFluid, QueueKind::kFbm};
  grid.hursts = {0.7, 0.9};
  grid.utilizations = {0.8};
  grid.buffer_ms = {10.0};
  grid.sources = {1};
  grid.frames_per_source = 256;
  grid.seed = 1994;
  return grid;
}

CellResult sample_result() {
  CellResult r;
  r.mean_rate_bps = 5.3e6;
  r.capacity_bps = 6.6e6;
  r.buffer_bytes = 8192.0;
  r.loss_rate = 1.25e-3;
  r.mean_queue_bytes = 900.0;
  r.max_queue_bytes = 8192.0;
  return r;
}

CellRecord done_record(std::uint64_t index) {
  CellRecord record;
  record.cell_index = index;
  record.status = CellStatus::kDone;
  record.result = sample_result();
  return record;
}

CellRecord quarantined_record(std::uint64_t index) {
  CellRecord record;
  record.cell_index = index;
  record.status = CellStatus::kQuarantined;
  record.failure.kind = FailureKind::kHang;
  record.failure.term_signal = SIGKILL;
  record.failure.attempts = 3;
  record.failure.max_rss_kib = 5120;
  record.failure.wall_seconds = 1.5;
  record.failure.message = "watchdog deadline exceeded";
  record.failure.stderr_tail = "some stderr noise";
  return record;
}

// ---------------------------------------------------------------------------
// Grid enumeration and seeds

TEST(SweepPlan, CellCountIsCrossProduct) {
  SweepGrid grid = small_grid();
  EXPECT_EQ(cell_count(grid), 2u * 2u * 1u * 1u * 1u);
  grid.utilizations = {0.5, 0.7, 0.9};
  grid.sources = {1, 4};
  EXPECT_EQ(cell_count(grid), 2u * 2u * 3u * 1u * 2u);
}

TEST(SweepPlan, CellAtEnumeratesRowMajorSourcesFastest) {
  SweepGrid grid = small_grid();
  grid.sources = {1, 4};
  const CellSpec first = cell_at(grid, 0);
  const CellSpec second = cell_at(grid, 1);
  EXPECT_EQ(first.num_sources, 1u);
  EXPECT_EQ(second.num_sources, 4u);
  EXPECT_EQ(first.queue, second.queue);
  EXPECT_EQ(first.hurst, second.hurst);

  const std::size_t cells = cell_count(grid);
  const CellSpec last = cell_at(grid, cells - 1);
  EXPECT_EQ(last.queue, QueueKind::kFbm);
  EXPECT_EQ(last.hurst, 0.9);
  EXPECT_EQ(last.num_sources, 4u);
  EXPECT_EQ(last.cell_index, cells - 1);
}

TEST(SweepPlan, CellSeedsAreDistinctAndDeterministic) {
  SweepGrid grid = small_grid();
  grid.utilizations = {0.5, 0.7, 0.9};
  const std::vector<std::uint64_t> seeds = derive_cell_seeds(grid);
  ASSERT_EQ(seeds.size(), cell_count(grid));
  const std::set<std::uint64_t> unique(seeds.begin(), seeds.end());
  EXPECT_EQ(unique.size(), seeds.size());
  EXPECT_EQ(derive_cell_seeds(grid), seeds);

  grid.seed += 1;
  EXPECT_NE(derive_cell_seeds(grid), seeds);
}

TEST(SweepPlan, FingerprintCoversEverySemanticAxis) {
  const SweepGrid base = small_grid();
  const std::uint64_t fp = sweep_fingerprint(base);
  EXPECT_EQ(sweep_fingerprint(base), fp);

  SweepGrid grid = base;
  grid.hursts[0] = 0.75;
  EXPECT_NE(sweep_fingerprint(grid), fp);
  grid = base;
  grid.seed += 1;
  EXPECT_NE(sweep_fingerprint(grid), fp);
  grid = base;
  grid.frames_per_source += 1;
  EXPECT_NE(sweep_fingerprint(grid), fp);
  grid = base;
  grid.queues = {QueueKind::kFbm, QueueKind::kFluid};
  EXPECT_NE(sweep_fingerprint(grid), fp);
}

TEST(SweepPlan, ValidateRejectsBadGrids) {
  SweepGrid grid = small_grid();
  grid.hursts = {};
  EXPECT_THROW(grid.validate(), InvalidArgument);
  grid = small_grid();
  grid.hursts = {1.5};
  EXPECT_THROW(grid.validate(), InvalidArgument);
  grid = small_grid();
  grid.utilizations = {0.0};
  EXPECT_THROW(grid.validate(), InvalidArgument);
  grid = small_grid();
  grid.buffer_ms = {-1.0};
  EXPECT_THROW(grid.validate(), InvalidArgument);
  grid = small_grid();
  grid.sources = {0};
  EXPECT_THROW(grid.validate(), InvalidArgument);
  grid = small_grid();
  grid.frames_per_source = 1;
  EXPECT_THROW(grid.validate(), InvalidArgument);
}

TEST(SweepPlan, QueueKindNamesRoundTrip) {
  for (QueueKind kind : {QueueKind::kFluid, QueueKind::kCell, QueueKind::kFbm}) {
    EXPECT_EQ(parse_queue_kind(queue_kind_name(kind)), kind);
  }
  EXPECT_THROW(parse_queue_kind("token-bucket"), InvalidArgument);
}

// ---------------------------------------------------------------------------
// Cell evaluation

TEST(CellEval, EvaluationIsDeterministic) {
  SweepGrid grid = small_grid();
  for (std::size_t index = 0; index < cell_count(grid); ++index) {
    CellSpec spec = cell_at(grid, index);
    spec.seed = derive_cell_seeds(grid)[index];
    const CellResult a = evaluate_cell(spec);
    const CellResult b = evaluate_cell(spec);
    EXPECT_EQ(a, b) << "cell " << index;
    EXPECT_GT(a.mean_rate_bps, 0.0);
    EXPECT_GT(a.capacity_bps, a.mean_rate_bps);
  }
}

TEST(CellEval, ResultSerializationRoundTripsExactly) {
  const CellResult result = sample_result();
  std::ostringstream out(std::ios::binary);
  write_cell_result(out, result);
  EXPECT_EQ(out.str().size(), kCellResultBytes);
  std::istringstream in(out.str(), std::ios::binary);
  EXPECT_EQ(read_cell_result(in, "test"), result);
}

// ---------------------------------------------------------------------------
// Worker frame protocol

TEST(WorkerFrames, ResultFrameRoundTrips) {
  const CellResult result = sample_result();
  const WorkerMessage message = parse_worker_message(encode_worker_result(result));
  ASSERT_TRUE(message.is_result);
  EXPECT_EQ(message.result, result);
}

TEST(WorkerFrames, FailureFrameRoundTrips) {
  const WorkerMessage message = parse_worker_message(
      encode_worker_failure(FailureKind::kOom, "allocation failed"));
  ASSERT_FALSE(message.is_result);
  EXPECT_EQ(message.kind, FailureKind::kOom);
  EXPECT_EQ(message.message, "allocation failed");
}

TEST(WorkerFrames, RejectsTornAndForgedFrames) {
  const std::string frame = encode_worker_result(sample_result());
  for (std::size_t cut = 0; cut < frame.size(); ++cut) {
    EXPECT_THROW(parse_worker_message(frame.substr(0, cut)), IoError);
  }
  std::string flipped = frame;
  flipped[frame.size() - 1] = static_cast<char>(flipped[frame.size() - 1] ^ 1);
  EXPECT_THROW(parse_worker_message(flipped), IoError);
  std::string trailing = frame;
  trailing.push_back('x');
  EXPECT_THROW(parse_worker_message(trailing), IoError);
  // The u32 version sits right after the 8-byte magic.
  std::string skewed = frame;
  skewed[8] = static_cast<char>(skewed[8] + 1);
  EXPECT_THROW(parse_worker_message(skewed), IoError);
}

// ---------------------------------------------------------------------------
// Fault decisions

TEST(FaultPlan, PoisonAlwaysFires) {
  SweepFaultPlan faults;
  faults.poison = {3};
  for (std::size_t attempt = 1; attempt <= 5; ++attempt) {
    EXPECT_EQ(fault_for_attempt(faults, 3, attempt), InjectedFault::kPoison);
  }
  EXPECT_EQ(fault_for_attempt(faults, 2, 1), InjectedFault::kNone);
}

TEST(FaultPlan, RateFaultsOnlyOnFirstAttempt) {
  SweepFaultPlan faults;
  faults.rate = 1.0;
  faults.seed = 42;
  for (std::uint64_t cell = 0; cell < 16; ++cell) {
    EXPECT_NE(fault_for_attempt(faults, cell, 1), InjectedFault::kNone);
    EXPECT_EQ(fault_for_attempt(faults, cell, 2), InjectedFault::kNone);
  }
}

TEST(FaultPlan, DecisionIsDeterministicAndSeedSensitive) {
  SweepFaultPlan faults;
  faults.rate = 0.5;
  faults.seed = 7;
  std::vector<InjectedFault> first;
  for (std::uint64_t cell = 0; cell < 64; ++cell) {
    first.push_back(fault_for_attempt(faults, cell, 1));
  }
  std::vector<InjectedFault> second;
  for (std::uint64_t cell = 0; cell < 64; ++cell) {
    second.push_back(fault_for_attempt(faults, cell, 1));
  }
  EXPECT_EQ(first, second);

  faults.seed = 8;
  std::vector<InjectedFault> reseeded;
  for (std::uint64_t cell = 0; cell < 64; ++cell) {
    reseeded.push_back(fault_for_attempt(faults, cell, 1));
  }
  EXPECT_NE(first, reseeded);
}

TEST(FaultPlan, PerSeedFaultCountFollowsTheBinomial) {
  // Each cell's first attempt faults independently with probability `rate`,
  // so across seeds the number of faulted cells among 0..7 is
  // Binomial(8, 0.3). Every bucket's share must sit within 0.02 of its
  // binomial probability (over 6 standard errors at 20000 seeds); draws on
  // a lattice leave whole buckets empty.
  constexpr int kCells = 8;
  constexpr int kSeeds = 20000;
  constexpr double kRate = 0.3;
  SweepFaultPlan faults;
  faults.rate = kRate;
  std::vector<int> seeds_with(kCells + 1, 0);
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    faults.seed = seed;
    int faulted = 0;
    for (std::uint64_t cell = 0; cell < kCells; ++cell) {
      faulted += fault_for_attempt(faults, cell, 1) != InjectedFault::kNone;
    }
    ++seeds_with[faulted];
  }
  const auto binomial = [&](int k) {
    double choose = 1.0;
    for (int i = 0; i < k; ++i) choose = choose * (kCells - i) / (i + 1);
    return choose * std::pow(kRate, k) * std::pow(1.0 - kRate, kCells - k);
  };
  double four_or_more = 0.0;
  int seeds_four_or_more = 0;
  for (int k = 0; k <= kCells; ++k) {
    if (k >= 4) {
      four_or_more += binomial(k);
      seeds_four_or_more += seeds_with[k];
      continue;
    }
    EXPECT_NEAR(static_cast<double>(seeds_with[k]) / kSeeds, binomial(k), 0.02)
        << k << " faulted cells";
  }
  EXPECT_NEAR(static_cast<double>(seeds_four_or_more) / kSeeds, four_or_more, 0.02)
      << ">= 4 faulted cells";
}

// ---------------------------------------------------------------------------
// Supervisor end-to-end: one pool, in-process, over a one-shard sweep
// directory (forks real workers)

PoolOptions base_options(const TempDir& dir) {
  PoolOptions options;
  options.sweep_dir = dir.path();
  options.grid = small_grid();
  options.limits.worker.deadline_seconds = 30.0;
  options.limits.max_attempts = 3;
  return options;
}

/// Run one pool in-process over the options' one-shard directory and merge
/// what it left there.
SweepReport run_one_pool(const PoolOptions& options, PoolReport* pool = nullptr) {
  const PoolReport report = run_pool(options);
  EXPECT_TRUE(report.sweep_complete);
  if (pool != nullptr) *pool = report;
  return collect_sweep(options.sweep_dir, options.grid, options.shard_count);
}

/// The directory's one shard log, holding `records` after its sealed
/// header: a sweep whose pool died after settling them.
void write_partial_shard(const PoolOptions& options, const std::vector<CellRecord>& records) {
  std::filesystem::create_directories(options.sweep_dir);
  ResultLogWriter writer = ResultLogWriter::create(
      shard_log_path(options.sweep_dir, 0), shard_log_header(options.grid, 1, 0), false);
  for (const CellRecord& record : records) writer.append(record);
  writer.close();
}

TEST(Supervisor, CleanSweepCompletesEveryCell) {
  TempDir dir("clean");
  PoolOptions options = base_options(dir);
  std::size_t callbacks = 0;
  options.on_cell_settled = [&](const CellRecord&) { callbacks += 1; };

  PoolReport pool;
  const SweepReport report = run_one_pool(options, &pool);
  EXPECT_EQ(report.total_cells, 4u);
  EXPECT_EQ(report.completed, 4u);
  EXPECT_EQ(report.quarantined, 0u);
  EXPECT_EQ(pool.retried_attempts, 0u);
  EXPECT_EQ(callbacks, 4u);
  EXPECT_TRUE(std::filesystem::exists(shard_log_path(options.sweep_dir, 0)));

  // Every record's result matches an in-process evaluation of the same spec:
  // process isolation must not change a single bit.
  const std::vector<std::uint64_t> seeds = derive_cell_seeds(options.grid);
  for (const CellRecord& record : report.records) {
    CellSpec spec = cell_at(options.grid, record.cell_index);
    spec.seed = seeds[record.cell_index];
    EXPECT_EQ(record.result, evaluate_cell(spec));
  }
}

TEST(Supervisor, InjectedFaultsAreHealedByRetryBitIdentically) {
  TempDir clean_dir("ref");
  const SweepReport reference = run_one_pool(base_options(clean_dir));

  TempDir faulted_dir("faulted");
  PoolOptions faulted = base_options(faulted_dir);
  faulted.limits.worker.deadline_seconds = 3.0;
  faulted.limits.worker.memory_bytes = std::uint64_t{512} << 20;
  faulted.faults.rate = 1.0;  // every cell's first attempt faults
  faulted.faults.seed = 42;
  PoolReport pool;
  const SweepReport report = run_one_pool(faulted, &pool);

  EXPECT_EQ(report.completed, report.total_cells);
  EXPECT_GE(pool.retried_attempts, report.total_cells);
  EXPECT_EQ(report.results_hash, reference.results_hash);
}

TEST(Supervisor, PoisonCellIsQuarantinedWithoutBlockingOthers) {
  TempDir dir("poison");
  PoolOptions options = base_options(dir);
  options.faults.poison = {1};

  const SweepReport report = run_one_pool(options);
  EXPECT_EQ(report.completed, report.total_cells - 1);
  EXPECT_EQ(report.quarantined, 1u);
  const CellRecord& bad = report.records[1];
  EXPECT_EQ(bad.cell_index, 1u);
  EXPECT_EQ(bad.status, CellStatus::kQuarantined);
  EXPECT_EQ(bad.failure.kind, FailureKind::kError);
  // Deterministic errors must not burn the retry budget.
  EXPECT_EQ(bad.failure.attempts, 1u);
  EXPECT_NE(bad.failure.message.find("poison"), std::string::npos);
}

TEST(Supervisor, CrashOnFirstAttemptIsRetriedAndHealed) {
  TempDir dir("crashy");
  PoolOptions options = base_options(dir);
  options.grid.queues = {QueueKind::kFbm};
  options.grid.hursts = {0.8};
  options.limits.max_attempts = 2;
  options.faults.rate = 1.0;
  options.faults.hang = false;
  options.faults.oom = false;

  PoolReport pool;
  const SweepReport report = run_one_pool(options, &pool);
  EXPECT_EQ(report.completed, 1u);
  EXPECT_EQ(pool.retried_attempts, 1u);
  EXPECT_EQ(report.quarantined, 0u);
}

TEST(Supervisor, HangIsKilledByWatchdogAndRetried) {
  TempDir dir("hang");
  PoolOptions options = base_options(dir);
  options.grid.queues = {QueueKind::kFbm};
  options.grid.hursts = {0.8};
  options.limits.worker.deadline_seconds = 1.0;
  options.faults.rate = 1.0;
  options.faults.crash = false;
  options.faults.oom = false;

  PoolReport pool;
  const SweepReport report = run_one_pool(options, &pool);
  EXPECT_EQ(report.completed, 1u);
  EXPECT_EQ(pool.retried_attempts, 1u);
}

TEST(Supervisor, OomUnderMemoryCeilingIsRetried) {
  TempDir dir("oom");
  PoolOptions options = base_options(dir);
  options.grid.queues = {QueueKind::kFbm};
  options.grid.hursts = {0.8};
  options.limits.worker.memory_bytes = std::uint64_t{512} << 20;
  options.faults.rate = 1.0;
  options.faults.crash = false;
  options.faults.hang = false;

  PoolReport pool;
  const SweepReport report = run_one_pool(options, &pool);
  EXPECT_EQ(report.completed, 1u);
  EXPECT_EQ(pool.retried_attempts, 1u);
}

TEST(Supervisor, ResumeSalvagesSettledCellsBitIdentically) {
  TempDir reference_dir("resume_ref");
  const SweepReport reference = run_one_pool(base_options(reference_dir));

  // Simulate a pool killed mid-sweep: a shard log holding only the first
  // two settled records, and no sweep.meta, lease or done marker.
  TempDir partial("resume_partial");
  const PoolOptions options = base_options(partial);
  write_partial_shard(options, {reference.records[0], reference.records[1]});

  PoolReport pool;
  const SweepReport resumed = run_one_pool(options, &pool);
  EXPECT_EQ(pool.cells_salvaged, 2u);
  EXPECT_EQ(pool.cells_settled, reference.total_cells - 2);
  EXPECT_EQ(resumed.completed, reference.completed);
  EXPECT_EQ(resumed.results_hash, reference.results_hash);

  // The resumed log recovers to the full record set.
  const auto healed = recover_result_log(shard_log_path(options.sweep_dir, 0),
                                         shard_log_header(options.grid, 1, 0));
  ASSERT_TRUE(healed.has_value());
  EXPECT_EQ(healed->records.size(), reference.records.size());
  EXPECT_EQ(healed->torn_bytes, 0u);
}

TEST(Supervisor, ResumeSalvagesThroughATornTail) {
  TempDir reference_dir("torn_ref");
  const SweepReport reference = run_one_pool(base_options(reference_dir));

  // A log killed mid-append: two whole records, then half a frame header.
  TempDir torn("torn_partial");
  const PoolOptions options = base_options(torn);
  write_partial_shard(options, {reference.records[0], reference.records[1]});
  {
    std::ofstream tail(shard_log_path(options.sweep_dir, 0), std::ios::binary | std::ios::app);
    tail.write("\x40\x00\x00\x00\x00\x00\x00", 7);
  }

  PoolReport pool;
  const SweepReport resumed = run_one_pool(options, &pool);
  EXPECT_EQ(pool.cells_salvaged, 2u);
  EXPECT_EQ(resumed.results_hash, reference.results_hash);
}

TEST(Supervisor, ResumeRejectsLogFromDifferentGridNamingBothFingerprints) {
  TempDir dir("fingerprint");
  const PoolOptions options = base_options(dir);
  (void)run_one_pool(options);

  PoolOptions other = options;
  other.grid.hursts = {0.6, 0.85};
  try {
    (void)run_pool(other);
    FAIL() << "mismatched grid must not resume";
  } catch (const IoError& e) {
    // Fail-fast diagnostics must name BOTH identities: the grid the caller
    // asked for and the grid the directory actually belongs to.
    char expected[17];
    char found[17];
    std::snprintf(expected, sizeof expected, "%016llx",
                  static_cast<unsigned long long>(sweep_fingerprint(other.grid)));
    std::snprintf(found, sizeof found, "%016llx",
                  static_cast<unsigned long long>(sweep_fingerprint(options.grid)));
    const std::string what = e.what();
    EXPECT_NE(what.find(expected), std::string::npos) << what;
    EXPECT_NE(what.find(found), std::string::npos) << what;
  }
}

TEST(Supervisor, UnsafeFaultPlansAreRejected) {
  // Refused before anything is made: no sweep directory, no sweep.meta, no
  // lease for a rerun to wait out, and no pool forked.
  TempDir dir("unsafe");
  PoolOptions options = base_options(dir);
  const auto rejected_before_anything = [&] {
    EXPECT_THROW((void)run_pool(options), InvalidArgument);
    EXPECT_THROW((void)run_pools(options, 2), InvalidArgument);
    EXPECT_FALSE(std::filesystem::exists(options.sweep_dir));
  };
  options.faults.rate = 0.5;
  options.faults.crash = false;
  options.faults.hang = false;
  options.faults.oom = true;  // but no memory ceiling
  rejected_before_anything();

  options.faults.oom = false;
  options.faults.hang = true;
  options.limits.worker.deadline_seconds = 0.0;  // but no watchdog
  rejected_before_anything();
}

TEST(Supervisor, RetryBackoffDoesNotBlockOtherCells) {
  // Find a fault seed under which cell 0 faults on its first attempt and
  // cell 1 does not (the rate decision is deterministic per seed).
  SweepFaultPlan faults;
  faults.rate = 0.5;
  faults.hang = false;
  faults.oom = false;
  for (faults.seed = 1; faults.seed < 10000; ++faults.seed) {
    if (fault_for_attempt(faults, 0, 1) != InjectedFault::kNone &&
        fault_for_attempt(faults, 1, 1) == InjectedFault::kNone) {
      break;
    }
  }
  ASSERT_NE(fault_for_attempt(faults, 0, 1), InjectedFault::kNone);
  ASSERT_EQ(fault_for_attempt(faults, 1, 1), InjectedFault::kNone);

  const SweepGrid grid = small_grid();
  SweepLimits limits;
  limits.worker.deadline_seconds = 30.0;
  limits.max_attempts = 3;
  limits.backoff_seconds = 1.0;  // long enough that blocking would reorder

  std::vector<std::uint64_t> settle_order;
  std::vector<CellRecord> settled;
  SettleStats stats;
  settle_cells(grid, {0, 1}, limits, faults,
               [&](const CellRecord& record) {
                 settle_order.push_back(record.cell_index);
                 settled.push_back(record);
                 return true;
               },
               {}, &stats);

  // Cell 0's retry waits out a 1 s backoff; a requeue-with-due-time
  // scheduler settles cell 1 meanwhile, a blocking sleep would not.
  ASSERT_EQ(settle_order.size(), 2u);
  EXPECT_EQ(settle_order[0], 1u);
  EXPECT_EQ(settle_order[1], 0u);
  EXPECT_EQ(stats.retried_attempts, 1u);

  // Scheduling must be invisible in the results: the hash of the settled
  // records equals a fault-free, backoff-free settle of the same cells.
  std::vector<CellRecord> reference;
  SweepLimits plain;
  plain.worker.deadline_seconds = 30.0;
  settle_cells(grid, {0, 1}, plain, SweepFaultPlan{},
               [&](const CellRecord& record) {
                 reference.push_back(record);
                 return true;
               });
  std::sort(settled.begin(), settled.end(),
            [](const CellRecord& a, const CellRecord& b) {
              return a.cell_index < b.cell_index;
            });
  EXPECT_EQ(results_hash(settled), results_hash(reference));
}

TEST(Supervisor, TabulatesTheMarginalBeforeForkingWorkers) {
  const SweepGrid grid = small_grid();
  std::vector<std::uint64_t> cells(cell_count(grid));
  std::iota(cells.begin(), cells.end(), std::uint64_t{0});
  const auto settle = [&](bool isolate) {
    SweepLimits limits;
    limits.isolate = isolate;
    limits.worker.deadline_seconds = 30.0;
    std::vector<std::string> bytes;
    settle_cells(grid, cells, limits, SweepFaultPlan{}, [&](const CellRecord& record) {
      std::ostringstream out(std::ios::binary);
      write_cell_record(out, record);
      bytes.push_back(out.str());
      return true;
    });
    return bytes;
  };

  model::marginal_map_cache_clear();
  model::davies_harte_cache_clear();
  const std::vector<std::string> isolated = settle(true);
  // Forked workers cannot write to this process's cache, so an entry here
  // was tabulated by the parent before its first fork; looking the grid's
  // marginal up again adds nothing, so it is that entry.
  EXPECT_EQ(model::marginal_map_cache_size(), 1u);
  (void)model::shared_marginal_map(cell_marginal());
  EXPECT_EQ(model::marginal_map_cache_size(), 1u);
  // Likewise the Davies-Harte eigenvalues of each H at the grid's length,
  // and the unpack table of that length.
  EXPECT_EQ(model::davies_harte_cache_size(), grid.hursts.size());
  EXPECT_EQ(unpack_table_cache_size(), 1u);

  model::marginal_map_cache_clear();
  model::davies_harte_cache_clear();
  const std::vector<std::string> in_process = settle(false);
  ASSERT_EQ(isolated.size(), cells.size());
  EXPECT_EQ(isolated, in_process);
  model::marginal_map_cache_clear();
}

TEST(Supervisor, ResultsHashIgnoresNondeterministicDiagnostics) {
  std::vector<CellRecord> a{done_record(0), quarantined_record(1)};
  std::vector<CellRecord> b{done_record(0), quarantined_record(1)};
  b[1].failure.max_rss_kib += 1234;
  b[1].failure.wall_seconds *= 2.0;
  b[1].failure.stderr_tail = "different noise";
  EXPECT_EQ(results_hash(a), results_hash(b));

  b[1].status = CellStatus::kDone;
  EXPECT_NE(results_hash(a), results_hash(b));
}

// ---------------------------------------------------------------------------
// The reused worker

std::vector<std::uint64_t> all_cells(const SweepGrid& grid) {
  std::vector<std::uint64_t> cells(cell_count(grid));
  std::iota(cells.begin(), cells.end(), std::uint64_t{0});
  return cells;
}

/// Settle `cells` in one call (one worker serves them all) or one call per
/// cell (a freshly forked worker each), records in cell order.
std::vector<CellRecord> settle_records(const SweepGrid& grid, const SweepLimits& limits,
                                       const SweepFaultPlan& faults, bool one_call) {
  std::vector<CellRecord> records;
  const auto keep = [&](const CellRecord& record) {
    records.push_back(record);
    return true;
  };
  const std::vector<std::uint64_t> cells = all_cells(grid);
  if (one_call) {
    settle_cells(grid, cells, limits, faults, keep);
  } else {
    for (const std::uint64_t cell : cells) settle_cells(grid, {cell}, limits, faults, keep);
  }
  std::sort(records.begin(), records.end(), [](const CellRecord& a, const CellRecord& b) {
    return a.cell_index < b.cell_index;
  });
  return records;
}

std::string record_bytes(const CellRecord& record) {
  std::ostringstream out(std::ios::binary);
  write_cell_record(out, record);
  return out.str();
}

/// (cell, kind, attempts) of every quarantined record.
std::set<std::tuple<std::uint64_t, FailureKind, std::size_t>> quarantined_set(
    const std::vector<CellRecord>& records) {
  std::set<std::tuple<std::uint64_t, FailureKind, std::size_t>> out;
  for (const CellRecord& record : records) {
    if (record.status == CellStatus::kQuarantined) {
      out.emplace(record.cell_index, record.failure.kind, record.failure.attempts);
    }
  }
  return out;
}

TEST(ReusedWorker, RecordsDoNotDependOnWhatTheWorkerRanBefore) {
  SweepGrid grid = small_grid();
  grid.utilizations = {0.8, 0.95};  // 8 cells
  SweepLimits limits;
  limits.worker.deadline_seconds = 30.0;

  const std::vector<CellRecord> shared = settle_records(grid, limits, {}, true);
  const std::vector<CellRecord> fresh = settle_records(grid, limits, {}, false);
  ASSERT_EQ(shared.size(), cell_count(grid));
  ASSERT_EQ(fresh.size(), shared.size());
  for (std::size_t i = 0; i < shared.size(); ++i) {
    EXPECT_EQ(record_bytes(shared[i]), record_bytes(fresh[i])) << "cell " << i;
  }
  EXPECT_EQ(results_hash(shared), results_hash(fresh));

  // Faulted sweeps: one plan per injected kind, each faulting the first
  // attempt of one cell after cell 0, so the shared worker has served a
  // cell when the fault lands, and poison on cells 2 and 5. Only the hang
  // plan has a short deadline: an injected OOM fills 512 MiB first.
  struct Plan {
    SweepFaultPlan faults;
    double deadline_seconds = 10.0;
  };
  std::vector<Plan> plans;
  for (const InjectedFault kind :
       {InjectedFault::kCrash, InjectedFault::kHang, InjectedFault::kOom}) {
    Plan plan;
    plan.faults.rate = 0.1;
    plan.faults.crash = kind == InjectedFault::kCrash;
    plan.faults.hang = kind == InjectedFault::kHang;
    plan.faults.oom = kind == InjectedFault::kOom;
    if (kind == InjectedFault::kHang) plan.deadline_seconds = 0.5;
    for (plan.faults.seed = 1;; ++plan.faults.seed) {
      std::size_t faulted = 0;
      for (std::uint64_t cell = 0; cell < cell_count(grid); ++cell) {
        faulted += fault_for_attempt(plan.faults, cell, 1) != InjectedFault::kNone;
      }
      if (fault_for_attempt(plan.faults, 0, 1) == InjectedFault::kNone && faulted == 1) {
        break;
      }
    }
    plans.push_back(plan);
  }
  plans.push_back({});
  plans.back().faults.poison = {2, 5};
  limits.worker.memory_bytes = std::uint64_t{512} << 20;
  for (const Plan& plan : plans) {
    limits.worker.deadline_seconds = plan.deadline_seconds;
    const bool poison = !plan.faults.poison.empty();
    for (const std::size_t attempts : {std::size_t{1}, std::size_t{3}}) {
      limits.max_attempts = attempts;
      const std::vector<CellRecord> a = settle_records(grid, limits, plan.faults, true);
      const std::vector<CellRecord> b = settle_records(grid, limits, plan.faults, false);
      const auto quarantined = quarantined_set(a);
      const std::string what = "fault seed " + std::to_string(plan.faults.seed) +
                               (poison ? " (poison)" : "") + ", max_attempts " +
                               std::to_string(attempts);
      EXPECT_EQ(quarantined, quarantined_set(b)) << what;
      EXPECT_EQ(results_hash(a), results_hash(b)) << what;
      // One attempt quarantines the faulted cell; three heal it. Poison
      // quarantines at any budget.
      const std::size_t expected = poison ? 2 : attempts == 1 ? 1 : 0;
      EXPECT_EQ(quarantined.size(), expected) << what;
    }
  }
}

TEST(ReusedWorker, CpuCeilingIsReArmedForEveryCell) {
  // 48 cells of ~50 ms CPU each: together past a 1 s ceiling (and past
  // the 2 s a ceiling set once, rounded up, would allow), each far inside
  // it. A worker that set RLIMIT_CPU once would die of SIGXCPU part way,
  // and its cell would need a second fork.
  SweepGrid grid;
  grid.queues = {QueueKind::kFluid};
  grid.hursts = {0.7, 0.8, 0.9};
  grid.utilizations = {0.8, 0.9};
  grid.buffer_ms = {5.0, 10.0, 20.0, 40.0, 60.0, 80.0, 120.0, 160.0};
  grid.sources = {16};
  grid.frames_per_source = std::size_t{1} << 16;
  SweepLimits limits;
  limits.worker.deadline_seconds = 30.0;
  limits.worker.cpu_seconds = 1;
  limits.max_attempts = 1;

  std::size_t hangs = 0;
  std::size_t done = 0;
  SettleStats stats;
  settle_cells(grid, all_cells(grid), limits, {},
               [&](const CellRecord& record) {
                 done += record.status == CellStatus::kDone;
                 hangs += record.status == CellStatus::kQuarantined &&
                          record.failure.kind == FailureKind::kHang;
                 return true;
               },
               {}, &stats);
  EXPECT_EQ(done, cell_count(grid));
  EXPECT_EQ(hangs, 0u);
  EXPECT_EQ(stats.workers_forked, 1u);
}

/// No child of this process is left, running or unreaped.
bool no_children_left() {
  int status = 0;
  return ::waitpid(-1, &status, WNOHANG) == -1 && errno == ECHILD;
}

TEST(ReusedWorker, NoWorkerOutlivesSettleCells) {
  SweepGrid grid = small_grid();
  SweepLimits limits;
  limits.worker.deadline_seconds = 30.0;
  const std::vector<std::uint64_t> cells = all_cells(grid);

  // A callback that throws (a result log that cannot append) after k cells.
  for (const std::size_t k : {std::size_t{1}, std::size_t{3}}) {
    std::size_t settled = 0;
    EXPECT_THROW(settle_cells(grid, cells, limits, {},
                              [&](const CellRecord&) -> bool {
                                if (++settled == k) throw IoError("append failed");
                                return true;
                              }),
                 IoError);
    EXPECT_TRUE(no_children_left()) << "after a throw at cell " << k;
  }

  // A callback that gives up (a lost lease).
  std::size_t settled = 0;
  settle_cells(grid, cells, limits, {}, [&](const CellRecord&) { return ++settled < 2; });
  EXPECT_EQ(settled, 2u);
  EXPECT_TRUE(no_children_left());

  // The normal end, and the end after a failed cell.
  SweepFaultPlan faults;
  faults.poison = {3};
  SettleStats stats;
  settle_cells(grid, cells, limits, faults, [](const CellRecord&) { return true; }, {},
               &stats);
  EXPECT_EQ(stats.workers_forked, 2u);  // the poison cell ran in a worker of its own
  EXPECT_TRUE(no_children_left());
}

/// The supervisor of WorkerDiesWithItsSupervisor: report that the first
/// attempt is about to start, then settle one cell whose worker hangs.
[[noreturn]] void hang_a_worker(int ready_fd) {
  (void)::setpgid(0, 0);
  SweepLimits limits;
  limits.worker.deadline_seconds = 600.0;
  SweepFaultPlan faults;
  faults.rate = 1.0;
  faults.crash = false;
  faults.oom = false;
  try {
    settle_cells(small_grid(), {0}, limits, faults, [](const CellRecord&) { return true; },
                 [&] { (void)::write(ready_fd, "r", 1); });
  } catch (...) {
  }
  ::_exit(0);
}

TEST(ReusedWorker, WorkerDiesWithItsSupervisor) {
  // Orphans re-parent to this process, so a worker that outlived its
  // supervisor shows up here as a child that has not exited.
  ASSERT_EQ(::prctl(PR_SET_CHILD_SUBREAPER, 1), 0);
  int ready[2];
  ASSERT_EQ(::pipe(ready), 0);
  // NOLINTNEXTLINE(vbr-fork-safety): the test stands in for a pool; gtest is single-threaded here and the child settles one cell, then _exits.
  const pid_t supervisor = ::fork();
  ASSERT_GE(supervisor, 0);
  if (supervisor == 0) hang_a_worker(ready[1]);
  ::close(ready[1]);
  char byte = 0;
  ASSERT_EQ(::read(ready[0], &byte, 1), 1);
  ::close(ready[0]);
  // The worker is forked right after the tick and hangs in pause(); wait
  // until the supervisor has it as a child.
  const std::string children = "/proc/" + std::to_string(supervisor) + "/task/" +
                               std::to_string(supervisor) + "/children";
  const auto forked_by = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  for (std::string pid; pid.empty() && std::chrono::steady_clock::now() < forked_by;) {
    std::ifstream(children) >> pid;
    if (pid.empty()) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));  // into pause()
  ASSERT_EQ(::kill(supervisor, SIGKILL), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(supervisor, &status, 0), supervisor);

  bool worker_reaped = false;
  const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  for (;;) {
    const pid_t pid = ::waitpid(-1, &status, WNOHANG);
    if (pid > 0) {
      // SIGKILL from the death signal, or its own exit if the supervisor
      // died before the death signal was set.
      worker_reaped = true;
      EXPECT_TRUE((WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL) ||
                  (WIFEXITED(status) && WEXITSTATUS(status) == 0));
      continue;
    }
    if (pid < 0 && errno == ECHILD) break;
    if (std::chrono::steady_clock::now() > give_up) {
      (void)::kill(-supervisor, SIGKILL);  // the worker is in the supervisor's group
      while (::waitpid(-1, &status, 0) > 0) {
      }
      ADD_FAILURE() << "the worker outlived its supervisor";
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(worker_reaped);
  ASSERT_EQ(::prctl(PR_SET_CHILD_SUBREAPER, 0), 0);
}

}  // namespace
}  // namespace vbr::sweep
