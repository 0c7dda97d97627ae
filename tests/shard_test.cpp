// Tests for deterministic grid sharding: balanced contiguous ranges,
// split-derived shard fingerprints, and the order-invariance property of
// merge_shard_records — any permutation or interleaving of per-shard
// results must merge to byte-identical records and an identical
// results_hash.
#include "vbr/sweep/shard.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "vbr/common/error.hpp"
#include "vbr/sweep/supervisor.hpp"

namespace vbr::sweep {
namespace {

CellRecord done_record(std::uint64_t index) {
  CellRecord record;
  record.cell_index = index;
  record.status = CellStatus::kDone;
  record.result.mean_rate_bps = 1e6 + static_cast<double>(index);
  record.result.capacity_bps = 2e6 + static_cast<double>(index);
  record.result.buffer_bytes = 4096.0;
  record.result.loss_rate = 1e-3 / static_cast<double>(index + 1);
  record.result.mean_queue_bytes = 100.0 * static_cast<double>(index);
  record.result.max_queue_bytes = 4096.0;
  return record;
}

CellRecord quarantined_record(std::uint64_t index) {
  CellRecord record;
  record.cell_index = index;
  record.status = CellStatus::kQuarantined;
  record.failure.kind = FailureKind::kError;
  record.failure.attempts = 1;
  record.failure.message = "injected poison cell (deterministic failure)";
  return record;
}

/// The full settled-record set for a pretend grid of `total` cells, every
/// fifth cell quarantined.
std::vector<CellRecord> full_records(std::uint64_t total) {
  std::vector<CellRecord> records;
  for (std::uint64_t i = 0; i < total; ++i) {
    records.push_back(i % 5 == 4 ? quarantined_record(i) : done_record(i));
  }
  return records;
}

/// The records' serialized bytes, in order: what a result log would hold.
std::string record_bytes(const std::vector<CellRecord>& records) {
  std::ostringstream out(std::ios::binary);
  for (const CellRecord& record : records) write_cell_record(out, record);
  return out.str();
}

// ---------------------------------------------------------------------------
// Ranges and fingerprints

TEST(ShardRanges, PartitionIsBalancedContiguousAndComplete) {
  for (const std::uint64_t total : {1u, 7u, 24u, 100u, 1000u}) {
    for (const std::uint64_t count : {1u, 2u, 3u, 5u, 8u, 13u}) {
      std::uint64_t expected_first = 0;
      for (std::uint64_t shard = 0; shard < count; ++shard) {
        const ShardRange range = shard_cell_range(total, count, shard);
        EXPECT_EQ(range.first, expected_first);
        // Balanced: sizes differ by at most one, larger shards first.
        const std::uint64_t base = total / count;
        EXPECT_EQ(range.size(), shard < total % count ? base + 1 : base);
        expected_first = range.end;
      }
      EXPECT_EQ(expected_first, total);  // ranges tile the grid exactly
    }
  }
}

TEST(ShardRanges, RejectsBadShapes) {
  EXPECT_THROW(shard_cell_range(10, 0, 0), Error);
  EXPECT_THROW(shard_cell_range(10, 2, 2), Error);
  EXPECT_THROW(shard_cell_range(10, kMaxShards + 1, 0), Error);
}

TEST(ShardFingerprints, AreDistinctDeterministicAndGridBound) {
  const std::vector<std::uint64_t> fps = derive_shard_fingerprints(0x1234, 8);
  ASSERT_EQ(fps.size(), 8u);
  EXPECT_EQ(std::set<std::uint64_t>(fps.begin(), fps.end()).size(), 8u);
  EXPECT_EQ(derive_shard_fingerprints(0x1234, 8), fps);
  EXPECT_NE(derive_shard_fingerprints(0x1235, 8), fps);
  // A prefix of a larger split is the smaller split: shard identity does
  // not depend on how many shards come after it.
  const std::vector<std::uint64_t> fewer = derive_shard_fingerprints(0x1234, 3);
  EXPECT_TRUE(std::equal(fewer.begin(), fewer.end(), fps.begin()));
}

TEST(ShardHeaders, CarryGridIdentityAndShardRange) {
  SweepGrid grid;
  grid.queues = {QueueKind::kFluid};
  grid.hursts = {0.7, 0.8, 0.9};
  grid.utilizations = {0.8, 0.9};
  grid.buffer_ms = {10.0};
  grid.sources = {1};
  grid.frames_per_source = 64;
  grid.seed = 1994;

  const ResultLogHeader header = shard_log_header(grid, 3, 1);
  EXPECT_EQ(header.sweep_fingerprint, sweep_fingerprint(grid));
  EXPECT_EQ(header.shard_fingerprint,
            derive_shard_fingerprints(sweep_fingerprint(grid), 3)[1]);
  EXPECT_EQ(header.total_cells, cell_count(grid));
  EXPECT_EQ(header.shard_count, 3u);
  EXPECT_EQ(header.shard_index, 1u);
  const ShardRange range = shard_cell_range(cell_count(grid), 3, 1);
  EXPECT_EQ(header.first_cell, range.first);
  EXPECT_EQ(header.end_cell, range.end);
}

// ---------------------------------------------------------------------------
// Merge: the order-invariance property

TEST(ShardMergeProperty, AnyPartitionOrderAndInterleavingMergesByteIdentically) {
  const std::uint64_t total = 30;
  const std::vector<CellRecord> reference = full_records(total);
  const std::string reference_bytes = record_bytes(reference);
  const std::uint64_t reference_hash = results_hash(reference);

  std::mt19937 rng(1994);
  for (const std::uint64_t k : {2u, 3u, 5u, 8u}) {
    for (int trial = 0; trial < 8; ++trial) {
      // Partition by contiguous range, then shuffle each shard's record
      // order (pools settle in scheduling order, not index order)...
      std::vector<std::vector<CellRecord>> shards(k);
      for (std::uint64_t shard = 0; shard < k; ++shard) {
        const ShardRange range = shard_cell_range(total, k, shard);
        for (std::uint64_t cell = range.first; cell < range.end; ++cell) {
          shards[shard].push_back(reference[cell]);
        }
        std::shuffle(shards[shard].begin(), shards[shard].end(), rng);
      }
      // ...then shuffle the shard order itself (collection order is
      // whichever pool finished first)...
      std::shuffle(shards.begin(), shards.end(), rng);
      // ...and sprinkle healed-overlap duplicates.
      std::size_t injected_duplicates = 0;
      for (auto& shard : shards) {
        if (!shard.empty() && rng() % 2 == 0) {
          shard.push_back(shard[rng() % shard.size()]);
          injected_duplicates += 1;
        }
      }

      const ShardMerge merge = merge_shard_records(shards, total, true);
      EXPECT_EQ(record_bytes(merge.records), reference_bytes)
          << "k=" << k << " trial=" << trial;
      EXPECT_EQ(merge.results_hash, reference_hash);
      EXPECT_EQ(merge.completed + merge.quarantined, total);
      EXPECT_EQ(merge.duplicate_records, injected_duplicates);
    }
  }
}

TEST(ShardMergeErrors, OutOfRangeConflictAndIncompleteAreRejected) {
  const std::uint64_t total = 10;
  std::vector<std::vector<CellRecord>> shards{full_records(total)};

  std::vector<std::vector<CellRecord>> rogue = shards;
  rogue[0].push_back(done_record(total));  // index escapes the grid
  EXPECT_THROW(merge_shard_records(rogue, total, true), IoError);

  std::vector<std::vector<CellRecord>> conflict = shards;
  CellRecord twisted = done_record(3);
  twisted.result.loss_rate *= 10.0;
  conflict.push_back({twisted});  // same cell, different bytes
  EXPECT_THROW(merge_shard_records(conflict, total, true), IoError);

  std::vector<std::vector<CellRecord>> partial = shards;
  partial[0].erase(partial[0].begin() + 4);
  EXPECT_THROW(merge_shard_records(partial, total, true), IoError);
  // Without require_complete the partial merge is fine (progress probes).
  const ShardMerge merge = merge_shard_records(partial, total, false);
  EXPECT_EQ(merge.records.size(), total - 1);
}

}  // namespace
}  // namespace vbr::sweep
