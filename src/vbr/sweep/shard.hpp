// Deterministic grid sharding: how a sweep splits into independently
// computable, order-invariantly mergeable pieces.
//
// A shard is a contiguous row-major range of cell indexes. Cell seeds stay
// exactly the PR 5 whole-grid derivation (Rng(grid.seed).split() in cell
// order), so a cell's spec — and therefore its result bytes — is identical
// whether it runs in a single-pool sweep, shard 0 of 2, or shard 7 of 8:
// sharding repartitions the work, never the randomness. Each shard also
// carries its own fingerprint, derived from the grid's sweep_fingerprint by
// the same Rng::split discipline, sealed into its VBRSWPL1 log header so a
// shard file can never be silently replayed against the wrong grid, the
// wrong shard count, or the wrong slot.
//
// merge_shard_records is the other half of the contract: folding any
// permutation or interleaving of per-shard results yields byte-identical
// merged records and an identical results_hash, because the merge sorts by
// the one total order every pool agrees on (cell_index) and every record is
// a pure function of its spec. That is what lets N work-stealing pools,
// with kills and steals and duplicate appends, end at the single-pool
// fault-free hash.
#pragma once

#include <cstdint>
#include <vector>

#include "vbr/sweep/result_log.hpp"
#include "vbr/sweep/sweep_plan.hpp"

namespace vbr::sweep {

/// Hard bound on the shard count (a dispatch-layer sanity cap; real sweeps
/// use tens to hundreds of shards across a handful of pools).
inline constexpr std::uint64_t kMaxShards = std::uint64_t{1} << 12;

/// One shard's contiguous cell range [first, end). Empty when first == end
/// (more shards than cells).
struct ShardRange {
  std::uint64_t first = 0;
  std::uint64_t end = 0;

  std::uint64_t size() const { return end - first; }
  bool contains(std::uint64_t cell) const { return cell >= first && cell < end; }
};

/// Balanced contiguous partition: every shard gets cells/count cells, the
/// first cells%count shards one extra. Requires 1 <= shard_count <=
/// kMaxShards and shard_index < shard_count.
ShardRange shard_cell_range(std::uint64_t total_cells, std::uint64_t shard_count,
                            std::uint64_t shard_index);

/// Per-shard fingerprints: Rng(sweep_fingerprint).split() drawn once per
/// shard in shard order — the identity discipline cell seeds use, applied
/// to shard files. Any pool recomputes the same vector from the grid alone,
/// so any shard can be computed (or verified) by any pool.
std::vector<std::uint64_t> derive_shard_fingerprints(std::uint64_t sweep_fingerprint,
                                                     std::uint64_t shard_count);

/// The sealed VBRSWPL1 header for one shard of a validated grid.
ResultLogHeader shard_log_header(const SweepGrid& grid, std::uint64_t shard_count,
                                 std::uint64_t shard_index);

/// Result of an order-invariant shard merge.
struct ShardMerge {
  /// Every settled cell, ascending cell_index — byte-identical for any
  /// permutation or interleaving of the input shards.
  std::vector<CellRecord> records;
  std::uint64_t results_hash = 0;
  std::size_t completed = 0;
  std::size_t quarantined = 0;
  /// Byte-identical duplicates collapsed across shard boundaries.
  std::size_t duplicate_records = 0;
};

/// Merge per-shard settled records into one ascending sequence. Throws
/// vbr::IoError on an out-of-range index, or on conflicting duplicates
/// (same cell, different deterministic bytes — the purity contract broke).
/// With `require_complete`, every cell in [0, total_cells) must be present.
ShardMerge merge_shard_records(const std::vector<std::vector<CellRecord>>& shards,
                               std::uint64_t total_cells, bool require_complete);

}  // namespace vbr::sweep
