// Lease-based multi-pool dispatch with work stealing: N supervisor pools —
// separate processes, optionally separate hosts — drive one sharded sweep
// through nothing but a shared directory.
//
// Layout of a sweep directory:
//
//   sweep.meta            sealed VBRSWPL1 header for shard 0 (identity
//                         witness: every pool verifies its grid against it)
//   shard_NNNN.log        per-shard VBRSWPL1 append-only result log
//   shard_NNNN.done       completion marker (shard fingerprint, hex)
//   leases/shard_NNNN.lease   current owner's claim token
//
// The lease protocol needs only POSIX file atomicity, so it works across
// hosts over a shared filesystem:
//
//   claim:     write a unique token file, link() it to the lease path —
//              atomic and exclusive, EEXIST means another pool holds it
//   heartbeat: re-read the lease; if it still carries our token, bump its
//              mtime. A token swap means the shard was stolen from us:
//              stop appending, let the thief replay.
//   steal:     a lease whose mtime is older than ttl_seconds belongs to a
//              dead pool (SIGKILL leaves no release); rename() our token
//              over it — atomic replace — then read back to see who won.
//   release:   unlink after the done marker is written.
//
// A stolen shard is *replayed from its log prefix*: the thief recovers the
// dead pool's log (truncating any torn tail), salvages every settled cell,
// and appends only the remainder. Two pools briefly appending the same
// shard — a stale-lease race or an injected duplicate claim — is healed by
// design: appends are whole-frame O_APPEND writes of deterministic record
// bytes, so the overlap is byte-identical duplicates the scan collapses.
//
// PoolFaultPlan is the crash-soak seam: a pool can be told to SIGKILL
// itself mid-shard (optionally leaving a torn tail), or to claim a shard
// it has no right to. collect_sweep() then proves the point: whatever the
// fault schedule, the merged records hash bit-identically to a fault-free
// one-pool sweep.
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "vbr/sweep/shard.hpp"
#include "vbr/sweep/supervisor.hpp"

namespace vbr::sweep {

/// Lease timing. ttl_seconds is how stale a lease must be before another
/// pool may steal it; heartbeat_seconds is how often a working pool
/// freshens its claim (must be well under ttl).
struct LeaseConfig {
  double ttl_seconds = 30.0;
  double heartbeat_seconds = 5.0;
};

/// Seeded pool-level fault injection (the soak seam). Worker-level faults
/// (crash/hang/OOM/poison) stay in SweepFaultPlan; these kill the *pool*.
struct PoolFaultPlan {
  /// SIGKILL this pool after it has appended this many records (0 = never).
  std::uint64_t kill_after_records = 0;
  /// Before dying, append a garbage partial frame — the torn tail a crash
  /// mid-write would leave — so recovery has something to truncate.
  bool torn_tail_on_kill = false;
  /// Claim one shard while ignoring a fresh foreign lease (the duplicate-
  /// claim race); the overlap must heal to byte-identical duplicates.
  bool duplicate_claim = false;
};

struct PoolOptions {
  /// The shared sweep directory (created if missing).
  std::filesystem::path sweep_dir;
  SweepGrid grid;
  std::uint64_t shard_count = 1;
  /// Label baked into lease tokens (diagnostics; uniqueness comes from
  /// pid + a per-claim counter). Defaults to "pool-<pid>".
  std::string pool_id;
  LeaseConfig lease;
  SweepLimits limits;
  SweepFaultPlan faults;
  PoolFaultPlan pool_faults;
  /// fsync the result logs (header and every append), sweep.meta and the
  /// .done markers. Lease files are never fsynced (DESIGN §13).
  bool durable = false;
  /// Per-record progress hook (settling order, this pool's shards only).
  std::function<void(const CellRecord&)> on_cell_settled;
};

struct PoolReport {
  std::size_t shards_completed = 0;  ///< shards this pool finished
  std::size_t shards_stolen = 0;     ///< claims taken from an expired lease
  std::size_t cells_settled = 0;     ///< records this pool appended
  std::size_t cells_salvaged = 0;    ///< records replayed from log prefixes
  std::size_t retried_attempts = 0;
  std::size_t lost_leases = 0;       ///< shards abandoned mid-run to a thief
  bool sweep_complete = false;       ///< every shard done when we stopped
};

/// Run one pool to completion: claim shards, settle their cells into the
/// per-shard logs, steal stale leases, stop when every shard is done.
/// Safe to run concurrently from any number of processes on one sweep_dir.
/// Rerunning it on a finished or interrupted directory resumes: settled
/// cells are salvaged, never re-run. Throws vbr::InvalidArgument on a bad
/// grid, limits, fault plan (validate_sweep_inputs), shard count or lease
/// timing before it creates anything, and vbr::IoError when the directory
/// belongs to another grid or shard count (naming both fingerprints).
PoolReport run_pool(const PoolOptions& options);

struct MultiPoolReport {
  std::size_t pools = 0;
  std::size_t pools_failed = 0;  ///< nonzero exit or fatal signal
  bool sweep_complete = false;
};

/// Fork `pool_count` pools over one sweep directory and wait for them.
/// `plan_for_pool` (optional) assigns each pool index its fault plan — the
/// soak harness kills pool 0 mid-shard and lets 1..N-1 steal the wreckage.
/// An injected pool death makes the sweep report incomplete only if every
/// survivor also died; callers re-invoke to finish. `base` is checked as
/// run_pool checks it, before the first fork.
MultiPoolReport run_pools(const PoolOptions& base, std::size_t pool_count,
                          const std::function<PoolFaultPlan(std::size_t)>&
                              plan_for_pool = {});

/// Merge every shard log in the directory into one SweepReport whose
/// records and results_hash are bit-identical to a fault-free one-pool
/// sweep of the same grid at any shard count. With `require_complete`,
/// throws if any cell is still unsettled. Read-only: logs are scanned, not
/// healed.
SweepReport collect_sweep(const std::filesystem::path& sweep_dir,
                          const SweepGrid& grid, std::uint64_t shard_count,
                          bool require_complete = true);

/// --- lease primitives, exposed for tests and the soak harness ---

enum class LeaseClaim {
  kClaimed,  ///< fresh claim: the lease did not exist
  kStolen,   ///< replaced a lease staler than ttl
  kHeld,     ///< another pool holds a fresh lease (or won the steal race)
};

/// Attempt to claim `lease_path` with `token`. `steal_stale` permits
/// replacing a lease whose mtime is older than ttl; `ignore_fresh` is the
/// injected duplicate-claim fault (treat a fresh lease as stale).
LeaseClaim claim_lease(const std::filesystem::path& lease_path,
                       const std::string& token, double ttl_seconds,
                       bool steal_stale, bool ignore_fresh = false);

/// Freshen our claim's mtime. Returns false — stop working the shard — if
/// the lease no longer carries `token` (stolen) or vanished.
bool heartbeat_lease(const std::filesystem::path& lease_path,
                     const std::string& token);

/// Drop the lease iff it still carries `token`.
void release_lease(const std::filesystem::path& lease_path,
                   const std::string& token);

/// Publish a file every racing writer means to fill with the same `content`
/// (sweep.meta, the .done markers). Each writer stages a temp of its own
/// (fsynced when `durable`) and links it into place; the first link wins,
/// so a reader of an existing file always sees the whole content, and a
/// later writer only compares. Throws vbr::IoError if the file holds other
/// bytes or the publish fails.
void publish_agreed_file(const std::filesystem::path& path, const std::string& content,
                         bool durable);

/// Paths inside a sweep directory (shared with the soak harness).
std::filesystem::path shard_log_path(const std::filesystem::path& sweep_dir,
                                     std::uint64_t shard_index);
std::filesystem::path shard_done_path(const std::filesystem::path& sweep_dir,
                                      std::uint64_t shard_index);
std::filesystem::path shard_lease_path(const std::filesystem::path& sweep_dir,
                                       std::uint64_t shard_index);

}  // namespace vbr::sweep
