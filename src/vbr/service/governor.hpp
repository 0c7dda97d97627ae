// OverloadGovernor: the layer that turns the streaming service from
// "restartable" into "keeps serving while parts of it fail".
//
// A TrafficService is crash-safe (SIGKILL + resume is bit-identical) but
// not overload-safe: one throwing backend takes down the whole
// advance_round, and the only resource policy is a hard RSS abort in the
// CLI. For H ~ 0.8 sources that is the wrong shape — long-range dependence
// means sustained excursions far above the mean are *expected* (the
// paper's Section 5 queueing results exist precisely because provisioning
// for the mean fails), so the serving layer must be engineered to degrade,
// not crash. The governor adds three behaviours around the service, all
// deterministic under a seeded schedule:
//
//   1. Budgeted admission. A fleet is admitted against explicit memory /
//      CPU / queue-loss budgets using a per-backend cost model calibrated
//      from bench_service (~0.85 KiB/stream for hosking at the default
//      horizon). Rejections are structured AdmissionDecision values, never
//      exceptions: the caller learns the projected cost, the budget, and
//      which resource refused.
//
//   2. Per-stream fault isolation. A backend throw during next_block()
//      quarantines *that stream* while the rest of the fleet keeps
//      serving. TransientError is retried with exponential backoff from a
//      snapshot of the stream's serialized state (the streaming
//      generalization of the engine FailurePolicy's retry-from-Rng-copy:
//      a retried stream is bit-identical to one that never faulted);
//      exhausted retries and permanent errors become structured
//      StreamFailure records. Scheduled faults fire at exact per-stream
//      sample positions, so a quarantined stream freezes having emitted
//      exactly the same samples for any thread count or block size.
//
//   3. Deterministic graceful degradation. Pressure arrives either from a
//      seeded schedule (epochs measured in per-stream samples — the
//      deterministic mode every test and soak uses) or from a live probe
//      (RSS / deadline — the production mode). The governor answers with a
//      documented ladder, applied and released in order:
//
//        level 1  shed: pause the lowest-priority (highest-index) fraction
//                 of active streams; they resume exactly where they froze
//                 when pressure clears.
//        level 2  shrink: cap the per-round block so scratch memory and
//                 checkpoint latency fall (output-neutral by the service's
//                 block-size invariance).
//        level 3  checkpoint: request a checkpoint so the supervisor can
//                 restart-with-resume instead of losing work.
//
// Determinism contract (pinned by tests/governor_test.cpp and the
// crash_soak --service --overload phase): for a fixed GovernorConfig with
// a seeded fault/pressure schedule, results_hash() after a fixed number of
// governed samples is invariant to thread count and to how the caller
// slices rounds, and SIGKILL + resume mid-degradation reproduces the
// uninterrupted run bit-for-bit. The live-probe mode trades this guarantee
// for real feedback and is never used in tests.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "vbr/engine/engine.hpp"
#include "vbr/run/fault_injection.hpp"
#include "vbr/service/traffic_service.hpp"

namespace vbr::service {

/// Why an admission request was accepted or refused.
enum class AdmissionOutcome : std::uint8_t {
  kAdmitted = 0,
  kRejectedMemory = 1,    ///< projected stream state exceeds the memory budget
  kRejectedCpu = 2,       ///< projected sample rate exceeds the CPU budget
  kRejectedLoss = 3,      ///< analytic queue loss would exceed the target
};

const char* admission_outcome_name(AdmissionOutcome outcome);

/// A structured admission verdict: never thrown, always returned, so a
/// caller can report "why not" with the numbers attached.
struct AdmissionDecision {
  AdmissionOutcome outcome = AdmissionOutcome::kAdmitted;
  std::size_t requested_streams = 0;
  /// Projected resident stream-state bytes for the whole fleet if admitted.
  std::uint64_t projected_memory_bytes = 0;
  std::uint64_t memory_budget_bytes = 0;  ///< 0 = unbounded
  /// Projected steady-state sample rate (streams / frame_seconds).
  double projected_samples_per_second = 0.0;
  double cpu_budget_samples_per_second = 0.0;  ///< 0 = unbounded
  std::string reason;

  bool admitted() const { return outcome == AdmissionOutcome::kAdmitted; }
};

/// Explicit resource budgets for admission. Zero means "unbounded" for
/// that axis, so the default budget admits everything.
struct ResourceBudget {
  std::uint64_t memory_bytes = 0;
  double cpu_samples_per_second = 0.0;
  /// When > 0 and the config enables the queue feed, gate admission on the
  /// analytic bufferless loss fraction (net::BufferlessAdmission over the
  /// paper's N-fold Gamma/Pareto convolution) staying at or under this
  /// target. The tabulated convolution is O(N * table), so the gate only
  /// applies up to kLossGateMaxStreams sources; beyond that the memory and
  /// CPU budgets govern.
  double queue_loss_target = 0.0;
};

/// Largest fleet the analytic loss gate will evaluate (see ResourceBudget).
inline constexpr std::size_t kLossGateMaxStreams = 2048;

/// Per-stream resident state cost model (bytes), calibrated against
/// bench_service RSS measurements: hosking carries an m-sample ring plus
/// predictor tables (~0.85 KiB at the default m = 64), paxson a composed
/// window plus crossfade overlap, onoff a heap sized by the expected
/// session concurrency. Includes the service's own per-stream overhead
/// (pointer, status, digest, marginal state).
std::uint64_t stream_state_bytes(model::GeneratorBackend backend, const StreamingTuning& tuning);

/// Build-time admission gate: would this fleet fit these budgets? Pure
/// function of the config — serve_traffic consults it before constructing
/// the (memory-proportional) TrafficService.
AdmissionDecision admit_fleet(const ServiceConfig& config, const ResourceBudget& budget);

/// One stream quarantined by the governor: which stream, what finally
/// stopped it, where it froze, and how hard the governor tried.
struct StreamFailure {
  std::size_t stream = 0;
  /// True when a TransientError exhausted the retry policy; false for a
  /// permanent (non-transient) error.
  bool transient = false;
  /// Per-stream samples emitted when the stream froze. For a scheduled
  /// fault this is exactly the fault's at_sample for any thread count or
  /// block size; for an unscheduled throw it is the round-start position
  /// (the partial block is discarded because the mid-throw state is not
  /// trustworthy).
  std::uint64_t position = 0;
  std::uint32_t attempts = 0;
  std::string error;
};

/// A seeded per-stream fault: fire when `stream` reaches per-stream sample
/// `at_sample`, for `times` consecutive generation attempts. Only
/// kTransient and kPermanent kinds are meaningful at a generation site.
struct ScheduledStreamFault {
  std::size_t stream = 0;
  std::uint64_t at_sample = 0;
  run::FaultKind kind = run::FaultKind::kTransient;
  std::uint64_t times = 1;
};

/// A seeded pressure transition: when every full-speed stream has emitted
/// `at_epoch` governed samples, move the ladder to `level` (0 recovers).
struct PressureEvent {
  std::uint64_t at_epoch = 0;
  int level = 0;
};

struct GovernorConfig {
  ResourceBudget budget;
  /// Retry semantics for TransientError, exactly the engine contract:
  /// max_attempts total tries, sleep backoff * 2^(k-1) before retry k,
  /// optional wall-clock deadline per stream. The `quarantine` flag is
  /// ignored — isolating the stream instead of failing the round is the
  /// governor's entire purpose.
  engine::FailurePolicy policy;
  /// Seeded fault schedule (deterministic mode).
  std::vector<ScheduledStreamFault> stream_faults;
  /// Seeded pressure schedule, strictly increasing at_epoch, levels 0..3.
  std::vector<PressureEvent> pressure_schedule;
  /// Fraction of active streams shed (paused, highest index first) when the
  /// ladder reaches level 1.
  double shed_fraction = 0.25;
  /// Block cap at level 2; 0 means half the requested block (at least 1).
  std::size_t degraded_block = 0;
  /// Snapshot every stream generated on its own before its generation, so
  /// even *unscheduled* TransientErrors get full retry semantics. Lanes of a
  /// lockstep group need none: a group that throws has advanced no lane and
  /// reruns each one on its own, snapshotted. Costs one state serialization
  /// per stream generated on its own per round (bench_service measures the
  /// whole guard as its "quarantine overhead"); off by default so the
  /// healthy fleet pays one branch.
  bool snapshot_every_round = false;
  /// Live pressure probe returning a desired ladder level (e.g. an RSS
  /// reading mapped to thresholds). Consulted once per advance_round, and
  /// mutually exclusive with pressure_schedule. Non-deterministic: the
  /// hash-invariance guarantee does not cover probe-driven transitions.
  std::function<int()> pressure_probe;
};

/// The governor proper. Owns no streams — it wraps a TrafficService and
/// implements the service's StreamGovernor generation hook.
class OverloadGovernor final : public StreamGovernor {
 public:
  /// Validates the config (fault streams, schedule ordering, fractions) and
  /// indexes the fault schedule by stream. Throws vbr::InvalidArgument.
  OverloadGovernor(TrafficService& service, GovernorConfig config);

  /// Advance the fleet by `block` governed samples, splitting the round at
  /// scheduled pressure epochs so every transition lands at an exact
  /// per-stream position (this is what makes the hash invariant to how the
  /// caller slices rounds).
  void advance_round(std::size_t block);

  /// Current ladder level (0 = nominal .. 3 = checkpoint requested).
  int level() const { return level_; }
  /// Governed samples each full-speed stream has emitted.
  std::uint64_t epoch() const { return epoch_; }
  /// Quarantine records, ordered by stream index.
  std::vector<StreamFailure> failures() const;
  std::size_t quarantined_streams() const;
  /// Transient faults absorbed by retry (the streams still serve).
  std::uint64_t transient_retries() const { return transient_retries_; }
  /// Streams currently shed (paused) by the ladder.
  std::size_t shed_streams() const { return shed_.size(); }
  /// Set on entering level 3; the serving loop should checkpoint, then
  /// acknowledge_checkpoint() to clear.
  bool checkpoint_requested() const { return checkpoint_requested_; }
  void acknowledge_checkpoint() { checkpoint_requested_ = false; }

  /// Serialize / restore the governor (ladder position, shed set, failure
  /// records, remaining fault schedule, retry counters) so a checkpoint
  /// taken mid-degradation resumes bit-identically. The payload carries a
  /// fingerprint of the governed schedule; restore_state throws
  /// vbr::IoError if the checkpoint belongs to a different GovernorConfig.
  void save_state(std::ostream& out) const;
  void restore_state(std::istream& in);

  /// StreamGovernor hooks (called by TrafficService workers, concurrently
  /// for distinct streams). Not for direct use. generate_lanes advances
  /// two or more lanes with no scheduled fault in this block as one
  /// lockstep group and every other lane through generate(). A group that
  /// throws has advanced no lane (StreamingHosking::next_block_lanes), so
  /// each of its lanes reruns from the round's start through generate(),
  /// which snapshots, retries or quarantines it as a stream of its own.
  bool generate(std::size_t stream, StreamingSource& source, std::size_t block,
                std::vector<double>& out) override;
  void generate_lanes(std::span<const std::size_t> streams,
                      std::span<StreamingVbrSource* const> lanes, std::size_t block,
                      std::span<std::vector<double>* const> outs, std::vector<double>& window,
                      std::span<bool> quarantine) override;

 private:
  struct FaultEntry {
    std::uint64_t at_sample = 0;
    run::FaultKind kind = run::FaultKind::kTransient;
    std::uint64_t remaining = 0;
    /// Position in GovernorConfig::stream_faults (checkpoint ordering).
    std::size_t config_index = 0;
  };
  struct StreamFaultState {
    std::vector<FaultEntry> entries;  ///< sorted by at_sample
  };

  StreamFaultState* fault_state(std::size_t stream);
  bool faults_pending(const StreamFaultState* state, std::uint64_t position,
                      std::size_t block) const;
  /// Generate `block` samples, throwing at the exact scheduled positions;
  /// sets `threw_scheduled` just before firing so the catch site can tell
  /// a scheduled fault (deterministic partial block) from a stray one.
  void generate_with_plan(StreamingSource& source, std::size_t block, std::vector<double>& out,
                          StreamFaultState& state, bool& threw_scheduled);
  bool generate_guarded(std::size_t stream, StreamingSource& source, std::size_t block,
                        std::vector<double>& out, StreamFaultState* state);
  void record_failure(StreamFailure failure);
  void apply_level(int level);
  std::uint64_t config_fingerprint() const;

  TrafficService& service_;
  GovernorConfig config_;
  std::unordered_map<std::size_t, StreamFaultState> fault_states_;
  std::size_t next_event_ = 0;  ///< first unapplied pressure_schedule entry
  std::uint64_t epoch_ = 0;
  int level_ = 0;
  std::vector<std::size_t> shed_;  ///< streams paused by the ladder
  bool checkpoint_requested_ = false;
  std::atomic<std::uint64_t> transient_retries_{0};
  mutable std::mutex failures_mutex_;
  std::map<std::size_t, StreamFailure> failures_;  ///< keyed by stream index
};

}  // namespace vbr::service
