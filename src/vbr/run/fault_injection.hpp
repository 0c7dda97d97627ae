// Deterministic fault injection for the crash-safety test matrix.
//
// A FaultPlan is an explicit schedule — "the 3rd checkpoint save throws a
// transient error", "the first two pushes at site 'tap' fail for good" — so
// every test failure replays exactly. The injector is consulted from
// instrumented seams only: the campaign runner polls the "checkpoint" site
// before persisting, and campaign_test wraps its tap in a sink that polls
// "tap". The service governor schedules its per-stream faults by FaultKind.
// Production code paths never link faults in; a null injector costs one
// branch. Disk faults are not simulated here: the tests raise them on real
// descriptors (a full device, a file-size limit, a file cut short).
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace vbr::run {

/// What happens when a scheduled fault fires. The values are explicit: the
/// governor folds them into its config digest.
enum class FaultKind : std::uint8_t {
  /// Throw vbr::TransientError (a fault the FailurePolicy may retry).
  kTransient = 3,
  /// Throw std::runtime_error (a permanent worker/task failure).
  kPermanent = 4,
};

/// One scheduled fault: fire at operation `at_op` (0-based, counted per
/// site) and keep firing for `times` consecutive operations.
struct ScheduledFault {
  std::string site;
  std::uint64_t at_op = 0;
  FaultKind kind = FaultKind::kTransient;
  std::uint64_t times = 1;
};

struct FaultPlan {
  std::vector<ScheduledFault> faults;
};

/// Thread-safe dispenser for a FaultPlan. Each named site has its own
/// operation counter; operations are counted in call order, which the
/// instrumented seams keep deterministic (checkpoint saves happen on one
/// thread; per-source sink pushes are retried from scratch, so a transient
/// fault consumed by attempt 1 is not double-counted).
class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan) : plan_(std::move(plan)) {}

  /// poll(), then translate the fault kind into its exception.
  void maybe_throw(const std::string& site);

 private:
  /// Advance `site`'s operation counter and return the fault scheduled for
  /// this operation, if any.
  std::optional<FaultKind> poll(const std::string& site);

  std::mutex mutex_;
  FaultPlan plan_;
  std::map<std::string, std::uint64_t> ops_;
};

}  // namespace vbr::run
