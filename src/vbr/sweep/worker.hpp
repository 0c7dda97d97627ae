// The worker half of the process-isolated sweep: what runs inside the fork.
//
// The supervisor forks one worker per cell attempt; the child applies its
// resource ceilings (setrlimit), evaluates the cell, and reports back over
// a pipe with a single CRC-framed message, then _exit()s without touching
// the parent's stdio buffers or static destructors. Anything else the
// parent observes — a nonzero exit, a fatal signal, a torn frame, silence
// past the watchdog deadline — is classified as crash/hang/OOM from the
// exit status and rusage.
//
// Frame format (child -> parent), the run/envelope seal:
//
//   8 bytes  magic "VBRWRKR1"
//   u32      version (1)
//   u64      payload size
//   u32      CRC-32 of the payload
//   payload  u8 tag (0 = result, 1 = failure)
//            result:  CellResult (8 raw f64 bit patterns)
//            failure: u32 FailureKind + length-prefixed message
//
// The frame only crosses the pipe between a parent and its forked child of
// the same binary; it is never persisted.
//
// A failure frame is the *structured* error path: the worker computed to a
// deterministic vbr::Error (poison cell) or caught bad_alloc under its
// memory ceiling, and says so explicitly instead of dying. The supervisor
// quarantines deterministic errors immediately and retries OOM reports.
//
// InjectedFault is the seeded fault-injection seam the soak harness and the
// tests drive: a worker told to crash/hang/OOM does so through the same
// code paths a real failure would take (abort(), pause() loop, genuine
// allocation failure under RLIMIT_AS).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

#include "vbr/sweep/cell_eval.hpp"

namespace vbr::sweep {

inline constexpr std::array<char, 8> kWorkerMagic = {'V', 'B', 'R', 'W',
                                                     'R', 'K', 'R', '1'};

/// Hard bound on a worker frame; anything larger is a protocol violation.
inline constexpr std::size_t kMaxWorkerFrame = std::size_t{1} << 16;

/// Per-attempt resource ceilings applied inside the child via setrlimit.
/// Zero disables the respective ceiling. The watchdog deadline is enforced
/// by the *parent* (poll timeout then SIGKILL); the CPU ceiling is the
/// kernel-side backstop (SIGXCPU) for a worker that spins without blocking.
struct WorkerLimits {
  double deadline_seconds = 60.0;
  std::uint64_t memory_bytes = 0;  ///< RLIMIT_AS
  std::uint64_t cpu_seconds = 0;   ///< RLIMIT_CPU
};

/// Seeded fault injected into a worker attempt (see supervisor.hpp).
enum class InjectedFault : std::uint32_t {
  kNone = 0,
  kCrash = 1,   ///< abort() before computing
  kHang = 2,    ///< block forever; the watchdog must fire
  kOom = 3,     ///< allocate until the memory ceiling kills the attempt
  kPoison = 4,  ///< deterministic NumericalError (permanent, quarantines)
};

/// Child-side entry point: apply ceilings, honor the injected fault,
/// evaluate the cell, write one frame to `result_fd`, and _exit. Never
/// returns; never runs parent-owned destructors.
[[noreturn]] void run_worker(int result_fd, const CellSpec& spec,
                             const WorkerLimits& limits, InjectedFault fault);

/// Frame builders (also used by tests to forge protocol inputs).
std::string encode_worker_result(const CellResult& result);
std::string encode_worker_failure(FailureKind kind, std::string_view message);

/// A parsed worker frame.
struct WorkerMessage {
  bool is_result = false;
  CellResult result;               ///< valid when is_result
  FailureKind kind = FailureKind::kError;  ///< valid when !is_result
  std::string message;             ///< valid when !is_result
};

/// Parse one complete frame. Throws vbr::IoError on bad magic, version
/// skew, size/CRC mismatch, truncation, unknown tag, or trailing bytes.
WorkerMessage parse_worker_message(std::string_view bytes);

}  // namespace vbr::sweep
