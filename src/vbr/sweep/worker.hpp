// The worker half of the process-isolated sweep: what runs inside the fork.
//
// The supervisor forks one worker per settle_cells call and keeps it for as
// long as its cells succeed. The worker applies its resource ceilings
// (setrlimit), then loops: it reads a fixed-size request (cell index and
// injected fault) from its socket, re-arms the CPU ceiling for that cell,
// evaluates it, and answers with one CRC-framed message. It _exit()s on
// EOF, after reporting a failure, or when its supervisor dies
// (PR_SET_PDEATHSIG), never touching the parent's stdio buffers or static
// destructors. Anything else the parent observes — a fatal signal, a torn
// frame, silence past the watchdog deadline — is classified as
// crash/hang/OOM from the exit status and rusage.
//
// Request (parent -> child), kWorkerRequestBytes in host byte order:
//
//   u64      cell index into the grid the worker was forked with
//   u32      InjectedFault
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
// The parent reads a frame back by its own size field, since the worker
// stays alive after writing it. Both messages only cross the socket
// between a parent and its forked child of the same binary; they are never
// persisted.
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

#include <sys/types.h>

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "vbr/sweep/cell_eval.hpp"
#include "vbr/sweep/sweep_plan.hpp"

namespace vbr::sweep {

inline constexpr std::array<char, 8> kWorkerMagic = {'V', 'B', 'R', 'W',
                                                     'R', 'K', 'R', '1'};

/// Hard bound on a worker frame; anything larger is a protocol violation.
inline constexpr std::size_t kMaxWorkerFrame = std::size_t{1} << 16;

/// Per-attempt resource ceilings applied inside the child via setrlimit.
/// Zero disables the respective ceiling. The watchdog deadline is enforced
/// by the *parent* (poll timeout then SIGKILL), restarting with each
/// request; the CPU ceiling is the kernel-side backstop (SIGXCPU) for a
/// worker that spins without blocking. RLIMIT_CPU counts the whole
/// process in whole seconds, so before each cell the worker moves its soft
/// limit to the CPU time it has used, rounded up, plus cpu_seconds: a cell
/// gets at least cpu_seconds and less than one second more.
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

/// Bytes of one request: u64 cell index + u32 InjectedFault.
inline constexpr std::size_t kWorkerRequestBytes = 8 + 4;

/// Child-side entry point: die with `parent`, apply ceilings, then serve
/// requests read from `fd` — honor the injected fault, evaluate cell
/// `index` of `grid` with seed `seeds[index]`, write one frame to `fd` —
/// until EOF or the first failure frame, and _exit. Never returns; never
/// runs parent-owned destructors.
[[noreturn]] void run_worker_loop(int fd, pid_t parent, const SweepGrid& grid,
                                  std::span<const std::uint64_t> seeds,
                                  const WorkerLimits& limits);

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
