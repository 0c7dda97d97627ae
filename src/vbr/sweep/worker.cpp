#include "vbr/sweep/worker.hpp"

#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <exception>
#include <new>
#include <sstream>
#include <vector>

#include "vbr/common/error.hpp"
#include "vbr/common/serialize.hpp"
#include "vbr/run/envelope.hpp"

// ASan reserves terabytes of shadow address space, so an honest RLIMIT_AS
// ceiling would kill every attempt — clean retries included. Sanitizer
// builds skip the ceiling and simulate the allocation failure instead; the
// OOM *protocol* (structured frame, retry classification) is still real.
#if defined(__SANITIZE_ADDRESS__)
#define VBR_SWEEP_UNDER_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define VBR_SWEEP_UNDER_ASAN 1
#endif
#endif
#ifndef VBR_SWEEP_UNDER_ASAN
#define VBR_SWEEP_UNDER_ASAN 0
#endif

namespace vbr::sweep {

namespace {

constexpr std::uint64_t kMaxFailureMessage = 4096;

run::EnvelopeSpec worker_envelope() {
  return {kWorkerMagic, 1, kMaxWorkerFrame, "worker frame"};
}

/// write(2) the whole buffer; on an unrecoverable pipe error the child has
/// no way to report anything, so it exits with a distinctive code the
/// parent classifies as a crash.
void write_all_or_die(int fd, std::string_view bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::_exit(121);
    }
    off += static_cast<std::size_t>(n);
  }
}

void apply_rlimit(int resource, std::uint64_t value) {
  rlimit limit{};
  limit.rlim_cur = static_cast<rlim_t>(value);
  limit.rlim_max = static_cast<rlim_t>(value);
  // Best effort: a refused limit degrades to the parent's watchdog.
  (void)::setrlimit(resource, &limit);
}

/// The ceilings that hold for the worker's whole life.
void apply_limits(const WorkerLimits& limits) {
  apply_rlimit(RLIMIT_CORE, 0);  // a crashing worker must not litter cores
  if (limits.memory_bytes > 0 && !VBR_SWEEP_UNDER_ASAN) {
    apply_rlimit(RLIMIT_AS, limits.memory_bytes);
  }
}

/// Give the next cell `cpu_seconds` of CPU, and less than a second more.
/// RLIMIT_CPU counts the whole process in whole seconds, so the soft limit
/// moves to the time used so far, rounded up, plus the budget; the hard
/// limit stays where it is. A fresh worker has used almost nothing, so it
/// gives a cell the most: a cell that dies here in a worker that served
/// others reruns in a fresh one (supervisor.cpp) and gets that.
void arm_cpu_ceiling(std::uint64_t cpu_seconds) {
  if (cpu_seconds == 0) return;
  rusage usage{};
  rlimit limit{};
  if (::getrusage(RUSAGE_SELF, &usage) != 0 || ::getrlimit(RLIMIT_CPU, &limit) != 0) return;
  const std::uint64_t used_us =
      static_cast<std::uint64_t>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) * 1000000 +
      static_cast<std::uint64_t>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec);
  rlim_t soft = static_cast<rlim_t>((used_us + 999999) / 1000000 + cpu_seconds);
  if (limit.rlim_max != RLIM_INFINITY && soft > limit.rlim_max) soft = limit.rlim_max;
  limit.rlim_cur = soft;
  (void)::setrlimit(RLIMIT_CPU, &limit);
}

/// Read one whole request; false on EOF or a broken socket.
bool read_request(int fd, std::uint64_t& cell, InjectedFault& fault) {
  char bytes[kWorkerRequestBytes];
  std::size_t got = 0;
  while (got < sizeof bytes) {
    const ssize_t n = ::read(fd, bytes + got, sizeof bytes - got);
    if (n > 0) {
      got += static_cast<std::size_t>(n);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      return false;
    }
  }
  std::uint32_t kind = 0;
  std::memcpy(&cell, bytes, sizeof cell);
  std::memcpy(&kind, bytes + sizeof cell, sizeof kind);
  fault = static_cast<InjectedFault>(kind);
  return true;
}

/// Genuine allocation pressure: grab 16 MiB chunks until the address-space
/// ceiling refuses one. Bounded so a misconfigured run without a ceiling
/// gives up instead of eating the host.
[[noreturn]] void swallow_memory() {
#if VBR_SWEEP_UNDER_ASAN
  throw std::bad_alloc();  // no enforceable ceiling under ASan; simulate
#else
  constexpr std::size_t kChunk = std::size_t{16} << 20;
  constexpr std::size_t kMaxChunks = 4096;  // 64 GiB: far past any ceiling
  std::vector<std::vector<char>> hoard;
  for (std::size_t i = 0; i < kMaxChunks; ++i) {
    hoard.emplace_back(kChunk, static_cast<char>(i));
  }
  throw std::bad_alloc();  // no ceiling stopped us; simulate the failure
#endif
}

}  // namespace

std::string encode_worker_result(const CellResult& result) {
  std::ostringstream payload(std::ios::binary);
  io::write_u8(payload, 0);
  write_cell_result(payload, result);
  return run::seal_envelope(worker_envelope(), payload.str());
}

std::string encode_worker_failure(FailureKind kind, std::string_view message) {
  std::ostringstream payload(std::ios::binary);
  io::write_u8(payload, 1);
  io::write_u32(payload, static_cast<std::uint32_t>(kind));
  std::string bounded(message.substr(0, kMaxFailureMessage));
  io::write_string(payload, bounded);
  return run::seal_envelope(worker_envelope(), payload.str());
}

WorkerMessage parse_worker_message(std::string_view bytes) {
  const char* what = "worker frame";
  std::istringstream in(std::string(bytes), std::ios::binary);
  const std::string payload = run::open_envelope(in, worker_envelope(), what);

  std::istringstream body(payload, std::ios::binary);
  WorkerMessage message;
  const std::uint8_t tag = io::read_u8(body, what);
  if (tag == 0) {
    message.is_result = true;
    message.result = read_cell_result(body, what);
  } else if (tag == 1) {
    message.is_result = false;
    const std::uint32_t kind = io::read_u32(body, what);
    if (kind < static_cast<std::uint32_t>(FailureKind::kCrash) ||
        kind > static_cast<std::uint32_t>(FailureKind::kError)) {
      throw IoError("worker frame: failure kind out of range");
    }
    message.kind = static_cast<FailureKind>(kind);
    message.message = io::read_string(body, kMaxFailureMessage, what);
  } else {
    throw IoError("worker frame: unknown tag " + std::to_string(tag));
  }
  if (body.peek() != std::char_traits<char>::eof()) {
    throw IoError("worker frame: payload has trailing bytes");
  }
  return message;
}

void run_worker_loop(int fd, pid_t parent, const SweepGrid& grid,
                     std::span<const std::uint64_t> seeds, const WorkerLimits& limits) {
  // Die with the supervisor, so a pool SIGKILLed while this worker hangs
  // leaves nothing behind; if it died before the request took hold, the
  // worker has already been re-parented.
  (void)::prctl(PR_SET_PDEATHSIG, SIGKILL);
  if (::getppid() != parent) ::_exit(0);
  apply_limits(limits);

  std::uint64_t cell = 0;
  InjectedFault fault = InjectedFault::kNone;
  while (read_request(fd, cell, fault)) {
    if (cell >= seeds.size()) ::_exit(122);  // not a request this parent sends
    arm_cpu_ceiling(limits.cpu_seconds);
    if (fault == InjectedFault::kCrash) std::abort();
    if (fault == InjectedFault::kHang) {
      for (;;) ::pause();  // the parent's watchdog must SIGKILL us
    }

    try {
      if (fault == InjectedFault::kPoison) {
        throw NumericalError("injected poison cell (deterministic failure)");
      }
      if (fault == InjectedFault::kOom) swallow_memory();
      CellSpec spec = cell_at(grid, static_cast<std::size_t>(cell));
      spec.seed = seeds[cell];
      write_all_or_die(fd, encode_worker_result(evaluate_cell(spec)));
      continue;
    } catch (const std::bad_alloc&) {
      // The hoard (or the cell's own working set) hit the memory ceiling; the
      // unwound stack freed it, so this small frame still fits.
      write_all_or_die(fd, encode_worker_failure(FailureKind::kOom,
                                                 "allocation failed under the memory ceiling"));
    } catch (const Error& e) {
      write_all_or_die(fd, encode_worker_failure(FailureKind::kError, e.what()));
    } catch (const std::exception& e) {
      write_all_or_die(fd, encode_worker_failure(FailureKind::kError, e.what()));
    }
    break;  // a worker that reported a failure serves nothing more
  }
  // _exit, not exit: the child shares the parent's stdio buffers and static
  // state; flushing or destroying them here would corrupt the supervisor.
  ::_exit(0);
}

}  // namespace vbr::sweep
