#include "vbr/sweep/supervisor.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <memory>
#include <optional>
#include <queue>
#include <thread>

#include "vbr/common/checksum.hpp"
#include "vbr/common/error.hpp"
#include "vbr/model/fgn_generator.hpp"
#include "vbr/model/marginal_transform.hpp"
#include "vbr/run/envelope.hpp"

namespace vbr::sweep {

namespace {

constexpr std::size_t kStderrTailBytes = 4096;

/// One finished worker attempt, as the supervisor saw it.
struct AttemptOutcome {
  enum class Kind {
    kDone,     ///< valid result frame, clean exit
    kPoison,   ///< structured vbr::Error frame (deterministic; quarantine)
    kOom,      ///< structured OOM frame, or SIGKILL at the memory ceiling
    kHang,     ///< watchdog deadline or SIGXCPU
    kCrash,    ///< any other signal / nonzero exit / torn frame
  };
  Kind kind = Kind::kCrash;
  CellResult result;
  std::string message;
  std::int32_t exit_code = 0;
  std::int32_t term_signal = 0;
  std::uint64_t max_rss_kib = 0;
  double wall_seconds = 0.0;
  std::string stderr_tail;
};

FailureKind failure_kind_of(AttemptOutcome::Kind kind) {
  switch (kind) {
    case AttemptOutcome::Kind::kPoison: return FailureKind::kError;
    case AttemptOutcome::Kind::kOom: return FailureKind::kOom;
    case AttemptOutcome::Kind::kHang: return FailureKind::kHang;
    default: return FailureKind::kCrash;
  }
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) (void)::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

/// Drain whatever is ready on `fd` into `buffer` (bounded). Returns false
/// once the peer closed (EOF).
bool drain_fd(int fd, std::string& buffer, std::size_t max_bytes) {
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::read(fd, chunk, sizeof chunk);
    if (n > 0) {
      const std::size_t keep = std::min(static_cast<std::size_t>(n),
                                        max_bytes > buffer.size()
                                            ? max_bytes - buffer.size()
                                            : std::size_t{0});
      buffer.append(chunk, keep);
      continue;
    }
    if (n == 0) return false;  // EOF
    if (errno == EINTR) continue;
    return true;  // EAGAIN: nothing more for now
  }
}

/// Keep only the last `max_bytes` of a rolling stderr capture.
void append_tail(std::string& tail, const char* data, std::size_t size,
                 std::size_t max_bytes) {
  tail.append(data, size);
  if (tail.size() > max_bytes) tail.erase(0, tail.size() - max_bytes);
}

bool drain_stderr(int fd, std::string& tail) {
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::read(fd, chunk, sizeof chunk);
    if (n > 0) {
      append_tail(tail, chunk, static_cast<std::size_t>(n), kStderrTailBytes);
      continue;
    }
    if (n == 0) return false;
    if (errno == EINTR) continue;
    return true;
  }
}

/// Record how a reaped worker ended.
void record_status(AttemptOutcome& outcome, int status) {
  outcome.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : 0;
  outcome.term_signal = WIFSIGNALED(status) ? WTERMSIG(status) : 0;
}

/// Classify a reaped worker from its exit status: the path for a worker
/// that died, or hung, without a frame for the cell it was given.
void classify_exit(AttemptOutcome& outcome, int status, bool timed_out) {
  record_status(outcome, status);
  const bool signaled = WIFSIGNALED(status);
  if (timed_out) {
    outcome.kind = AttemptOutcome::Kind::kHang;
    outcome.term_signal = SIGKILL;
    outcome.message = "watchdog deadline exceeded";
    return;
  }
  if (signaled && outcome.term_signal == SIGXCPU) {
    outcome.kind = AttemptOutcome::Kind::kHang;
    outcome.message = "CPU ceiling exceeded (SIGXCPU)";
    return;
  }
  if (signaled && outcome.term_signal == SIGKILL) {
    // The kernel OOM killer (or our RLIMIT_AS via a fatal path) SIGKILLs;
    // attribute it to memory when the worker died anywhere near the ceiling.
    outcome.kind = AttemptOutcome::Kind::kOom;
    outcome.message = "killed (peak RSS " + std::to_string(outcome.max_rss_kib) + " KiB)";
    return;
  }
  outcome.kind = AttemptOutcome::Kind::kCrash;
  if (signaled) {
    outcome.message = "fatal signal " + std::to_string(outcome.term_signal);
  } else {
    outcome.message = "exit code " + std::to_string(outcome.exit_code);
  }
}

/// What a worker needs at its fork: the grid and seeds it resolves request
/// indices against, and its ceilings.
struct WorkerContext {
  const SweepGrid& grid;
  std::span<const std::uint64_t> seeds;
  const WorkerLimits& limits;
};

/// One forked worker, serving cells over a socket until a cell fails or the
/// owner lets it go. The destructor SIGKILLs and reaps a worker still
/// running, so no exit path of settle_cells (a lost lease, a throwing
/// callback) leaves one behind.
class Worker {
 public:
  explicit Worker(const WorkerContext& context) : limits_(context.limits) {
    int sock[2] = {-1, -1};
    int err[2] = {-1, -1};
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sock) != 0) {
      throw IoError("sweep: cannot create worker socket");
    }
    if (::pipe(err) != 0) {
      ::close(sock[0]);
      ::close(sock[1]);
      throw IoError("sweep: cannot create stderr pipe");
    }
    // The child inherits stdio buffers; flush so it cannot replay them.
    std::fflush(stdout);
    std::fflush(stderr);
    const pid_t parent = ::getpid();
    const pid_t pid = ::fork();
    if (pid < 0) {
      for (int fd : {sock[0], sock[1], err[0], err[1]}) ::close(fd);
      throw IoError("sweep: fork failed: " + std::string(std::strerror(errno)));
    }
    if (pid == 0) {
      ::close(sock[0]);
      ::close(err[0]);
      (void)::dup2(err[1], STDERR_FILENO);
      ::close(err[1]);
      run_worker_loop(sock[1], parent, context.grid, context.seeds, context.limits);
    }
    ::close(sock[1]);
    ::close(err[1]);
    pid_ = pid;
    sock_ = sock[0];
    stderr_ = err[0];
    set_nonblocking(sock_);
    set_nonblocking(stderr_);
  }
  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;
  ~Worker() {
    if (pid_ > 0) (void)::kill(pid_, SIGKILL);
    (void)reap();
  }

  /// Cells this worker has answered with a result.
  std::size_t cells_served() const { return served_; }
  bool running() const { return pid_ > 0; }

  /// Send one request and supervise it. The worker keeps running only
  /// after a result frame; every other outcome leaves it reaped.
  AttemptOutcome run(std::uint64_t cell, InjectedFault fault) {
    AttemptOutcome outcome;
    // Output from earlier cells is theirs: the tail holds this cell's only.
    if (stderr_open_) stderr_open_ = drain_stderr(stderr_, outcome.stderr_tail);
    outcome.stderr_tail.clear();

    char request[kWorkerRequestBytes];
    const auto kind = static_cast<std::uint32_t>(fault);
    std::memcpy(request, &cell, sizeof cell);
    std::memcpy(request + sizeof cell, &kind, sizeof kind);
    const auto start = std::chrono::steady_clock::now();
    // MSG_NOSIGNAL: a worker that died since its last cell must read as a
    // crash here, not SIGPIPE the supervisor.
    const bool sent = ::send(sock_, request, sizeof request, MSG_NOSIGNAL) ==
                      static_cast<ssize_t>(sizeof request);

    std::string frame;
    std::size_t frame_bytes = 0;  ///< whole frame once its header is in
    bool complete = false;
    bool timed_out = false;
    bool sock_open = sent;
    while (sock_open && !complete) {
      int timeout_ms = -1;
      if (limits_.deadline_seconds > 0.0) {
        const double remaining = limits_.deadline_seconds - seconds_since(start);
        if (remaining <= 0.0) {
          timed_out = true;
          break;
        }
        timeout_ms = static_cast<int>(std::ceil(remaining * 1000.0));
      }
      pollfd fds[2];
      nfds_t nfds = 0;
      fds[nfds++] = {sock_, POLLIN, 0};
      if (stderr_open_) fds[nfds++] = {stderr_, POLLIN, 0};
      const int rc = ::poll(fds, nfds, timeout_ms);
      if (rc < 0) {
        if (errno == EINTR) continue;
        timed_out = true;  // cannot supervise: treat as a hang and reap
        break;
      }
      if (rc == 0) {
        timed_out = true;
        break;
      }
      if (nfds > 1 && (fds[1].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        stderr_open_ = drain_stderr(stderr_, outcome.stderr_tail);
      }
      if ((fds[0].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      sock_open = drain_fd(sock_, frame, kMaxWorkerFrame + 64);
      if (frame_bytes == 0 && frame.size() >= run::kEnvelopeHeaderBytes) {
        std::uint64_t payload = 0;
        std::memcpy(&payload, frame.data() + 12, sizeof payload);  // the size field
        frame_bytes = payload <= kMaxWorkerFrame
                          ? run::kEnvelopeHeaderBytes + static_cast<std::size_t>(payload)
                          : kMaxWorkerFrame + 64;  // forged size: read on to EOF or a hang
      }
      complete = frame_bytes > 0 && frame.size() >= frame_bytes;
    }

    if (complete) {
      std::optional<WorkerMessage> message;
      try {
        if (frame.size() == frame_bytes) message = parse_worker_message(frame);
      } catch (const IoError&) {
      }
      if (message && message->is_result) {
        outcome.kind = AttemptOutcome::Kind::kDone;
        outcome.result = message->result;
        outcome.wall_seconds = seconds_since(start);
        served_ += 1;
        return outcome;
      }
      if (message) {
        // The worker _exits after a failure frame; the frame decides.
        record_status(outcome, reap(&outcome));
        outcome.kind = message->kind == FailureKind::kOom ? AttemptOutcome::Kind::kOom
                                                          : AttemptOutcome::Kind::kPoison;
        outcome.message = std::move(message->message);
        outcome.wall_seconds = seconds_since(start);
        return outcome;
      }
      // A whole frame that does not parse, or bytes past it: not our worker
      // protocol any more. Kill it and call the attempt a crash.
      (void)::kill(pid_, SIGKILL);
      record_status(outcome, reap(&outcome));
      outcome.kind = AttemptOutcome::Kind::kCrash;
      outcome.message = "malformed worker frame";
      outcome.wall_seconds = seconds_since(start);
      return outcome;
    }

    // A worker that took no request is gone or unusable; reap it either way.
    if (timed_out || !sent) (void)::kill(pid_, SIGKILL);
    const int status = reap(&outcome);
    outcome.wall_seconds = seconds_since(start);
    classify_exit(outcome, status, timed_out);
    return outcome;
  }

 private:
  static double seconds_since(std::chrono::steady_clock::time_point start) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  }

  /// Wait for the worker to exit (the caller has killed it, or it is
  /// exiting), close its descriptors, and record its rusage and the last
  /// of its stderr in `outcome`. Returns the wait status.
  int reap(AttemptOutcome* outcome = nullptr) {
    int status = 0;
    if (pid_ > 0) {
      rusage usage{};
      while (::wait4(pid_, &status, 0, &usage) < 0 && errno == EINTR) {
      }
      pid_ = -1;
      if (outcome != nullptr) {
        outcome->max_rss_kib = static_cast<std::uint64_t>(
            usage.ru_maxrss > 0 ? usage.ru_maxrss : 0);  // Linux: KiB
        if (stderr_open_) drain_stderr(stderr_, outcome->stderr_tail);
      }
    }
    for (int* fd : {&sock_, &stderr_}) {
      if (*fd >= 0) ::close(*fd);
      *fd = -1;
    }
    return status;
  }

  const WorkerLimits& limits_;
  pid_t pid_ = -1;
  int sock_ = -1;
  int stderr_ = -1;
  bool stderr_open_ = true;
  std::size_t served_ = 0;
};

/// One isolated attempt, recorded as a worker forked for this cell alone
/// would record it. An injected fault runs in a fresh worker, and a failure
/// in a worker that has served a cell is run again, as the same attempt,
/// in a fresh one: a record never depends on what its worker ran before.
AttemptOutcome run_attempt(std::unique_ptr<Worker>& worker, const WorkerContext& context,
                           std::uint64_t cell, InjectedFault fault, SettleStats* stats) {
  const auto fork_worker = [&]() -> Worker& {
    worker.reset();
    worker = std::make_unique<Worker>(context);
    if (stats != nullptr) stats->workers_forked += 1;
    return *worker;
  };
  Worker* current = worker && (fault == InjectedFault::kNone || worker->cells_served() == 0)
                        ? worker.get()
                        : &fork_worker();
  const bool fresh = current->cells_served() == 0;
  AttemptOutcome outcome = current->run(cell, fault);
  if (outcome.kind != AttemptOutcome::Kind::kDone && !fresh) {
    current = &fork_worker();
    outcome = current->run(cell, fault);
  }
  if (!current->running()) worker.reset();
  return outcome;
}

/// The isolation-free attempt: evaluate in-process, classify exceptions the
/// way the worker protocol would. ~0.6 ms of fork/pipe overhead saved per
/// cell — a minute at 10^5 cells — at the cost of crash containment, which
/// trusted specs don't need.
AttemptOutcome run_attempt_inprocess(const CellSpec& spec, InjectedFault fault) {
  AttemptOutcome outcome;
  const auto start = std::chrono::steady_clock::now();
  try {
    if (fault == InjectedFault::kPoison) {
      throw NumericalError("injected poison cell (deterministic failure)");
    }
    outcome.result = evaluate_cell(spec);
    outcome.kind = AttemptOutcome::Kind::kDone;
  } catch (const std::bad_alloc&) {
    outcome.kind = AttemptOutcome::Kind::kOom;
    outcome.message = "allocation failed evaluating in-process";
  } catch (const Error& e) {
    // A structured vbr::Error is the deterministic poison path, exactly as
    // a worker's failure frame would classify it.
    outcome.kind = AttemptOutcome::Kind::kPoison;
    outcome.message = e.what();
  } catch (const std::exception& e) {
    outcome.kind = AttemptOutcome::Kind::kCrash;
    outcome.message = e.what();
  }
  outcome.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return outcome;
}

CellRecord settled_record(std::uint64_t cell_index, AttemptOutcome&& outcome,
                          std::size_t attempts) {
  CellRecord record;
  record.cell_index = cell_index;
  if (outcome.kind == AttemptOutcome::Kind::kDone) {
    record.status = CellStatus::kDone;
    record.result = outcome.result;
  } else {
    record.status = CellStatus::kQuarantined;
    record.failure.kind = failure_kind_of(outcome.kind);
    record.failure.exit_code = outcome.exit_code;
    record.failure.term_signal = outcome.term_signal;
    record.failure.attempts = attempts;
    record.failure.max_rss_kib = outcome.max_rss_kib;
    record.failure.wall_seconds = outcome.wall_seconds;
    record.failure.message = std::move(outcome.message);
    record.failure.stderr_tail = std::move(outcome.stderr_tail);
  }
  return record;
}

/// How finely idle waits are sliced so `tick` (the lease heartbeat) keeps
/// firing while every pending cell is backing off.
constexpr auto kIdleTick = std::chrono::milliseconds(50);

/// splitmix64's finaliser. Raw FNV-1a digests of one seed's cells 0..7
/// differ by small multiples of one constant, so draws taken from them fall
/// on a lattice (at rate 0.3 every seed would fault 2 or 3, never 0, 1, 4+).
std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

InjectedFault fault_for_attempt(const SweepFaultPlan& faults, std::uint64_t cell_index,
                                std::size_t attempt) {
  if (std::find(faults.poison.begin(), faults.poison.end(), cell_index) !=
      faults.poison.end()) {
    return InjectedFault::kPoison;
  }
  if (attempt != 1 || faults.rate <= 0.0) return InjectedFault::kNone;

  Fnv1a h;
  h.update(&faults.seed, sizeof faults.seed);
  h.update(&cell_index, sizeof cell_index);
  const std::uint64_t digest = mix64(h.digest());
  const double u = static_cast<double>(digest >> 11) * 0x1.0p-53;
  if (u >= faults.rate) return InjectedFault::kNone;

  InjectedFault kinds[3];
  std::size_t enabled = 0;
  if (faults.crash) kinds[enabled++] = InjectedFault::kCrash;
  if (faults.hang) kinds[enabled++] = InjectedFault::kHang;
  if (faults.oom) kinds[enabled++] = InjectedFault::kOom;
  if (enabled == 0) return InjectedFault::kNone;
  return kinds[(digest & 0x7ff) % enabled];
}

void validate_sweep_inputs(const SweepGrid& grid, const SweepLimits& limits,
                           const SweepFaultPlan& faults) {
  grid.validate();
  VBR_ENSURE(limits.max_attempts >= 1, "sweep needs at least one attempt");
  VBR_ENSURE(limits.backoff_seconds >= 0.0, "negative retry backoff");
  if (faults.rate > 0.0) {
    VBR_ENSURE(faults.rate <= 1.0, "fault rate must be a probability");
    VBR_ENSURE(limits.isolate || !(faults.crash || faults.hang || faults.oom),
               "crash/hang/OOM injection requires process isolation");
    VBR_ENSURE(!faults.oom || limits.worker.memory_bytes > 0 || !limits.isolate,
               "OOM injection requires a memory ceiling");
    VBR_ENSURE(!faults.hang || limits.worker.deadline_seconds > 0.0 || !limits.isolate,
               "hang injection requires a watchdog deadline");
  }
}

std::uint64_t results_hash(std::span<const CellRecord> records) {
  Fnv1a h;
  for (const CellRecord& record : records) {
    h.update(&record.cell_index, sizeof record.cell_index);
    const std::uint8_t status = static_cast<std::uint8_t>(record.status);
    h.update(&status, sizeof status);
    if (record.status == CellStatus::kDone) {
      const CellResult& r = record.result;
      h.update(std::span<const double>(
          {r.mean_rate_bps, r.capacity_bps, r.buffer_bytes, r.loss_rate,
           r.mean_queue_bytes, r.max_queue_bytes, r.overflow_probability,
           r.required_capacity_bps}));
    }
  }
  return h.digest();
}

void settle_cells(const SweepGrid& grid, const std::vector<std::uint64_t>& cells,
                  const SweepLimits& limits, const SweepFaultPlan& faults,
                  const std::function<bool(const CellRecord&)>& on_settled,
                  const std::function<void()>& tick, SettleStats* stats) {
  validate_sweep_inputs(grid, limits, faults);
  VBR_ENSURE(static_cast<bool>(on_settled), "settle_cells needs a settle callback");
  const std::size_t total = cell_count(grid);
  const std::vector<std::uint64_t> seeds = derive_cell_seeds(grid);
  // Tabulate the cells' marginal map before the first fork, so every worker
  // inherits the table copy-on-write instead of rebuilding it per cell.
  (void)model::shared_marginal_map(cell_marginal());
  // Likewise the Davies-Harte eigenvalues and FFT unpack table of every
  // (H, frames) shape the cells generate: one throwaway realization each.
  {
    model::Workspace workspace;
    std::vector<double> warm(grid.frames_per_source);
    Rng rng;
    for (const double hurst : grid.hursts) {
      model::generate_fgn(model::GeneratorBackend::kDaviesHarte, hurst, warm, rng, workspace);
    }
  }

  using Clock = std::chrono::steady_clock;
  struct Pending {
    std::uint64_t cell = 0;
    std::size_t attempt = 1;  ///< the attempt about to run
    Clock::time_point due;
  };
  const auto later_due = [](const Pending& a, const Pending& b) {
    return a.due > b.due;
  };

  // One worker serves cells until one fails; it is forked on the first
  // isolated attempt, after the warm-up above, so it inherits the caches.
  const WorkerContext context{grid, seeds, limits.worker};
  std::unique_ptr<Worker> worker;

  // Two queues instead of one blocking loop: cells whose retry is backing
  // off wait in `delayed` (a min-heap on due time) while every other cell
  // keeps flowing through `ready` — one flaky cell never stalls the pool.
  std::deque<Pending> ready;
  std::priority_queue<Pending, std::vector<Pending>, decltype(later_due)> delayed(
      later_due);
  for (const std::uint64_t cell : cells) {
    VBR_ENSURE(cell < total, "settle_cells cell index out of range");
    ready.push_back({cell, 1, {}});
  }

  while (!ready.empty() || !delayed.empty()) {
    const Clock::time_point now = Clock::now();
    while (!delayed.empty() && delayed.top().due <= now) {
      ready.push_back(delayed.top());
      delayed.pop();
    }
    if (ready.empty()) {
      // Every pending cell is backing off. Sleep in short slices so `tick`
      // (the lease heartbeat) keeps firing while we wait.
      const Clock::time_point wake = std::min(delayed.top().due, now + kIdleTick);
      std::this_thread::sleep_until(wake);
      if (tick) tick();
      continue;
    }

    const Pending pending = ready.front();
    ready.pop_front();
    if (stats != nullptr && pending.attempt > 1) stats->retried_attempts += 1;
    if (tick) tick();

    const InjectedFault fault = fault_for_attempt(faults, pending.cell, pending.attempt);
    AttemptOutcome outcome;
    if (limits.isolate) {
      outcome = run_attempt(worker, context, pending.cell, fault, stats);
    } else {
      CellSpec spec = cell_at(grid, pending.cell);
      spec.seed = seeds[pending.cell];
      outcome = run_attempt_inprocess(spec, fault);
    }

    // Done settles; a structured vbr::Error is deterministic (the same spec
    // throws the same way every retry) so it quarantines immediately; an
    // exhausted budget quarantines; anything else requeues with a due time.
    const bool terminal = outcome.kind == AttemptOutcome::Kind::kDone ||
                          outcome.kind == AttemptOutcome::Kind::kPoison ||
                          pending.attempt >= limits.max_attempts;
    if (terminal) {
      const CellRecord record =
          settled_record(pending.cell, std::move(outcome), pending.attempt);
      if (!on_settled(record)) return;
    } else {
      const double delay_s =
          limits.backoff_seconds *
          std::pow(2.0, static_cast<double>(pending.attempt - 1));
      delayed.push({pending.cell, pending.attempt + 1,
                    Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                       std::chrono::duration<double>(delay_s))});
    }
  }
}

}  // namespace vbr::sweep
