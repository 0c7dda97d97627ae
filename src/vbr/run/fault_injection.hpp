// Deterministic fault injection for the crash-safety test matrix.
//
// A FaultPlan is an explicit schedule — "the 3rd write at site 'trace'
// reports ENOSPC", "the first two pushes at site 'tap' throw a transient
// error" — so every test failure replays exactly. The injector is consulted
// from instrumented seams only: FaultyStreambuf sits under a trace or
// checkpoint stream, FaultySink wraps a streaming-statistics tap, and the
// campaign runner polls the "checkpoint" site before persisting. Production
// code paths never link faults in; a null injector costs one branch.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <streambuf>
#include <string>
#include <vector>

#include "vbr/stream/sink.hpp"

namespace vbr::run {

/// What happens when a scheduled fault fires.
enum class FaultKind : std::uint8_t {
  /// The stream absorbs only part of the block and reports the shortfall
  /// (the honest full-disk behaviour: write() returns short, badbit).
  kShortWrite,
  /// The stream absorbs nothing at all (ENOSPC on the first byte).
  kNoSpace,
  /// The stream silently drops the tail of the block but *reports success* —
  /// the torn final block a power cut leaves. Only finish()'s position check
  /// or the checkpoint CRC can catch this one.
  kTornWrite,
  /// Throw vbr::TransientError (a fault the FailurePolicy may retry).
  kTransient,
  /// Throw std::runtime_error (a permanent worker/task failure).
  kPermanent,
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
/// instrumented seams keep deterministic (trace writes and checkpoint saves
/// happen on one thread; per-source sink pushes are retried from scratch, so
/// a transient fault consumed by attempt 1 is not double-counted).
class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan) : plan_(std::move(plan)) {}

  /// Advance `site`'s operation counter and return the fault scheduled for
  /// this operation, if any.
  std::optional<FaultKind> poll(const std::string& site);

  /// poll(), then translate a throwing fault kind into its exception.
  /// Stream-shaped kinds (short write etc.) are meaningless at a non-stream
  /// site and also surface as TransientError.
  void maybe_throw(const std::string& site);

  /// How many faults have fired at `site` so far.
  std::uint64_t fired(const std::string& site) const;

 private:
  mutable std::mutex mutex_;
  FaultPlan plan_;
  std::map<std::string, std::uint64_t> ops_;
  std::map<std::string, std::uint64_t> fired_;
};

/// A filtering streambuf that forwards to `inner` except when the injector
/// schedules a fault for its site. Wrap an ostream's rdbuf to simulate disk
/// faults under ChunkedTraceWriter or a checkpoint stream.
class FaultyStreambuf final : public std::streambuf {
 public:
  FaultyStreambuf(std::streambuf* inner, FaultInjector* injector, std::string site)
      : inner_(inner), injector_(injector), site_(std::move(site)) {}

 protected:
  std::streamsize xsputn(const char* s, std::streamsize n) override;
  int_type overflow(int_type ch) override;
  int sync() override { return inner_->pubsync(); }
  /// Forward seeks/tells so ChunkedTraceWriter::finish()'s position check
  /// sees the inner stream's true put position.
  pos_type seekoff(off_type off, std::ios_base::seekdir dir,
                   std::ios_base::openmode which) override {
    return inner_->pubseekoff(off, dir, which);
  }
  pos_type seekpos(pos_type pos, std::ios_base::openmode which) override {
    return inner_->pubseekpos(pos, which);
  }

 private:
  std::streambuf* inner_;
  FaultInjector* injector_;
  std::string site_;
};

/// A Sink decorator whose push() consults the injector before forwarding —
/// the seam for transient/permanent faults inside engine worker tasks (the
/// engine pushes each source's samples through a clone of the tap on
/// whichever worker generated it). Clones share the injector, so a plan like
/// "op 5 at site 'tap' is transient" fires on the 6th push across the whole
/// run regardless of which source performs it. merge() polls its own site,
/// `<site>.merge`: merges run in source order on the committing thread, so
/// "op 4 at site 'tap.merge'" always hits the fifth source's merge.
class FaultySink final : public stream::Sink {
 public:
  FaultySink(std::unique_ptr<Sink> inner, FaultInjector* injector, std::string site)
      : inner_(std::move(inner)), injector_(injector), site_(std::move(site)) {}

  void push(std::span<const double> samples) override;
  void merge(const Sink& other) override;
  std::unique_ptr<Sink> clone_empty() const override;
  void save(std::ostream& out) const override { inner_->save(out); }
  void restore(std::istream& in) override { inner_->restore(in); }
  std::size_t count() const override { return inner_->count(); }
  const char* kind() const override { return inner_->kind(); }

  const Sink& inner() const { return *inner_; }

 private:
  std::unique_ptr<Sink> inner_;
  FaultInjector* injector_;
  std::string site_;
};

}  // namespace vbr::run
