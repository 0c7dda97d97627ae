// Shared plumbing for the repo benchmark: the clock, sample statistics, an
// in-memory span recorder, the result document and the environment stamp.
//
// Every timing here is taken from outside the library: a span brackets a
// call into a module's public function, so the benchmark measures the code
// exactly as a user links it and never needs a hook inside src/.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

inline double ms_since(Clock::time_point start) { return 1e3 * seconds_since(start); }

/// Median and percentiles of one run's samples (linear interpolation
/// between order statistics).
double percentile(std::vector<double> samples, double p);
inline double median(const std::vector<double>& samples) { return percentile(samples, 50.0); }

/// One recorded span: a call into a layer, bracketed from outside.
struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;  ///< index of the enclosing span, -1 at top level
};

/// Spans are kept in memory and written once, at exit. Nesting follows the
/// call stack of the benchmark's single driving thread; a span's self time
/// is its duration minus the part of that interval its children cover.
/// A disabled tracer records nothing and costs one branch per span.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  class Scope {
   public:
    Scope(Tracer* tracer, int index) : tracer_(tracer), index_(index) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() {
      if (tracer_ != nullptr) tracer_->close(index_);
    }

   private:
    Tracer* tracer_;
    int index_;
  };

  Scope span(const char* name);

  /// Write every span as JSON lines with its self time; throws
  /// vbr::IoError on failure.
  void write(const std::filesystem::path& path) const;

 private:
  void close(int index);

  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// A metric value as the result document carries it. A missing value is
/// written as null together with the reason it could not be measured.
struct Metric {
  std::string name;
  std::optional<double> value;
  std::string unit;
  std::string reason;
  std::size_t samples = 0;  ///< how many measurements the value summarizes
};

struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

/// Everything one run reports; main() prints it as the last stdout line.
struct Result {
  std::vector<Metric> metrics;  ///< the gated end-to-end metrics
  std::vector<Metric> report;   ///< the same run under the workload's own names
  std::vector<Metric> layers;   ///< per-layer metrics (traced runs only)
  std::vector<Check> checks;
  std::vector<std::pair<std::string, std::string>> pins;  ///< name -> hex digest
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void metric(const std::string& name, double value, const std::string& unit,
              std::size_t samples = 1);
  void reported(const std::string& name, double value, const std::string& unit,
                std::size_t samples = 1);
  void layer(const std::string& name, double value, const std::string& unit,
             std::size_t samples = 1);
  void layer_null(const std::string& name, const std::string& unit, const std::string& reason);
  void check(const std::string& name, bool ok, const std::string& detail = "");
  void pin(const std::string& name, std::uint64_t digest);
};

/// The parsed command line.
struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::filesystem::path work_dir;  ///< scratch files of this run
};

/// Peak resident set (MiB) of this process and every child it reaped, which
/// covers the sweep's forked pools and their workers.
double peak_rss_mib();
/// Current VmRSS of this process in bytes.
double current_rss_bytes();

std::string hex64(std::uint64_t value);
/// FNV-1a over a byte string (pins the sink-state bytes).
std::uint64_t fnv_bytes(const std::string& bytes);
std::string read_file(const std::filesystem::path& path);

/// Threads and pools the workloads use: the same on every host, so runs on
/// different machines measure the same work.
inline constexpr std::size_t kThreads = 2;
inline constexpr std::size_t kPools = 2;

/// Scaling metrics are only meaningful where two cores exist.
bool can_measure_scaling();

// The three workloads. Each fills `result` and never throws past a failed
// correctness check: those are recorded in result.checks.
void run_serve(const Options& options, Tracer& tracer, Result& result);
void run_sweep(const Options& options, Tracer& tracer, Result& result);
void run_campaign(const Options& options, Tracer& tracer, Result& result);

// Per-layer suites. A traced run of any workload runs all three, so every
// traced run reports the full per-layer list; `own` marks the suite of the
// workload being traced, which also measures the tracing overhead.
void layers_serve(const Options& options, Tracer& tracer, Result& result, bool own);
void layers_sweep(const Options& options, Tracer& tracer, Result& result, bool own);
void layers_campaign(const Options& options, Tracer& tracer, Result& result, bool own);

}  // namespace perfbench
