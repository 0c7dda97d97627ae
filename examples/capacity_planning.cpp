// capacity_planning: the paper's engineering use-case (Section 5).
//
// Given a number of multiplexed VBR video sources, a buffer-delay budget
// and a target cell-loss rate, compute the required channel capacity per
// source and report the statistical multiplexing gain realized.
//
// Usage: ./capacity_planning [sources] [delay_ms] [target_loss]
//   defaults: 5 sources, 2 ms, 1e-4
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "vbr/common/error.hpp"
#include "vbr/model/starwars_surrogate.hpp"
#include "vbr/net/qc_analysis.hpp"

namespace {

/// Strict numeric argv parsing: trailing junk, overflow and empty strings
/// all exit 2 with a usage-style message instead of aborting mid-throw.
std::size_t parse_size(const char* text, const char* what) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE) {
    std::fprintf(stderr, "capacity_planning: bad %s: %s\n", what, text);
    std::exit(2);
  }
  return static_cast<std::size_t>(v);
}

double parse_double(const char* text, const char* what) {
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || errno == ERANGE || !std::isfinite(v)) {
    std::fprintf(stderr, "capacity_planning: bad %s: %s\n", what, text);
    std::exit(2);
  }
  return v;
}

int run(int argc, char** argv) {
  const std::size_t sources = (argc > 1) ? parse_size(argv[1], "source count") : 5;
  const double delay_ms = (argc > 2) ? parse_double(argv[2], "delay_ms") : 2.0;
  const double target_loss = (argc > 3) ? parse_double(argv[3], "target_loss") : 1e-4;
  VBR_ENSURE(sources >= 1 && sources <= 4096, "sources must be in [1, 4096]");
  VBR_ENSURE(delay_ms > 0.0, "delay_ms must be positive");
  VBR_ENSURE(target_loss > 0.0 && target_loss < 1.0, "target_loss must be in (0, 1)");

  std::printf("Capacity planning for %zu multiplexed VBR video source(s)\n", sources);
  std::printf("  buffer delay budget: %.2f ms, target loss rate: %.1e\n\n", delay_ms,
              target_loss);

  // Workload: the calibrated surrogate trace (swap in your own measured
  // trace via vbr::trace::read_trace and pass .samples()).
  vbr::model::SurrogateOptions trace_options;
  trace_options.frames = 65536;
  const auto surrogate = vbr::model::make_starwars_surrogate(trace_options);

  vbr::net::MuxExperiment experiment;
  experiment.sources = sources;
  experiment.replications = (sources > 2) ? 6 : 1;  // as in the paper
  const vbr::net::MuxWorkload workload(surrogate.frames.samples(), experiment);

  const double mean_bps = workload.source_mean_rate_bps();
  const double peak_bps = workload.source_peak_rate_bps();
  std::printf("Per-source traffic:  mean %.2f Mb/s, peak %.2f Mb/s (burstiness %.2f)\n",
              mean_bps / 1e6, peak_bps / 1e6, peak_bps / mean_bps);

  const double required = vbr::net::required_capacity_bps(
      workload, delay_ms * 1e-3, target_loss, vbr::net::QosMeasure::kOverallLoss);
  std::printf("\nRequired allocation: %.2f Mb/s per source (%.2f Mb/s total)\n",
              required / 1e6, required * static_cast<double>(sources) / 1e6);

  // SMG bookkeeping: how much of the peak-to-mean gap did multiplexing close?
  const double gain_realized = (peak_bps - required) / (peak_bps - mean_bps);
  std::printf("Overbooking factor vs peak: %.2f; statistical multiplexing gain: %.0f%%\n",
              peak_bps / required, 100.0 * gain_realized);

  // Sanity check the allocation and report both QOS measures.
  const auto qos = workload.evaluate(required, delay_ms * 1e-3);
  std::printf("\nAchieved QOS at this allocation:\n");
  std::printf("  overall loss rate      P_l     = %.2e\n", qos.overall_loss);
  std::printf("  worst errored second   P_l-WES = %.2e\n", qos.wes_loss);

  // Neighborhood of the operating point: the Q-C tradeoff (cf. Fig. 14).
  std::printf("\nQ-C tradeoff around the delay budget:\n");
  std::printf("  %10s %18s\n", "T_max (ms)", "capacity (Mb/s)");
  const std::vector<double> delays{delay_ms * 0.25e-3, delay_ms * 0.5e-3, delay_ms * 1e-3,
                                   delay_ms * 2e-3, delay_ms * 4e-3};
  for (const auto& point :
       vbr::net::qc_curve(workload, delays, target_loss, vbr::net::QosMeasure::kOverallLoss)) {
    std::printf("  %10.2f %18.2f\n", point.max_delay_seconds * 1e3,
                point.capacity_per_source_bps / 1e6);
  }
  std::printf("\nNote the knee: below it capacity explodes, above it extra buffer buys\n");
  std::printf("little -- the natural operating point the paper identifies.\n");
  return EXIT_SUCCESS;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "capacity_planning: %s\n", e.what());
    return 1;
  }
}
