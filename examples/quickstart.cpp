// Quickstart: the complete model workflow in ~60 lines.
//
//   1. Obtain a VBR video trace (here: the built-in calibrated surrogate of
//      the paper's 2-hour "Star Wars" trace; use vbr::trace::read_trace to
//      load your own).
//   2. Fit the paper's 4-parameter source model (mu_Gamma, sigma_Gamma,
//      m_T, H).
//   3. Generate synthetic traffic from the fitted model.
//   4. Check that the synthetic traffic reproduces the trace's statistics.
//
// Build & run:  ./quickstart [frames]
#include <cstdio>
#include <cstdlib>
#include <string>

#include "vbr/model/starwars_surrogate.hpp"
#include "vbr/model/vbr_source.hpp"

int main(int argc, char** argv) {
  const std::size_t frames =
      (argc > 1) ? static_cast<std::size_t>(std::stoull(argv[1])) : 65536;

  // 1. A VBR video trace: per-frame byte counts at 24 fps.
  std::printf("Generating a %zu-frame surrogate of the paper's trace...\n", frames);
  vbr::model::SurrogateOptions options;
  options.frames = frames;
  const auto surrogate = vbr::model::make_starwars_surrogate(options);
  const auto trace_stats = surrogate.frames.summary();

  // 2. Fit the four-parameter model.
  const auto model = vbr::model::VbrVideoSourceModel::fit(surrogate.frames.samples());
  const auto& p = model.params();
  std::printf("\nFitted VBR video source model (Section 4):\n");
  std::printf("  mu_Gamma    = %8.0f bytes/frame\n", p.marginal.mu_gamma);
  std::printf("  sigma_Gamma = %8.0f bytes/frame\n", p.marginal.sigma_gamma);
  std::printf("  m_T         = %8.2f (Pareto tail slope)\n", p.marginal.tail_slope);
  std::printf("  H           = %8.3f (Hurst parameter)\n", p.hurst);

  // 3. Generate synthetic traffic from the fitted model.
  vbr::Rng rng(12345);
  const auto synthetic = model.generate_trace(frames, rng);
  const auto synth_stats = synthetic.summary();

  // 4. Compare.
  std::printf("\n%-28s %14s %14s\n", "statistic", "trace", "model output");
  std::printf("%-28s %14.0f %14.0f\n", "mean (bytes/frame)", trace_stats.mean,
              synth_stats.mean);
  std::printf("%-28s %14.0f %14.0f\n", "std dev (bytes/frame)", trace_stats.stddev,
              synth_stats.stddev);
  std::printf("%-28s %14.2f %14.2f\n", "coef. of variation",
              trace_stats.coefficient_of_variation, synth_stats.coefficient_of_variation);
  std::printf("%-28s %14.2f %14.2f\n", "peak/mean", trace_stats.peak_to_mean,
              synth_stats.peak_to_mean);
  std::printf("%-28s %14.2f %14.2f\n", "mean rate (Mb/s)",
              surrogate.frames.mean_rate_bps() / 1e6, synthetic.mean_rate_bps() / 1e6);
  std::printf("\nDone. See analyze_trace for the full Section-3 analysis.\n");
  return EXIT_SUCCESS;
}
