// analyze_trace: the paper's full Section-3 statistical report for a VBR
// video trace.
//
// Usage:
//   ./analyze_trace                 analyze the built-in surrogate trace
//   ./analyze_trace trace.txt      analyze a trace file: ASCII (one frame
//                                  size per line; '#' headers optional) or
//                                  the library's binary format (e.g. a
//                                  run_campaign --trace output)
//
// The report covers: Table-2 summary statistics, candidate marginal fits
// with tail comparison (Figs. 4-6), autocorrelation decay regimes (Fig. 7),
// low-frequency spectral slope (Fig. 8), and all Table-3 Hurst estimates
// (variance-time, R/S pox, R/S aggregated, R/S sweep, aggregated Whittle
// with 95% CI).
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "vbr/common/error.hpp"
#include "vbr/model/starwars_surrogate.hpp"
#include "vbr/stats/autocorrelation.hpp"
#include "vbr/stats/distributions.hpp"
#include "vbr/stats/gamma_pareto.hpp"
#include "vbr/stats/periodogram.hpp"
#include "vbr/stats/rs_analysis.hpp"
#include "vbr/stats/variance_time.hpp"
#include "vbr/stats/whittle.hpp"
#include "vbr/trace/trace_io.hpp"

namespace {

vbr::trace::TimeSeries load_trace(int argc, char** argv) {
  if (argc > 1) {
    std::printf("Loading trace from %s\n", argv[1]);
    return vbr::trace::read_trace(argv[1]);
  }
  std::printf("No trace file given; generating the built-in surrogate (65536 frames).\n");
  vbr::model::SurrogateOptions options;
  options.frames = 65536;
  return vbr::model::make_starwars_surrogate(options).frames;
}

}  // namespace

int run(int argc, char** argv) {
  const auto trace = load_trace(argc, argv);
  const auto data = trace.samples();
  if (data.size() < 4096) {
    std::fprintf(stderr, "trace too short for a meaningful analysis (need >= 4096)\n");
    return EXIT_FAILURE;
  }

  // ---- Table 2: summary statistics --------------------------------------
  const auto s = trace.summary();
  std::printf("\n== Summary statistics (cf. Table 2) ==\n");
  std::printf("  samples            %zu\n", s.count);
  std::printf("  time unit          %.4f msec\n", trace.dt_seconds() * 1e3);
  std::printf("  mean bandwidth     %.1f %s   (%.2f Mb/s)\n", s.mean, trace.unit().c_str(),
              trace.mean_rate_bps() / 1e6);
  std::printf("  std deviation      %.1f\n", s.stddev);
  std::printf("  coef. of variation %.3f\n", s.coefficient_of_variation);
  std::printf("  min / max          %.0f / %.0f\n", s.min, s.max);
  std::printf("  peak/mean          %.2f\n", s.peak_to_mean);

  // ---- Marginal fits (Figs. 4-6) ----------------------------------------
  std::printf("\n== Marginal distribution fits (cf. Figs. 4-6) ==\n");
  const auto normal = vbr::stats::NormalDistribution::fit(data);
  const auto gamma = vbr::stats::GammaDistribution::fit(data);
  const auto lognormal = vbr::stats::LognormalDistribution::fit(data);
  const auto gp_params = vbr::stats::GammaParetoDistribution::fit(data);
  const vbr::stats::GammaParetoDistribution hybrid(gp_params);
  std::printf("  Gamma:        shape %.2f, rate %.3g\n", gamma.shape(), gamma.rate());
  std::printf("  Lognormal:    mu_log %.3f, sigma_log %.3f\n", lognormal.mu_log(),
              lognormal.sigma_log());
  std::printf("  Gamma/Pareto: mu %.0f, sigma %.0f, tail slope m_T %.2f, splice %.0f\n",
              gp_params.mu_gamma, gp_params.sigma_gamma, gp_params.tail_slope,
              hybrid.threshold());
  // Tail comparison at the observed peak: empirical CCDF there is ~1/n.
  const double far = s.max;
  std::printf("  CCDF at observed peak (%.0f): empirical ~%.1e\n", far,
              1.0 / static_cast<double>(s.count));
  std::printf("    %-14s %.3e\n", "Normal", normal.ccdf(far));
  std::printf("    %-14s %.3e\n", "Gamma", gamma.ccdf(far));
  std::printf("    %-14s %.3e\n", "Lognormal", lognormal.ccdf(far));
  std::printf("    %-14s %.3e   <- heavy tail tracks the data\n", "Gamma/Pareto",
              hybrid.ccdf(far));

  // ---- Autocorrelation (Fig. 7) ------------------------------------------
  std::printf("\n== Autocorrelation (cf. Fig. 7) ==\n");
  const std::size_t max_lag = std::min<std::size_t>(10000, data.size() / 4);
  const auto acf = vbr::stats::autocorrelation(data, max_lag);
  std::printf("  r(1)=%.3f r(10)=%.3f r(100)=%.3f r(1000)=%.3f r(%zu)=%.3f\n", acf[1],
              acf[10], acf[100], acf[std::min<std::size_t>(1000, max_lag)], max_lag,
              acf[max_lag]);
  const double rho_early = vbr::stats::fit_exponential_decay(acf, 1, 100);
  const double beta_late =
      vbr::stats::fit_hyperbolic_decay(acf, 200, std::min<std::size_t>(2000, max_lag));
  std::printf("  exponential fit (lags 1-100):    rho = %.4f per lag\n", rho_early);
  std::printf("  hyperbolic fit  (lags 200-2000): beta = %.3f  -> H = %.3f\n", beta_late,
              1.0 - beta_late / 2.0);

  // ---- Periodogram (Fig. 8) ----------------------------------------------
  const auto pg = vbr::stats::periodogram(data);
  const double alpha = vbr::stats::low_frequency_slope(pg, 0.05);
  std::printf("\n== Periodogram (cf. Fig. 8) ==\n");
  std::printf("  low-frequency power law ~ w^-%.3f  -> H = %.3f\n", alpha,
              (1.0 + alpha) / 2.0);

  // ---- Hurst estimates (Table 3) -----------------------------------------
  std::printf("\n== Hurst parameter estimates (cf. Table 3) ==\n");
  vbr::stats::VarianceTimeOptions vt_opt;
  vt_opt.fit_min_m = 100;
  const auto vt = vbr::stats::variance_time(data, vt_opt);
  std::printf("  %-24s %.3f  (beta = %.3f, R^2 = %.3f)\n", "Variance-Time", vt.hurst,
              vt.beta, vt.fit.r_squared);

  vbr::stats::RsOptions rs_opt;
  rs_opt.fit_min_lag = 200;
  const auto rs = vbr::stats::rs_analysis(data, rs_opt);
  std::printf("  %-24s %.3f  (%zu pox points)\n", "R/S Analysis", rs.hurst,
              rs.points.size());
  const auto rs_agg = vbr::stats::rs_analysis_aggregated(data, 10, rs_opt);
  std::printf("  %-24s %.3f\n", "R/S Aggregated (m=10)", rs_agg.hurst);

  const std::vector<std::size_t> lag_grid{20, 30, 40};
  const std::vector<std::size_t> part_grid{5, 10, 15};
  const auto sweep = vbr::stats::rs_sweep(data, lag_grid, part_grid, rs_opt);
  std::printf("  %-24s %.2f-%.2f\n", "R/S with n, M varied", sweep.hurst_min,
              sweep.hurst_max);

  // Whittle on the log series, aggregated (the paper's procedure).
  std::vector<double> logs(data.begin(), data.end());
  for (auto& v : logs) v = std::log(v);
  const std::size_t m = std::max<std::size_t>(1, data.size() / 300);
  const std::vector<std::size_t> levels{m};
  const auto whittle = vbr::stats::whittle_aggregated(logs, levels);
  std::printf("  %-24s %.3f +- %.3f  (95%% CI, m = %zu)\n", "Whittle estimate",
              whittle[0].result.hurst, 1.96 * whittle[0].result.stderr_hurst, m);

  std::printf("\nInterpretation: H in (0.5, 1) across methods indicates long-range\n");
  std::printf("dependence; H ~ 0.8 matches the paper's finding for action-movie video.\n");
  return EXIT_SUCCESS;
}

int main(int argc, char** argv) {
  // A bad input path (or a corrupt trace) is an expected user error, not a
  // programming error: report it and exit cleanly instead of aborting.
  try {
    return run(argc, argv);
  } catch (const vbr::IoError& e) {
    std::fprintf(stderr, "analyze_trace: I/O error: %s\n", e.what());
  } catch (const vbr::Error& e) {
    std::fprintf(stderr, "analyze_trace: error: %s\n", e.what());
  }
  return EXIT_FAILURE;
}
