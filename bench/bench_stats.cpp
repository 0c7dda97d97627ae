// Microbenchmarks for the statistics toolkit on paper-scale inputs: the
// cost of reproducing Section 3 (ACF over 171k frames, periodogram, the
// Hurst estimator battery, distribution fitting). In 1994 this tooling was
// S-plus and Fortran on a workstation; here the full Table-3 battery runs
// in well under a second.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "vbr/common/rng.hpp"
#include "vbr/model/davies_harte.hpp"
#include "vbr/model/marginal_transform.hpp"
#include "vbr/stats/autocorrelation.hpp"
#include "vbr/stats/dfa.hpp"
#include "vbr/stats/gamma_pareto.hpp"
#include "vbr/stats/periodogram.hpp"
#include "vbr/stats/rs_analysis.hpp"
#include "vbr/stats/variance_time.hpp"
#include "vbr/stats/whittle.hpp"

namespace {

/// A paper-scale frame-size series: unit fGn (H = 0.8) mapped through the
/// Gamma/Pareto marginal of Table 2, so every sample is a positive byte
/// count, as the estimators (and Whittle's log) see a real trace.
const std::vector<double>& lrd_series(std::size_t n) {
  static std::vector<double> cache;
  if (cache.size() != n) {
    vbr::Rng rng(7);
    vbr::model::DaviesHarteOptions opt;
    opt.hurst = 0.8;
    cache = vbr::model::davies_harte(n, opt, rng);
    const auto marginal = vbr::model::shared_marginal_map(
        {.mu_gamma = 27791.0, .sigma_gamma = 6254.0, .tail_slope = 12.0});
    marginal->map.apply(cache, cache);
  }
  return cache;
}

}  // namespace

static void AcfTenThousandLags(benchmark::State& state) {
  const auto& x = lrd_series(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto r = vbr::stats::autocorrelation(x, 10000);
    benchmark::DoNotOptimize(r.data());
  }
}
BENCHMARK(AcfTenThousandLags)->Arg(171000);

static void PeriodogramFull(benchmark::State& state) {
  const auto& x = lrd_series(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto pg = vbr::stats::periodogram(x);
    benchmark::DoNotOptimize(pg.power.data());
  }
}
BENCHMARK(PeriodogramFull)->Arg(171000);

static void VarianceTimePlot(benchmark::State& state) {
  const auto& x = lrd_series(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto vt = vbr::stats::variance_time(x);
    benchmark::DoNotOptimize(vt.hurst);
  }
}
BENCHMARK(VarianceTimePlot)->Arg(171000);

static void RsPoxAnalysis(benchmark::State& state) {
  const auto& x = lrd_series(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto rs = vbr::stats::rs_analysis(x);
    benchmark::DoNotOptimize(rs.hurst);
  }
}
BENCHMARK(RsPoxAnalysis)->Arg(171000);

static void WhittleAggregated(benchmark::State& state) {
  const auto& x = lrd_series(static_cast<std::size_t>(state.range(0)));
  std::vector<double> logs(x.begin(), x.end());
  for (auto& v : logs) v = std::log(v);
  const std::vector<std::size_t> levels{700};
  for (auto _ : state) {
    auto w = vbr::stats::whittle_aggregated(logs, levels);
    benchmark::DoNotOptimize(w.data());
  }
}
BENCHMARK(WhittleAggregated)->Arg(171000);

static void DfaAnalysis(benchmark::State& state) {
  const auto& x = lrd_series(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto result = vbr::stats::dfa(x);
    benchmark::DoNotOptimize(result.hurst);
  }
}
BENCHMARK(DfaAnalysis)->Arg(171000);

static void GammaParetoFit(benchmark::State& state) {
  const auto& x = lrd_series(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto params = vbr::stats::GammaParetoDistribution::fit(x);
    benchmark::DoNotOptimize(params.tail_slope);
  }
}
BENCHMARK(GammaParetoFit)->Arg(171000);

static void ConvolutionTable(benchmark::State& state) {
  vbr::stats::GammaParetoParams params;
  params.mu_gamma = 27791.0;
  params.sigma_gamma = 6254.0;
  params.tail_slope = 12.0;
  const vbr::stats::GammaParetoDistribution d(params);
  const vbr::stats::TabulatedDistribution table(d, 0.0, 120000.0, 10000);
  for (auto _ : state) {
    auto sum = table.convolve_power(static_cast<std::size_t>(state.range(0)));
    benchmark::DoNotOptimize(sum.mean());
  }
}
BENCHMARK(ConvolutionTable)->Arg(5)->Arg(20);
