// Tests for the two Gaussian LRD generators: Hosking's exact O(n^2)
// recursion (Section 4.1) and Davies-Harte circulant embedding. The key
// cross-check: both produce realizations whose sample ACF matches the
// target fARIMA/fGn autocorrelation and whose estimated H matches the
// input. The process-wide caches behind generation (Davies-Harte
// eigenvalues, the Gamma/Pareto marginal map) must never change a bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <complex>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "vbr/common/error.hpp"
#include "vbr/common/fft.hpp"
#include "vbr/common/math_util.hpp"
#include "vbr/common/rng.hpp"
#include "vbr/model/davies_harte.hpp"
#include "vbr/model/fgn_acf.hpp"
#include "vbr/model/fgn_generator.hpp"
#include "vbr/model/hosking.hpp"
#include "vbr/model/marginal_transform.hpp"
#include "vbr/model/paxson_fgn.hpp"
#include "vbr/model/vbr_source.hpp"
#include "vbr/stats/autocorrelation.hpp"
#include "vbr/stats/whittle.hpp"

namespace vbr::model {
namespace {

TEST(HoskingTest, DeterministicGivenSeed) {
  HoskingOptions opt;
  opt.hurst = 0.8;
  Rng rng1(5);
  Rng rng2(5);
  const auto a = hosking_farima(500, opt, rng1);
  const auto b = hosking_farima(500, opt, rng2);
  EXPECT_EQ(a, b);
}

TEST(HoskingTest, MarginalMomentsMatch) {
  HoskingOptions opt;
  opt.hurst = 0.75;
  opt.variance = 4.0;
  Rng rng(7);
  const auto x = hosking_farima(30000, opt, rng);
  EXPECT_NEAR(sample_mean(x), 0.0, 0.4);  // LRD mean converges slowly
  EXPECT_NEAR(sample_variance(x), 4.0, 0.5);
}

TEST(HoskingTest, SampleAcfMatchesEqSix) {
  HoskingOptions opt;
  opt.hurst = 0.8;
  Rng rng(11);
  const auto x = hosking_farima(60000, opt, rng);
  const auto sample_acf = stats::autocorrelation(x, 20);
  const auto target = farima_acf(0.8, 20);
  for (std::size_t k = 1; k <= 10; ++k) {
    EXPECT_NEAR(sample_acf[k], target[k], 0.05) << "lag " << k;
  }
}

TEST(HoskingTest, InnovationVarianceDecreasesMonotonically) {
  HoskingOptions opt;
  opt.hurst = 0.8;
  HoskingGenerator gen(opt, Rng(13));
  gen.next();
  double prev = gen.innovation_variance();
  for (int i = 0; i < 200; ++i) {
    gen.next();
    EXPECT_LE(gen.innovation_variance(), prev + 1e-12);
    prev = gen.innovation_variance();
    EXPECT_GT(prev, 0.0);
  }
}

TEST(HoskingTest, WhittleRecoversInputH) {
  HoskingOptions opt;
  opt.hurst = 0.7;
  Rng rng(17);
  const auto x = hosking_farima(32768, opt, rng);
  EXPECT_NEAR(stats::whittle_estimate(x).hurst, 0.7, 0.04);
}

TEST(HoskingTest, RejectsInvalidOptions) {
  Rng rng(1);
  HoskingOptions opt;
  opt.hurst = 1.0;
  EXPECT_THROW(hosking_farima(10, opt, rng), vbr::InvalidArgument);
  opt.hurst = 0.8;
  opt.variance = 0.0;
  EXPECT_THROW(hosking_farima(10, opt, rng), vbr::InvalidArgument);
}

TEST(DaviesHarteTest, DeterministicGivenSeed) {
  DaviesHarteOptions opt;
  opt.hurst = 0.8;
  Rng rng1(5);
  Rng rng2(5);
  EXPECT_EQ(davies_harte(1000, opt, rng1), davies_harte(1000, opt, rng2));
}

TEST(DaviesHarteTest, MarginalMomentsMatch) {
  DaviesHarteOptions opt;
  opt.hurst = 0.8;
  opt.variance = 9.0;
  Rng rng(19);
  const auto x = davies_harte(100000, opt, rng);
  EXPECT_NEAR(sample_mean(x), 0.0, 0.6);
  EXPECT_NEAR(sample_variance(x), 9.0, 1.0);
}

TEST(DaviesHarteTest, SampleAcfMatchesFgnTarget) {
  DaviesHarteOptions opt;
  opt.hurst = 0.8;
  Rng rng(23);
  const auto x = davies_harte(131072, opt, rng);
  const auto sample_acf = stats::autocorrelation(x, 50);
  for (std::size_t k = 1; k <= 20; ++k) {
    EXPECT_NEAR(sample_acf[k], fgn_rho(0.8, k), 0.04) << "lag " << k;
  }
}

TEST(DaviesHarteTest, FarimaCovarianceOptionMatchesEqSix) {
  DaviesHarteOptions opt;
  opt.hurst = 0.8;
  opt.covariance = CovarianceKind::kFarima;
  Rng rng(29);
  const auto x = davies_harte(131072, opt, rng);
  const auto sample_acf = stats::autocorrelation(x, 20);
  const auto target = farima_acf(0.8, 20);
  for (std::size_t k = 1; k <= 10; ++k) {
    EXPECT_NEAR(sample_acf[k], target[k], 0.04) << "lag " << k;
  }
}

class DaviesHarteHurstSweep : public ::testing::TestWithParam<double> {};

TEST_P(DaviesHarteHurstSweep, WhittleRecoversH) {
  const double h = GetParam();
  DaviesHarteOptions opt;
  opt.hurst = h;
  Rng rng(31);
  const auto x = davies_harte(65536, opt, rng);
  // fGn data -> fGn spectral model (the matching density).
  EXPECT_NEAR(stats::whittle_estimate(x, stats::SpectralModel::kFgn).hurst, h, 0.03)
      << "H=" << h;
}

INSTANTIATE_TEST_SUITE_P(HurstGrid, DaviesHarteHurstSweep,
                         ::testing::Values(0.55, 0.6, 0.7, 0.8, 0.9));

TEST(GeneratorCrossValidationTest, HoskingAndDaviesHarteAgree) {
  // Same model (fARIMA, H=0.8), different exact algorithms: sample ACFs and
  // Whittle estimates must agree within estimator noise.
  const double h = 0.8;
  Rng rng_h(37);
  Rng rng_d(41);
  HoskingOptions hopt;
  hopt.hurst = h;
  DaviesHarteOptions dopt;
  dopt.hurst = h;
  dopt.covariance = CovarianceKind::kFarima;
  const auto xh = hosking_farima(32768, hopt, rng_h);
  const auto xd = davies_harte(32768, dopt, rng_d);
  const double hh = stats::whittle_estimate(xh).hurst;
  const double hd = stats::whittle_estimate(xd).hurst;
  EXPECT_NEAR(hh, hd, 0.06);
  const auto ah = stats::autocorrelation(xh, 10);
  const auto ad = stats::autocorrelation(xd, 10);
  for (std::size_t k = 1; k <= 5; ++k) EXPECT_NEAR(ah[k], ad[k], 0.07) << "lag " << k;
}

TEST(DaviesHarteCacheTest, CachedAndUncachedProduceIdenticalOutput) {
  davies_harte_cache_clear();
  DaviesHarteOptions opt;
  opt.hurst = 0.8;

  Rng rng_cold(97);  // cold cache: this call computes the eigenvalues
  const auto cold = davies_harte(3000, opt, rng_cold);
  EXPECT_EQ(davies_harte_cache_size(), 1u);

  Rng rng_warm(97);  // same Rng state, warm cache
  const auto warm = davies_harte(3000, opt, rng_warm);
  EXPECT_EQ(davies_harte_cache_size(), 1u);

  EXPECT_EQ(cold, warm);  // exact double equality: caching must not change output
  davies_harte_cache_clear();
  EXPECT_EQ(davies_harte_cache_size(), 0u);
}

TEST(DaviesHarteCacheTest, KeyedByHurstLengthAndCovariance) {
  davies_harte_cache_clear();
  DaviesHarteOptions opt;
  opt.hurst = 0.7;
  Rng rng(101);

  davies_harte(512, opt, rng);
  EXPECT_EQ(davies_harte_cache_size(), 1u);

  // Same key again: no new entry.
  davies_harte(512, opt, rng);
  EXPECT_EQ(davies_harte_cache_size(), 1u);

  // n = 300 embeds into the same 2m = 1024 circulant as n = 512, so it
  // must share the entry rather than duplicate it.
  davies_harte(300, opt, rng);
  EXPECT_EQ(davies_harte_cache_size(), 1u);

  // Different H -> new entry.
  opt.hurst = 0.8;
  davies_harte(512, opt, rng);
  EXPECT_EQ(davies_harte_cache_size(), 2u);

  // Different covariance kind at the same H and length -> new entry.
  opt.covariance = CovarianceKind::kFarima;
  davies_harte(512, opt, rng);
  EXPECT_EQ(davies_harte_cache_size(), 3u);

  // Different embedding length -> new entry. variance is only an output
  // scale and must NOT key the cache.
  opt.variance = 5.0;
  davies_harte(2048, opt, rng);
  EXPECT_EQ(davies_harte_cache_size(), 4u);
  opt.variance = 9.0;
  davies_harte(2048, opt, rng);
  EXPECT_EQ(davies_harte_cache_size(), 4u);
  davies_harte_cache_clear();
}

TEST(DaviesHarteCacheTest, VarianceScalesCachedOutputExactly) {
  davies_harte_cache_clear();
  DaviesHarteOptions opt;
  opt.hurst = 0.8;
  Rng rng1(111);
  const auto unit = davies_harte(1024, opt, rng1);
  opt.variance = 4.0;
  Rng rng2(111);
  const auto scaled = davies_harte(1024, opt, rng2);
  EXPECT_EQ(davies_harte_cache_size(), 1u);  // shared entry despite variance
  for (std::size_t i = 0; i < unit.size(); ++i) {
    EXPECT_NEAR(scaled[i], 2.0 * unit[i], 1e-12 * std::abs(unit[i]) + 1e-15) << i;
  }
  davies_harte_cache_clear();
}

TEST(DaviesHarteTest, EigenvalueClippingNearHurstBoundary) {
  // Near H -> 1 at large n the smallest circulant eigenvalues sit closest
  // to zero, so FFT roundoff can push them slightly negative; the clipping
  // threshold is relative (1e-10 * lambda_max), not scaled by 2m as it
  // once was. Pin the behaviour: H = 0.95 at n = 2^15 (embedding 2^16)
  // must generate, not throw, and produce a sane realization.
  DaviesHarteOptions opt;
  opt.hurst = 0.95;
  Rng rng(131);
  std::vector<double> x;
  ASSERT_NO_THROW(x = davies_harte(std::size_t{1} << 15, opt, rng));
  ASSERT_EQ(x.size(), std::size_t{1} << 15);
  for (const double v : x) ASSERT_TRUE(std::isfinite(v));
  // Unit target variance; H = 0.95 LRD makes the sample estimate noisy,
  // so only bracket it loosely.
  const double var = sample_variance(x);
  EXPECT_GT(var, 0.2);
  EXPECT_LT(var, 5.0);
}

TEST(DaviesHarteTest, SingleAndSmallN) {
  DaviesHarteOptions opt;
  opt.hurst = 0.8;
  Rng rng(43);
  EXPECT_EQ(davies_harte(1, opt, rng).size(), 1u);
  EXPECT_EQ(davies_harte(2, opt, rng).size(), 2u);
  EXPECT_EQ(davies_harte(3, opt, rng).size(), 3u);
}

bool same_bytes(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// The draw order is part of the pinned output: W_0, W_m, then per k one
// pair whose first draw is Im W_k and whose second is Re W_k. The spectrum
// is rebuilt here from one normal() call per statement, so no evaluation
// order is left to the compiler, and the result must match bit for bit.
TEST(DaviesHarteTest, SpectrumTakesEachPairsFirstDrawAsItsImaginaryPart) {
  for (const CovarianceKind covariance : {CovarianceKind::kFgn, CovarianceKind::kFarima}) {
    for (const std::size_t n : {std::size_t{2}, std::size_t{5}, std::size_t{8}, std::size_t{13}}) {
      DaviesHarteOptions options;
      options.hurst = 0.8;
      options.variance = 2.5;
      options.covariance = covariance;
      const std::size_t m = next_power_of_two(n);
      const auto rho = covariance == CovarianceKind::kFgn ? fgn_acf(options.hurst, m)
                                                          : farima_acf(options.hurst, m);
      std::vector<double> row(2 * m);
      for (std::size_t j = 0; j <= m; ++j) row[j] = rho[j];
      for (std::size_t j = 1; j < m; ++j) row[2 * m - j] = rho[j];
      const auto eigen = rfft(row);
      std::vector<double> sqrt_lambda(m + 1);
      for (std::size_t k = 0; k <= m; ++k) sqrt_lambda[k] = std::sqrt(std::max(0.0, eigen[k].real()));

      Rng rng(77 + n);
      std::vector<std::complex<double>> w(m + 1);
      w[0] = rng.normal() * sqrt_lambda[0];
      w[m] = rng.normal() * sqrt_lambda[m];
      const double inv_sqrt2 = 1.0 / std::sqrt(2.0);
      for (std::size_t k = 1; k < m; ++k) {
        const double im = rng.normal() * inv_sqrt2;
        const double re = rng.normal() * inv_sqrt2;
        w[k] = std::complex<double>(re, im) * sqrt_lambda[k];
      }
      std::vector<double> expect(n);
      irfft(w, 2 * m, expect, std::sqrt(static_cast<double>(2 * m) * options.variance));

      Rng again(77 + n);
      EXPECT_TRUE(same_bytes(davies_harte(n, options, again), expect)) << "n " << n;
    }
  }
}

/// The paper's Star Wars fit, a steeper tail, and a heavier, wider one.
std::vector<stats::GammaParetoParams> marginal_param_sets() {
  return {{.mu_gamma = 27791.0, .sigma_gamma = 6254.0, .tail_slope = 12.0},
          {.mu_gamma = 27791.0, .sigma_gamma = 6254.0, .tail_slope = 20.0},
          {.mu_gamma = 1500.0, .sigma_gamma = 600.0, .tail_slope = 4.5}};
}

TEST(MarginalMapCacheTest, GenerateEqualsAFreshTableBitForBit) {
  marginal_map_cache_clear();
  for (const auto& marginal : marginal_param_sets()) {
    const VbrVideoSourceModel model({.marginal = marginal, .hurst = 0.8});
    Rng rng(2024);
    const auto full = model.generate(4096, rng, ModelVariant::kFull);

    // The same core, mapped by a table built from scratch.
    Rng core_rng(2024);
    const auto core =
        make_fgn_generator(GeneratorBackend::kDaviesHarte, 0.8)->generate(4096, core_rng);
    const stats::GammaParetoDistribution dist(marginal);
    const TabulatedMarginalMap fresh(dist);
    EXPECT_TRUE(same_bytes(full, fresh.apply(core))) << "tail slope " << marginal.tail_slope;

    // Draws beyond the table's +-8 sigma take the exact-quantile fallback.
    const std::vector<double> extremes = {-12.0, -9.0, -8.0, -7.999, 7.999, 8.0, 8.5, 12.0};
    const auto cached = shared_marginal_map(marginal);
    EXPECT_TRUE(same_bytes(cached->map.apply(extremes), fresh.apply(extremes)));
  }
  EXPECT_EQ(marginal_map_cache_size(), marginal_param_sets().size());
  marginal_map_cache_clear();
}

TEST(MarginalMapCacheTest, SameTripleSharesOneEntryAndClearDropsIt) {
  marginal_map_cache_clear();
  const auto sets = marginal_param_sets();
  const auto a = shared_marginal_map(sets[0]);
  const auto b = shared_marginal_map(sets[0]);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(&a->map, &b->map);
  EXPECT_EQ(marginal_map_cache_size(), 1u);
  EXPECT_NE(shared_marginal_map(sets[1]).get(), a.get());
  EXPECT_EQ(marginal_map_cache_size(), 2u);

  // Only the full model maps through the table.
  marginal_map_cache_clear();
  EXPECT_EQ(marginal_map_cache_size(), 0u);
  const VbrVideoSourceModel model({.marginal = sets[0], .hurst = 0.8});
  Rng rng(7);
  (void)model.generate(256, rng, ModelVariant::kGaussianFarima);
  (void)model.generate(256, rng, ModelVariant::kIidGammaPareto);
  EXPECT_EQ(marginal_map_cache_size(), 0u);
  (void)model.generate(256, rng, ModelVariant::kFull);
  EXPECT_EQ(marginal_map_cache_size(), 1u);

  // A holder keeps its entry alive across a clear; the rebuilt entry is a
  // new object with the same bits.
  const auto rebuilt = shared_marginal_map(sets[0]);
  EXPECT_NE(rebuilt.get(), a.get());
  const std::vector<double> z = {-3.0, -0.5, 0.0, 1.25, 4.0};
  EXPECT_TRUE(same_bytes(rebuilt->map.apply(z), a->map.apply(z)));
  marginal_map_cache_clear();
}

TEST(MarginalMapCacheTest, ConcurrentFirstUseLeavesOneEntry) {
  marginal_map_cache_clear();
  const stats::GammaParetoParams marginal = marginal_param_sets()[0];
  constexpr std::size_t kThreads = 4;
  std::atomic<std::size_t> waiting{kThreads};
  std::vector<std::shared_ptr<const SharedMarginalMap>> got(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i]() noexcept {
      // Release every thread at once so their first lookups race.
      waiting.fetch_sub(1);
      while (waiting.load() != 0) std::this_thread::yield();
      got[i] = shared_marginal_map(marginal);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(marginal_map_cache_size(), 1u);
  for (const auto& entry : got) EXPECT_EQ(entry.get(), got[0].get());
  marginal_map_cache_clear();
}

// ---------------------------------------------------------------------------
// Workspace forms: the span-and-workspace generators against the allocating
// ones, with one workspace reused across every shape (up, then down again),
// so a buffer left over from a larger or smaller shape cannot leak in.

std::vector<std::size_t> workspace_shapes() {
  const std::vector<std::size_t> up = {1, 2, 3, 1000, 1024, 171000};
  std::vector<std::size_t> shapes = up;
  shapes.insert(shapes.end(), up.rbegin(), up.rend());
  return shapes;
}

TEST(WorkspaceFormTest, DaviesHarteMatchesAllocatingFormBitForBit) {
  Workspace workspace;
  for (const auto covariance : {CovarianceKind::kFgn, CovarianceKind::kFarima}) {
    DaviesHarteOptions options;
    options.hurst = 0.8;
    options.variance = 2.5;
    options.covariance = covariance;
    for (const std::size_t n : workspace_shapes()) {
      Rng a(500 + n);
      Rng b(500 + n);
      const auto expected = davies_harte(n, options, a);
      std::vector<double> out(n);
      davies_harte(out, options, b, workspace);
      EXPECT_TRUE(same_bytes(out, expected)) << "n=" << n;
      EXPECT_EQ(a.normal(), b.normal()) << "n=" << n;  // both left at the same draw
    }
  }
}

TEST(WorkspaceFormTest, PaxsonMatchesAllocatingFormBitForBit) {
  Workspace workspace;
  PaxsonOptions options;
  options.hurst = 0.7;
  options.variance = 3.0;
  for (const std::size_t n : workspace_shapes()) {
    Rng a(600 + n);
    Rng b(600 + n);
    const auto expected = paxson_fgn(n, options, a);
    std::vector<double> out(n);
    paxson_fgn(out, options, b, workspace);
    EXPECT_TRUE(same_bytes(out, expected)) << "n=" << n;
    EXPECT_EQ(a.normal(), b.normal()) << "n=" << n;  // both left at the same draw
  }
}

TEST(WorkspaceFormTest, GenerateMatchesAllocatingFormBitForBit) {
  const VbrVideoSourceModel model(VbrModelParams{marginal_param_sets()[0], 0.8});
  Workspace workspace;  // shared by every backend, variant and shape
  for (const auto backend : {GeneratorBackend::kDaviesHarte, GeneratorBackend::kPaxson}) {
    for (const auto variant : {ModelVariant::kFull, ModelVariant::kGaussianFarima,
                               ModelVariant::kIidGammaPareto}) {
      for (const std::size_t n : workspace_shapes()) {
        Rng a(700 + n);
        Rng b(700 + n);
        const auto expected = model.generate(n, a, variant, backend);
        std::vector<double> out(n);
        model.generate(out, b, variant, backend, workspace);
        EXPECT_TRUE(same_bytes(out, expected))
            << generator_backend_name(backend) << " variant " << static_cast<int>(variant)
            << " n=" << n;
      }
    }
  }
  // The backends with no workspace path (Hosking is O(n^2): keep n small).
  for (const auto backend : {GeneratorBackend::kHosking, GeneratorBackend::kAggregatedOnOff}) {
    Rng a(800);
    Rng b(800);
    const auto expected = model.generate(1000, a, ModelVariant::kFull, backend);
    std::vector<double> out(1000);
    model.generate(out, b, ModelVariant::kFull, backend, workspace);
    EXPECT_TRUE(same_bytes(out, expected)) << generator_backend_name(backend);
  }
  std::vector<double> empty;
  Rng rng(1);
  EXPECT_THROW(model.generate(empty, rng, ModelVariant::kFull, GeneratorBackend::kDaviesHarte,
                              workspace),
               InvalidArgument);
}

}  // namespace
}  // namespace vbr::model
