// Tests for the streaming traffic service (src/vbr/service): the streaming
// source contracts — bit-equality of incremental Hosking to the batch
// recursion at full horizon, LRD fidelity of the truncated/blockwise forms
// under the repo's own estimators, block-size and thread-count invariance —
// plus the TrafficService lifecycle and the VBRSRVC1 checkpoint envelope
// (0-ulp round-trips, SIGKILL-style resume equality, hostile inputs).
#include "vbr/service/traffic_service.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "vbr/common/checksum.hpp"
#include "vbr/common/error.hpp"
#include "vbr/common/math_util.hpp"
#include "vbr/common/rng.hpp"
#include "vbr/model/fgn_acf.hpp"
#include "vbr/model/hosking.hpp"
#include "vbr/model/vbr_source.hpp"
#include "vbr/net/fluid_queue.hpp"
#include "vbr/service/service_checkpoint.hpp"
#include "vbr/service/streaming_hosking.hpp"
#include "vbr/service/streaming_source.hpp"
#include "vbr/service/streaming_vbr.hpp"
#include "vbr/stats/lrd_fidelity.hpp"
#include "vbr/stream/moments.hpp"

namespace vbr::service {
namespace {

model::VbrModelParams paper_params() {
  model::VbrModelParams params;
  params.hurst = 0.8;
  params.marginal.mu_gamma = 27791.0;
  params.marginal.sigma_gamma = 6254.0;
  params.marginal.tail_slope = 12.0;
  return params;
}

std::vector<double> drain(StreamingSource& source, std::size_t n, std::size_t block) {
  std::vector<double> out;
  while (out.size() < n) source.next_block(std::min(block, n - out.size()), out);
  return out;
}

/// Bitwise equality — the contract is 0 ulp, not approximate.
void expect_bit_equal(const std::vector<double>& a, const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    std::uint64_t ba = 0;
    std::uint64_t bb = 0;
    std::memcpy(&ba, &a[i], sizeof ba);
    std::memcpy(&bb, &b[i], sizeof bb);
    ASSERT_EQ(ba, bb) << "sample " << i;
  }
}

// ---------------------------------------------------------------------------
// Streaming core contracts.

TEST(StreamingHoskingTest, BitEqualsBatchRecursionAtFullHorizon) {
  // With horizon >= n no coefficient is ever truncated, so the incremental
  // form must reproduce hosking_farima exactly: same split()-derived Rng,
  // same Durbin-Levinson arithmetic, same draws.
  constexpr std::size_t kFrames = 512;
  const model::HoskingOptions options{.hurst = 0.8, .variance = 1.0};
  Rng batch_rng(7);
  const auto batch = model::hosking_farima(kFrames, options, batch_rng);
  for (const std::size_t block : {std::size_t{1}, std::size_t{64}, std::size_t{512}}) {
    Rng parent(7);
    StreamingHosking streaming(options, kFrames, parent);
    expect_bit_equal(drain(streaming, kFrames, block), batch);
  }
}

TEST(StreamingHoskingTest, TruncatedHorizonKeepsLrdFidelity) {
  // The documented truncation-bias bound: at horizon m the innovation
  // variance error is ~ v_inf * d^2 / m (< 0.4% at m = 64 for H < 0.95), so
  // the default horizon must pass the same fidelity gates as the exact zoo
  // generators (tolerances from generator_zoo_test).
  constexpr std::size_t kFrames = 65536;
  const double target = 0.8;
  Rng parent(1994);
  StreamingTuning tuning;  // hosking_horizon = 64
  auto source = make_streaming_core(model::GeneratorBackend::kHosking, target, 1.0,
                                    tuning, parent);
  const auto x = drain(*source, kFrames, 4096);
  stats::LrdFidelityOptions options;
  options.spectral_model = stats::SpectralModel::kFarima;
  const auto acf = model::farima_acf(target, options.acf_lags);
  const auto report = stats::judge_lrd_fidelity(x, target, acf, options);
  EXPECT_NEAR(report.whittle_hurst, target, 0.04);
  EXPECT_LE(report.acf_rms_error, 0.15);
  EXPECT_LE(report.gaussian_ks, 0.02);
  EXPECT_GT(report.sample_variance, 0.75);
  EXPECT_LT(report.sample_variance, 1.25);
}

TEST(StreamingPaxsonTest, BlockwiseStitchingKeepsLrdFidelity) {
  // Blockwise synthesis with the equal-power crossfade must stay within the
  // zoo's documented fGn tolerances; this is the stats/lrd_fidelity
  // validation the stitching design is accountable to.
  constexpr std::size_t kFrames = 65536;
  const double target = 0.8;
  Rng parent(1994);
  StreamingTuning tuning;  // window 4096, overlap 512
  auto source = make_streaming_core(model::GeneratorBackend::kPaxson, target, 1.0,
                                    tuning, parent);
  const auto x = drain(*source, kFrames, 4096);
  stats::LrdFidelityOptions options;
  options.spectral_model = stats::SpectralModel::kFgn;
  const auto acf = model::fgn_acf(target, options.acf_lags);
  const auto report = stats::judge_lrd_fidelity(x, target, acf, options);
  EXPECT_NEAR(report.whittle_hurst, target, 0.04);
  EXPECT_LE(report.acf_rms_error, 0.15);
  EXPECT_LE(report.gaussian_ks, 0.02);
  EXPECT_GT(report.sample_variance, 0.75);
  EXPECT_LT(report.sample_variance, 1.25);
}

TEST(StreamingOnOffTest, NaturallyStreamingSourceKeepsLrdFidelity) {
  // The on/off superposition is Gaussian only by CLT and its VT/Whittle
  // reads carry the same slack the zoo documents for the batch form.
  constexpr std::size_t kFrames = 65536;
  const double target = 0.8;
  Rng parent(1994);
  StreamingTuning tuning;
  auto source = make_streaming_core(model::GeneratorBackend::kAggregatedOnOff, target, 1.0,
                                    tuning, parent);
  const auto x = drain(*source, kFrames, 4096);
  stats::LrdFidelityOptions options;
  options.spectral_model = stats::SpectralModel::kFgn;
  const auto acf = model::fgn_acf(target, options.acf_lags);
  const auto report = stats::judge_lrd_fidelity(x, target, acf, options);
  EXPECT_NEAR(report.whittle_hurst, target, 0.05);
  EXPECT_LE(report.gaussian_ks, 0.03);
  EXPECT_GT(report.sample_variance, 0.75);
  EXPECT_LT(report.sample_variance, 1.25);
}

TEST(StreamingSourceTest, BlockSizeNeverChangesTheSequence) {
  // next_block(n) in any partition must emit the one sequence the seed
  // determines — the service's block parameter is a scheduling knob, not a
  // modeling one.
  const StreamingTuning tuning;
  for (const auto backend :
       {model::GeneratorBackend::kHosking, model::GeneratorBackend::kPaxson,
        model::GeneratorBackend::kAggregatedOnOff}) {
    Rng reference_parent(33);
    auto reference = make_streaming_core(backend, 0.8, 1.0, tuning, reference_parent);
    const auto expected = drain(*reference, 4096, 4096);
    for (const std::size_t block : {std::size_t{1}, std::size_t{64}, std::size_t{4096}}) {
      Rng parent(33);
      auto source = make_streaming_core(backend, 0.8, 1.0, tuning, parent);
      expect_bit_equal(drain(*source, 4096, block), expected);
      EXPECT_EQ(source->position(), 4096u);
    }
  }
}

TEST(StreamingVbrTest, FullAndGaussianVariantsBitEqualBatchModelAtFullHorizon) {
  // End-to-end bit-equality: streaming hosking at horizon >= n, wrapped by
  // the marginal transform, must match VbrVideoSourceModel::generate for
  // the same backend — the streaming service is the batch model, served.
  constexpr std::size_t kFrames = 256;
  const auto params = paper_params();
  const model::VbrVideoSourceModel batch_model(params);
  StreamingTuning tuning;
  tuning.hosking_horizon = kFrames;
  for (const auto variant :
       {model::ModelVariant::kFull, model::ModelVariant::kGaussianFarima,
        model::ModelVariant::kIidGammaPareto}) {
    Rng batch_rng(11);
    const auto batch =
        batch_model.generate(kFrames, batch_rng, variant, model::GeneratorBackend::kHosking);
    Rng parent(11);
    auto streaming = std::make_unique<StreamingVbrSource>(
        params, variant, model::GeneratorBackend::kHosking, tuning, parent);
    expect_bit_equal(drain(*streaming, kFrames, 64), batch);
  }
}

TEST(StreamingSourceTest, SaveRestoreRoundTripsAtZeroUlpMidNormalPair) {
  // Cut at an odd position (137) so the Rng's cached Box-Muller normal is
  // in flight, and in the middle of a Paxson window: the restored source
  // must continue bit-for-bit, not re-synthesize.
  const auto params = paper_params();
  const StreamingTuning tuning;
  for (const auto backend :
       {model::GeneratorBackend::kHosking, model::GeneratorBackend::kPaxson,
        model::GeneratorBackend::kAggregatedOnOff}) {
    for (const auto variant :
         {model::ModelVariant::kFull, model::ModelVariant::kGaussianFarima,
          model::ModelVariant::kIidGammaPareto}) {
      Rng parent(91);
      auto original = std::make_unique<StreamingVbrSource>(params, variant, backend, tuning, parent);
      (void)drain(*original, 137, 137);
      std::ostringstream state(std::ios::binary);
      original->save(state);
      const auto tail = drain(*original, 300, 77);

      Rng fresh_parent(91);
      auto restored =
          std::make_unique<StreamingVbrSource>(params, variant, backend, tuning, fresh_parent);
      std::istringstream in(state.str(), std::ios::binary);
      restored->restore(in);
      EXPECT_EQ(restored->position(), 137u);
      expect_bit_equal(drain(*restored, 300, 77), tail);
    }
  }
}

TEST(StreamingSourceTest, RestoreRejectsMismatchedConfigUnchanged) {
  const auto params = paper_params();
  const StreamingTuning tuning;
  Rng parent(5);
  auto source = std::make_unique<StreamingVbrSource>(
      params, model::ModelVariant::kGaussianFarima, model::GeneratorBackend::kHosking, tuning, parent);
  (void)drain(*source, 64, 64);
  std::ostringstream state(std::ios::binary);
  source->save(state);

  auto other_params = params;
  other_params.hurst = 0.7;
  Rng other_parent(5);
  auto other = std::make_unique<StreamingVbrSource>(other_params,
                                                   model::ModelVariant::kGaussianFarima,
                                                   model::GeneratorBackend::kHosking, tuning,
                                                   other_parent);
  std::istringstream in(state.str(), std::ios::binary);
  EXPECT_THROW(other->restore(in), IoError);
  EXPECT_EQ(other->position(), 0u);  // rejected before any state was committed
}

TEST(StreamingSourceTest, FactoryRejectsInvalidConfigurations) {
  const StreamingTuning tuning;
  Rng parent(1);
  EXPECT_THROW(make_streaming_core(model::GeneratorBackend::kDaviesHarte, 0.8, 1.0, tuning,
                                   parent),
               InvalidArgument);
  EXPECT_THROW(make_streaming_core(model::GeneratorBackend::kHosking, 1.2, 1.0, tuning, parent),
               Error);
  StreamingTuning bad_window = tuning;
  bad_window.paxson_window = 1000;  // not a power of two
  EXPECT_THROW(make_streaming_core(model::GeneratorBackend::kPaxson, 0.8, 1.0, bad_window,
                                   parent),
               Error);
  StreamingTuning bad_overlap = tuning;
  bad_overlap.paxson_overlap = bad_overlap.paxson_window;  // > window / 2
  EXPECT_THROW(make_streaming_core(model::GeneratorBackend::kPaxson, 0.8, 1.0, bad_overlap,
                                   parent),
               Error);
  StreamingTuning bad_horizon = tuning;
  bad_horizon.hosking_horizon = 0;
  EXPECT_THROW(make_streaming_core(model::GeneratorBackend::kHosking, 0.8, 1.0, bad_horizon,
                                   parent),
               Error);
}

TEST(StreamingSourceTest, SharedCoefficientTablesAreCachedPerConfiguration) {
  StreamingHosking::coeff_cache_clear();
  const model::HoskingOptions options{.hurst = 0.8, .variance = 1.0};
  Rng parent(3);
  StreamingHosking a(options, 64, parent);
  StreamingHosking b(options, 64, parent);
  EXPECT_EQ(StreamingHosking::coeff_cache_size(), 1u);  // shared, not per-stream
  StreamingHosking c(options, 128, parent);
  EXPECT_EQ(StreamingHosking::coeff_cache_size(), 2u);  // horizon is part of the key
}

// ---------------------------------------------------------------------------
// Lockstep kernel: 1..G lanes advanced together must each emit exactly what
// the same stream emits alone through next_block (the kernel at one lane),
// at every ISA the kernel is compiled for.

/// `count` Hosking streams from consecutive splits of Rng(seed).
std::vector<std::unique_ptr<StreamingHosking>> hosking_lanes(
    std::size_t horizon, std::uint64_t seed, std::size_t count = lockstep_lanes()) {
  const model::HoskingOptions options{.hurst = 0.8, .variance = 1.0};
  Rng parent(seed);
  std::vector<std::unique_ptr<StreamingHosking>> lanes;
  for (std::size_t g = 0; g < count; ++g) {
    lanes.push_back(std::make_unique<StreamingHosking>(options, horizon, parent));
  }
  return lanes;
}

/// Advance lanes[i] for every i in `group` by n through one kernel call on
/// `isa`, appending to outs[i].
void lockstep_step(KernelIsa isa, const std::vector<std::unique_ptr<StreamingHosking>>& lanes,
                   const std::vector<std::size_t>& group, std::size_t n,
                   std::vector<std::vector<double>>& outs, std::vector<double>& window) {
  std::vector<StreamingHosking*> ptrs;
  std::vector<std::vector<double>*> dst;
  for (const std::size_t i : group) {
    ptrs.push_back(lanes[i].get());
    dst.push_back(&outs[i]);
  }
  StreamingHosking::next_block_lanes(ptrs, n, dst, window, isa);
}

/// 0, 1, ..., count - 1.
std::vector<std::size_t> all_lanes(std::size_t count) {
  std::vector<std::size_t> group(count);
  for (std::size_t g = 0; g < count; ++g) group[g] = g;
  return group;
}

TEST(StreamingHoskingTest, LockstepLanesBitEqualSingleStreamsFromWarmUp) {
  // Warm-up groups on the process's own kernel: all lanes start at position
  // 0 and share every order 0..m; blocks of several sizes cross the horizon
  // mid-block. Horizons 1 and 7 wrap the ring every few samples; 600 >= n
  // never truncates.
  constexpr std::size_t kFrames = 512;
  for (const std::size_t horizon :
       {std::size_t{1}, std::size_t{7}, std::size_t{64}, std::size_t{600}}) {
    const auto lanes = hosking_lanes(horizon, 21);
    const auto solo = hosking_lanes(horizon, 21);
    std::vector<std::vector<double>> got(lanes.size());
    std::vector<double> window;
    std::size_t served = 0;
    for (std::size_t block = 1; served < kFrames; block = block * 3 + 1) {
      const std::size_t n = std::min(block, kFrames - served);
      for (std::size_t g = 1; g < lanes.size(); ++g) {
        ASSERT_TRUE(lanes[0]->lockstep_compatible(*lanes[g]));
      }
      lockstep_step(active_kernel_isa(), lanes, all_lanes(lanes.size()), n, got, window);
      served += n;
    }
    for (std::size_t g = 0; g < lanes.size(); ++g) {
      SCOPED_TRACE("horizon " + std::to_string(horizon) + " lane " + std::to_string(g));
      EXPECT_EQ(lanes[g]->position(), kFrames);
      expect_bit_equal(got[g], drain(*solo[g], kFrames, 64));
    }
  }
}

TEST(StreamingHoskingTest, LockstepLanesPastTheHorizonMayDifferInPosition) {
  // Past the horizon every lane predicts at order m whatever its position,
  // so lanes with different ring cursors (and Rngs mid-normal-pair at odd
  // positions) still group; below the horizon only equal positions do.
  for (const std::size_t horizon : {std::size_t{1}, std::size_t{7}, std::size_t{64}}) {
    const auto lanes = hosking_lanes(horizon, 5);
    const auto solo = hosking_lanes(horizon, 5);
    std::vector<std::vector<double>> expected(lanes.size());
    for (std::size_t g = 0; g < lanes.size(); ++g) {
      const std::size_t lead_in = horizon + 3 * g;
      (void)drain(*lanes[g], lead_in, 5);
      expected[g] = drain(*solo[g], lead_in + 200, 200);
      expected[g].erase(expected[g].begin(),
                        expected[g].begin() + static_cast<std::ptrdiff_t>(lead_in));
    }
    for (std::size_t g = 1; g < lanes.size(); ++g) {
      ASSERT_TRUE(lanes[0]->lockstep_compatible(*lanes[g]));
    }
    std::vector<std::vector<double>> got(lanes.size());
    std::vector<double> window;
    lockstep_step(active_kernel_isa(), lanes, all_lanes(lanes.size()), 120, got, window);
    lockstep_step(active_kernel_isa(), lanes, all_lanes(lanes.size()), 80, got, window);
    for (std::size_t g = 0; g < lanes.size(); ++g) {
      SCOPED_TRACE("horizon " + std::to_string(horizon) + " lane " + std::to_string(g));
      expect_bit_equal(got[g], expected[g]);
    }
  }
  // Below the horizon: equal positions group, unequal ones do not, and a
  // different coefficient table (another horizon) never does.
  const auto lanes = hosking_lanes(64, 8);
  EXPECT_TRUE(lanes[0]->lockstep_compatible(*lanes[1]));
  (void)drain(*lanes[1], 3, 3);
  EXPECT_FALSE(lanes[0]->lockstep_compatible(*lanes[1]));
  (void)drain(*lanes[0], 3, 3);
  EXPECT_TRUE(lanes[0]->lockstep_compatible(*lanes[1]));
  const auto other = hosking_lanes(65, 8);
  (void)drain(*other[0], 3, 3);
  EXPECT_FALSE(lanes[0]->lockstep_compatible(*other[0]));
}

/// The kernel forced to one ISA; an ISA this host lacks is skipped by name.
class LockstepIsaTest : public ::testing::TestWithParam<KernelIsa> {
 protected:
  void SetUp() override {
    if (!kernel_isa_supported(GetParam())) {
      GTEST_SKIP() << kernel_isa_name(GetParam()) << " kernel: this host lacks the ISA";
    }
  }
  KernelIsa isa() const { return GetParam(); }
  std::size_t lanes() const { return lockstep_lanes(GetParam()); }
};

TEST_P(LockstepIsaTest, EveryLaneCountHorizonAndBlockBitEqualsWidthOne) {
  // From warm-up (all lanes at position 0) through 150 samples: horizons 1
  // and 7 wrap the ring every few samples, 64 is crossed mid-run (mid-block
  // for blocks 9 and 128), and 200 >= n never truncates.
  constexpr std::size_t kFrames = 150;
  for (const std::size_t horizon :
       {std::size_t{1}, std::size_t{7}, std::size_t{64}, std::size_t{200}}) {
    for (const std::size_t block :
         {std::size_t{1}, std::size_t{2}, std::size_t{9}, std::size_t{128}}) {
      for (std::size_t count = 1; count <= lanes(); ++count) {
        SCOPED_TRACE("horizon " + std::to_string(horizon) + " block " + std::to_string(block) +
                     " lanes " + std::to_string(count));
        const auto group = hosking_lanes(horizon, 40 + count, count);
        const auto solo = hosking_lanes(horizon, 40 + count, count);
        std::vector<std::vector<double>> got(count);
        std::vector<double> window;
        for (std::size_t served = 0; served < kFrames; served += block) {
          lockstep_step(isa(), group, all_lanes(count), std::min(block, kFrames - served), got,
                        window);
        }
        for (std::size_t g = 0; g < count; ++g) {
          expect_bit_equal(got[g], drain(*solo[g], kFrames, 1));
        }
      }
    }
  }
}

TEST_P(LockstepIsaTest, MixedPositionsPastTheHorizonBitEqualWidthOne) {
  // Lane g starts horizon + 5g samples in, so every lane's ring cursor and
  // Rng normal-pair phase differ; blocks then run past the horizon.
  for (const std::size_t horizon : {std::size_t{1}, std::size_t{7}, std::size_t{64}}) {
    for (const std::size_t block :
         {std::size_t{1}, std::size_t{2}, std::size_t{9}, std::size_t{128}}) {
      SCOPED_TRACE("horizon " + std::to_string(horizon) + " block " + std::to_string(block));
      const auto group = hosking_lanes(horizon, 9, lanes());
      const auto solo = hosking_lanes(horizon, 9, lanes());
      std::vector<std::vector<double>> got(lanes());
      std::vector<std::vector<double>> expected(lanes());
      for (std::size_t g = 0; g < lanes(); ++g) {
        (void)drain(*group[g], horizon + 5 * g, 1);
        (void)drain(*solo[g], horizon + 5 * g, 1);
      }
      std::vector<double> window;
      for (std::size_t served = 0; served < 3 * block; served += block) {
        lockstep_step(isa(), group, all_lanes(lanes()), block, got, window);
      }
      for (std::size_t g = 0; g < lanes(); ++g) {
        expect_bit_equal(got[g], drain(*solo[g], 3 * block, 1));
      }
    }
  }
}

TEST_P(LockstepIsaTest, PausedHoleInsideAGroupBitEqualsWidthOne) {
  // G + 1 streams: past the horizon stream 5 pauses and the group runs as
  // the other G lanes around the hole; stream 5 then resumes behind them and
  // rejoins the first group (past the horizon its lag does not matter),
  // while the last stream runs alone.
  constexpr std::size_t kHorizon = 16;
  const std::size_t count = lanes() + 1;
  const auto streams = hosking_lanes(kHorizon, 12, count);
  const auto solo = hosking_lanes(kHorizon, 12, count);
  std::vector<std::vector<double>> got(count);
  std::vector<double> window;
  std::vector<std::size_t> first_group = all_lanes(lanes());
  std::vector<std::size_t> holed = all_lanes(count);
  holed.erase(holed.begin() + 5);
  const auto round = [&](const std::vector<std::size_t>& group, std::size_t n) {
    lockstep_step(isa(), streams, group, n, got, window);
  };
  round(first_group, 20);
  round({lanes()}, 20);
  round(holed, 9);
  round(holed, 9);
  ASSERT_TRUE(streams[0]->lockstep_compatible(*streams[5]));
  round(first_group, 9);
  round({lanes()}, 9);
  for (std::size_t i = 0; i < count; ++i) {
    SCOPED_TRACE("stream " + std::to_string(i));
    const std::size_t served = i == 5 ? 29 : 47;
    expect_bit_equal(got[i], drain(*solo[i], served, 1));
  }
}

std::string isa_test_name(const ::testing::TestParamInfo<KernelIsa>& param) {
  return kernel_isa_name(param.param);
}

INSTANTIATE_TEST_SUITE_P(EveryIsa, LockstepIsaTest,
                         ::testing::Values(KernelIsa::kBaseline, KernelIsa::kAvx2),
                         isa_test_name);

TEST(StreamingHoskingTest, KernelIsaEntryPointRejectsWhatItCannotRun) {
  EXPECT_TRUE(kernel_isa_supported(KernelIsa::kBaseline));
  EXPECT_TRUE(kernel_isa_supported(active_kernel_isa()));
  const auto too_many = hosking_lanes(8, 3, lockstep_lanes(KernelIsa::kBaseline) + 1);
  std::vector<std::vector<double>> outs(too_many.size());
  std::vector<double> window;
  EXPECT_THROW(lockstep_step(KernelIsa::kBaseline, too_many, all_lanes(too_many.size()), 4, outs,
                             window),
               InvalidArgument);
  for (const auto& lane : too_many) EXPECT_EQ(lane->position(), 0u);
}

TEST(StreamingHoskingTest, FailedAllocationLeavesEveryLaneUnadvanced) {
  // The governor reruns a group that throws lane by lane from where the
  // round began, so a failed call must not have drawn for any lane. Blocks
  // too large for any vector make the window (a group) or the output (a
  // lone lane) fail to allocate without allocating.
  const std::size_t too_big = std::vector<double>().max_size();
  for (const std::size_t count : {std::size_t{1}, lockstep_lanes()}) {
    SCOPED_TRACE("lanes " + std::to_string(count));
    const auto lanes = hosking_lanes(8, 6, count);
    const auto solo = hosking_lanes(8, 6, count);
    std::vector<std::vector<double>> got(count);
    std::vector<double> window;
    lockstep_step(active_kernel_isa(), lanes, all_lanes(count), 5, got, window);
    EXPECT_ANY_THROW(lockstep_step(active_kernel_isa(), lanes, all_lanes(count),
                                   count == 1 ? too_big + 1 : too_big / 4, got, window));
    lockstep_step(active_kernel_isa(), lanes, all_lanes(count), 11, got, window);
    for (std::size_t g = 0; g < count; ++g) expect_bit_equal(got[g], drain(*solo[g], 16, 1));
  }
}

TEST(StreamingVbrTest, LockstepGroupsBitEqualSingleSourcesThroughTheMarginalHead) {
  const auto params = paper_params();
  const StreamingTuning tuning;
  for (const auto variant : {model::ModelVariant::kFull, model::ModelVariant::kGaussianFarima}) {
    const auto make_lanes = [&] {
      Rng parent(77);
      std::vector<std::unique_ptr<StreamingVbrSource>> lanes;
      for (std::size_t g = 0; g < lockstep_lanes(); ++g) {
        Rng stream_rng = parent.split();
        lanes.push_back(std::make_unique<StreamingVbrSource>(
            params, variant, model::GeneratorBackend::kHosking, tuning, stream_rng));
      }
      return lanes;
    };
    const auto lanes = make_lanes();
    const auto solo = make_lanes();
    std::vector<StreamingVbrSource*> ptrs;
    std::vector<std::vector<double>> got(lanes.size());
    std::vector<std::vector<double>*> dst;
    for (std::size_t g = 0; g < lanes.size(); ++g) {
      ptrs.push_back(lanes[g].get());
      dst.push_back(&got[g]);
    }
    std::vector<double> window;
    StreamingVbrSource::next_block_lanes(ptrs, 50, dst, window);  // warm-up, crossing the horizon
    StreamingVbrSource::next_block_lanes(ptrs, 50, dst, window);
    for (std::size_t g = 0; g < lanes.size(); ++g) {
      expect_bit_equal(got[g], drain(*solo[g], 100, 7));
    }
  }
  // Only Hosking cores have a lockstep kernel; a lone lane of any other
  // stream runs its own next_block.
  for (const auto backend :
       {model::GeneratorBackend::kPaxson, model::GeneratorBackend::kAggregatedOnOff}) {
    Rng parent(4);
    Rng twin(4);
    StreamingVbrSource a(params, model::ModelVariant::kFull, backend, tuning, parent);
    StreamingVbrSource b(params, model::ModelVariant::kFull, backend, tuning, parent);
    StreamingVbrSource a_solo(params, model::ModelVariant::kFull, backend, tuning, twin);
    EXPECT_FALSE(a.lockstep_compatible(b));
    StreamingVbrSource* const lane[] = {&a};
    std::vector<double> got;
    std::vector<double>* const dst[] = {&got};
    std::vector<double> window;
    StreamingVbrSource::next_block_lanes(lane, 30, dst, window);
    expect_bit_equal(got, drain(a_solo, 30, 30));
  }
  Rng parent(4);
  StreamingVbrSource a(params, model::ModelVariant::kIidGammaPareto,
                       model::GeneratorBackend::kHosking, tuning, parent);
  StreamingVbrSource b(params, model::ModelVariant::kIidGammaPareto,
                       model::GeneratorBackend::kHosking, tuning, parent);
  EXPECT_FALSE(a.lockstep_compatible(b));
}

// ---------------------------------------------------------------------------
// TrafficService.

ServiceConfig small_service_config() {
  ServiceConfig config;
  config.num_streams = 8;
  config.seed = 1994;
  config.params = paper_params();
  config.variant = model::ModelVariant::kGaussianFarima;
  config.backend = model::GeneratorBackend::kHosking;
  return config;
}

TEST(TrafficServiceTest, ResultsHashInvariantToThreadCount) {
  std::uint64_t reference = 0;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    auto config = small_service_config();
    config.threads = threads;
    TrafficService service(config);
    for (int r = 0; r < 8; ++r) service.advance_round(32);
    if (threads == 1) {
      reference = service.results_hash();
    } else {
      EXPECT_EQ(service.results_hash(), reference) << "threads = " << threads;
    }
  }
}

TEST(TrafficServiceTest, ResultsHashInvariantToBlockSize) {
  std::uint64_t reference = 0;
  bool first = true;
  for (const std::size_t block : {std::size_t{1}, std::size_t{16}, std::size_t{128}}) {
    TrafficService service(small_service_config());
    for (std::size_t served = 0; served < 128; served += block) service.advance_round(block);
    EXPECT_EQ(service.total_samples(), 128u * 8u);
    if (first) {
      reference = service.results_hash();
      first = false;
    } else {
      EXPECT_EQ(service.results_hash(), reference) << "block = " << block;
    }
  }
}

TEST(TrafficServiceTest, ResultsHashInvariantToPauseScheduling) {
  // The hash depends only on what each stream emitted, never on how rounds
  // interleaved the work: a run that pauses stream 2 mid-way and lets it
  // catch up alone afterwards must land on the uninterrupted run's hash.
  TrafficService plain(small_service_config());
  for (int r = 0; r < 8; ++r) plain.advance_round(16);

  TrafficService staggered(small_service_config());
  for (int r = 0; r < 4; ++r) staggered.advance_round(16);
  staggered.pause(2);
  for (int r = 0; r < 4; ++r) staggered.advance_round(16);
  // Catch-up: only stream 2 active for the rounds it missed.
  for (std::size_t i = 0; i < 8; ++i) {
    if (i != 2) staggered.pause(i);
  }
  staggered.resume(2);
  for (int r = 0; r < 4; ++r) staggered.advance_round(16);
  EXPECT_EQ(staggered.results_hash(), plain.results_hash());
  EXPECT_EQ(staggered.stream_position(2), plain.stream_position(2));
}

TEST(TrafficServiceTest, LifecycleContractsRejectInvalidTransitions) {
  TrafficService service(small_service_config());
  service.advance_round(8);
  EXPECT_THROW(service.pause(99), Error);          // out of range
  EXPECT_THROW(service.resume(0), Error);          // active, not paused
  service.pause(0);
  EXPECT_THROW(service.pause(0), Error);           // already paused
  service.resume(0);
  service.retire(3);
  EXPECT_THROW(service.retire(3), Error);          // already retired
  EXPECT_THROW(service.resume(3), Error);          // retired is terminal
  EXPECT_THROW(service.stream_position(3), Error); // no state left to read
  EXPECT_EQ(service.active_streams(), 7u);
  service.advance_round(8);  // the fleet keeps serving around the hole
  EXPECT_EQ(service.status(3), StreamStatus::kRetired);
}

TEST(TrafficServiceTest, CheckpointRoundTripReproducesTheRunBitForBit) {
  namespace fs = std::filesystem;
  const fs::path path = fs::temp_directory_path() / "vbr_service_test.ckpt";
  auto config = small_service_config();
  config.queue_capacity_bytes_per_sec = 8.0e6;
  config.queue_buffer_bytes = 4.0e6;

  TrafficService interrupted(config);
  for (int r = 0; r < 3; ++r) interrupted.advance_round(32);
  save_service_checkpoint(path, interrupted);

  TrafficService resumed(config);
  load_service_checkpoint(path, resumed);
  EXPECT_EQ(resumed.rounds(), 3u);
  EXPECT_EQ(resumed.results_hash(), interrupted.results_hash());

  TrafficService uninterrupted(config);
  for (int r = 0; r < 8; ++r) uninterrupted.advance_round(32);
  for (int r = 0; r < 5; ++r) resumed.advance_round(32);
  EXPECT_EQ(resumed.results_hash(), uninterrupted.results_hash());
  EXPECT_EQ(resumed.total_samples(), uninterrupted.total_samples());
  // 0-ulp state carriers: Kahan totals and the queue continue identically.
  EXPECT_EQ(resumed.total_bytes(), uninterrupted.total_bytes());
  ASSERT_NE(resumed.queue(), nullptr);
  EXPECT_EQ(resumed.queue()->lost_bytes(), uninterrupted.queue()->lost_bytes());
  EXPECT_EQ(resumed.queue()->max_queue_bytes(), uninterrupted.queue()->max_queue_bytes());
  fs::remove(path);
}

TEST(TrafficServiceTest, CheckpointRestoresRetiredAndPausedStatuses) {
  namespace fs = std::filesystem;
  const fs::path path = fs::temp_directory_path() / "vbr_service_status.ckpt";
  TrafficService service(small_service_config());
  service.advance_round(16);
  service.pause(1);
  service.retire(5);
  service.advance_round(16);
  save_service_checkpoint(path, service);

  TrafficService resumed(small_service_config());
  resumed.retire(2);  // the checkpoint says stream 2 is live: it must come back
  load_service_checkpoint(path, resumed);
  EXPECT_EQ(resumed.status(1), StreamStatus::kPaused);
  EXPECT_EQ(resumed.status(2), StreamStatus::kActive);
  EXPECT_EQ(resumed.status(5), StreamStatus::kRetired);
  resumed.advance_round(16);
  service.advance_round(16);
  EXPECT_EQ(resumed.results_hash(), service.results_hash());
  fs::remove(path);
}

TEST(TrafficServiceTest, CheckpointRejectsHostileFiles) {
  namespace fs = std::filesystem;
  const fs::path path = fs::temp_directory_path() / "vbr_service_hostile.ckpt";
  TrafficService service(small_service_config());
  service.advance_round(16);
  save_service_checkpoint(path, service);

  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    bytes = buf.str();
  }
  const auto write_and_expect_reject = [&](const std::string& corrupt) {
    const fs::path bad = fs::temp_directory_path() / "vbr_service_hostile_bad.ckpt";
    std::ofstream out(bad, std::ios::binary | std::ios::trunc);
    out.write(corrupt.data(), static_cast<std::streamsize>(corrupt.size()));
    out.close();
    TrafficService victim(small_service_config());
    EXPECT_THROW(load_service_checkpoint(bad, victim), IoError);
    fs::remove(bad);
  };

  // Truncations at the envelope header, mid-payload, and one-byte-short.
  for (const std::size_t cut : {std::size_t{4}, bytes.size() / 2, bytes.size() - 1}) {
    write_and_expect_reject(bytes.substr(0, cut));
  }
  // Single bit flips anywhere must trip the CRC (or the magic check).
  for (const std::size_t pos : {std::size_t{0}, std::size_t{9}, bytes.size() / 2}) {
    std::string corrupt = bytes;
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ 0x10);
    write_and_expect_reject(corrupt);
  }
  // A valid envelope for a different config must be rejected by the
  // fingerprint, not half-applied.
  auto other_config = small_service_config();
  other_config.seed = 4242;
  TrafficService other(other_config);
  EXPECT_THROW(load_service_checkpoint(path, other), IoError);
  EXPECT_EQ(other.rounds(), 0u);
  fs::remove(path);
}

TEST(TrafficServiceTest, MultiChunkFleetHashIsPinned) {
  // A fleet spanning three scheduler chunks (the last one partial) with
  // paused, resumed and retired streams, served through warm-up and past
  // the Hosking horizon. The pin was recorded with the one-stream-at-a-time
  // generator, so any change in how advance_round groups streams must
  // reproduce it exactly.
  ServiceConfig config;
  config.num_streams = 2600;
  config.seed = 1994;
  config.params = paper_params();
  config.variant = model::ModelVariant::kFull;
  config.backend = model::GeneratorBackend::kHosking;
  config.threads = 2;
  TrafficService service(config);
  service.advance_round(5);
  for (const std::size_t s : {std::size_t{3}, std::size_t{1030}, std::size_t{2599}}) {
    service.pause(s);
  }
  service.retire(17);
  service.retire(1500);
  service.advance_round(40);
  service.resume(3);
  service.advance_round(30);
  service.resume(2599);
  service.advance_round(40);
  EXPECT_EQ(service.total_samples(), 5u * 2600u + 40u * 2595u + 30u * 2596u + 40u * 2597u);
  EXPECT_EQ(service.results_hash(), 0xf799f5378d51d784ULL);
}

TEST(TrafficServiceTest, LockstepRoundsBitEqualSingleStreamGeneration) {
  // Every stream's digest must equal the digest of the same stream driven
  // alone through next_block, whatever grouping advance_round chose: warm-up
  // groups, a partial last group and chunk (2061 = 2 * 1024 + 13), a retired
  // hole, pause/resume leaving one stream behind its group (width-1
  // fallback below the horizon, a lockstep lane past it), and a restored
  // fleet with those mixed positions. Horizon 128 exceeds the 81 samples
  // served, so that fleet never leaves the warm-up.
  namespace fs = std::filesystem;
  const fs::path path = fs::temp_directory_path() / "vbr_service_lockstep.ckpt";
  const auto params = paper_params();
  for (const std::size_t horizon :
       {std::size_t{1}, std::size_t{7}, std::size_t{64}, std::size_t{128}}) {
    std::uint64_t reference_hash = 0;
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
      SCOPED_TRACE("horizon " + std::to_string(horizon) + " threads " +
                   std::to_string(threads));
      ServiceConfig config;
      config.num_streams = 2061;
      config.seed = 31;
      config.params = params;
      config.variant = model::ModelVariant::kFull;
      config.tuning.hosking_horizon = horizon;
      config.threads = threads;
      std::vector<std::uint64_t> served(config.num_streams, 0);
      const auto round = [&](TrafficService& s, std::size_t block) {
        s.advance_round(block);
        for (std::size_t i = 0; i < served.size(); ++i) {
          served[i] += s.status(i) == StreamStatus::kActive ? block : 0;
        }
      };
      TrafficService service(config);
      round(service, 3);
      service.pause(2);
      service.pause(1029);
      service.retire(9);
      round(service, 4);
      service.resume(2);
      round(service, 5);
      save_service_checkpoint(path, service);
      TrafficService restored(config);
      load_service_checkpoint(path, restored);
      round(restored, 60);
      restored.resume(1029);
      round(restored, 9);

      Rng master(config.seed);
      for (std::size_t i = 0; i < config.num_streams; ++i) {
        Rng stream_rng = master.split();
        StreamingVbrSource solo(params, config.variant, config.backend, config.tuning,
                                stream_rng);
        Fnv1a h;
        h.update(std::span<const double>(drain(solo, served[i], 17)));
        ASSERT_EQ(restored.stream_digest(i), h.digest()) << "stream " << i;
      }
      if (threads == 1) {
        reference_hash = restored.results_hash();
      } else {
        EXPECT_EQ(restored.results_hash(), reference_hash);
      }
    }
  }
  fs::remove(path);
}

// ---------------------------------------------------------------------------
// The round scheduler: one dispatch per round, each chunk folded into its own
// partial, the partials merged in chunk order.

/// Quarantines the `doomed` streams when they reach sample `at` (emitting
/// the partial block up to it), so every block size quarantines them at the
/// same sample; every other stream generates normally.
class QuarantineAtSample final : public StreamGovernor {
 public:
  QuarantineAtSample(std::vector<std::size_t> doomed, std::uint64_t at)
      : doomed_(std::move(doomed)), at_(at) {}
  bool generate(std::size_t stream, StreamingSource& source, std::size_t block,
                std::vector<double>& out) override {
    if (std::find(doomed_.begin(), doomed_.end(), stream) == doomed_.end()) {
      source.next_block(block, out);
      return true;
    }
    source.next_block(std::min<std::uint64_t>(block, at_ - source.position()), out);
    return source.position() < at_;
  }

 private:
  std::vector<std::size_t> doomed_;
  std::uint64_t at_;
};

/// Throws from generate() for the streams in `throwing`, naming the stream,
/// and quarantines the streams in `quarantined` after a full block. Stream 0
/// is slow, so with several threads a later chunk throws before chunk 0 is
/// done.
class ThrowingGovernor final : public StreamGovernor {
 public:
  explicit ThrowingGovernor(std::vector<std::size_t> throwing,
                            std::vector<std::size_t> quarantined = {})
      : throwing_(std::move(throwing)), quarantined_(std::move(quarantined)) {}
  bool generate(std::size_t stream, StreamingSource& source, std::size_t block,
                std::vector<double>& out) override {
    if (stream == 0) std::this_thread::sleep_for(std::chrono::milliseconds(50));
    if (std::find(throwing_.begin(), throwing_.end(), stream) != throwing_.end()) {
      throw std::runtime_error("stream " + std::to_string(stream));
    }
    source.next_block(block, out);
    return std::find(quarantined_.begin(), quarantined_.end(), stream) == quarantined_.end();
  }

 private:
  std::vector<std::size_t> throwing_;
  std::vector<std::size_t> quarantined_;
};

/// Generates every stream normally and keeps each block it emits, by stream
/// and round, so a test can fold them again in stream order.
class RecordingGovernor final : public StreamGovernor {
 public:
  explicit RecordingGovernor(std::size_t streams) : blocks_(streams) {}
  bool generate(std::size_t stream, StreamingSource& source, std::size_t block,
                std::vector<double>& out) override {
    source.next_block(block, out);
    blocks_[stream].push_back(out);  // only this stream's call writes here
    return true;
  }
  const std::vector<double>& block(std::size_t stream, std::size_t round) const {
    return blocks_[stream][round];
  }

 private:
  std::vector<std::vector<std::vector<double>>> blocks_;  ///< [stream][round]
};

struct ScheduledRun {
  std::uint64_t results_hash = 0;
  std::string state;        ///< save_state bytes: sink, totals, queue, streams
  std::string queue_state;  ///< the fluid queue alone
};

/// The fleet's first and last streams and the streams on both sides of
/// every chunk boundary: chunks are 1024 streams at every thread count.
std::vector<std::size_t> chunk_boundary_streams(std::size_t n) {
  std::vector<std::size_t> edges = {0, n - 1};
  for (std::size_t b = 1024; b < n; b += 1024) {
    edges.push_back(b - 1);
    edges.push_back(b);
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  return edges;
}

/// Three 18-sample phases (18 divides every block tested). After the first,
/// streams on chunk boundaries are paused, retired or (governed) set to be
/// quarantined at sample 23, mid-phase; one paused stream resumes for the
/// last phase. Every lifecycle event lands on the same sample for any block.
ScheduledRun run_scheduled(std::size_t n, std::size_t threads, std::size_t block, bool governed) {
  ServiceConfig config;
  config.num_streams = n;
  config.seed = 1994;
  config.params = paper_params();
  config.variant = model::ModelVariant::kFull;
  config.tuning.hosking_horizon = 16;
  config.threads = threads;
  config.queue_capacity_bytes_per_sec = static_cast<double>(n) * 27791.0 * 24.0 / 0.9;
  config.queue_buffer_bytes = static_cast<double>(n) * 5000.0;

  const std::vector<std::size_t> edges = chunk_boundary_streams(n);
  std::vector<std::size_t> paused, retired, doomed;
  for (std::size_t k = 0; k < edges.size(); ++k) {
    (k % 3 == 0 ? paused : k % 3 == 1 ? retired : doomed).push_back(edges[k]);
  }
  QuarantineAtSample governor(governed ? doomed : std::vector<std::size_t>{}, 18 + 5);
  StreamGovernor* hook = governed ? &governor : nullptr;

  TrafficService service(config);
  const auto phase = [&] {
    for (std::size_t served = 0; served < 18; served += block) service.advance_round(block, hook);
  };
  phase();
  for (const std::size_t s : paused) service.pause(s);
  for (const std::size_t s : retired) service.retire(s);
  phase();
  service.resume(paused.front());
  phase();
  if (governed) {
    for (const std::size_t s : doomed) EXPECT_EQ(service.status(s), StreamStatus::kQuarantined);
  }

  ScheduledRun run;
  run.results_hash = service.results_hash();
  std::ostringstream state(std::ios::binary);
  service.save_state(state);
  run.state = state.str();
  std::ostringstream queue_state(std::ios::binary);
  service.queue()->save(queue_state);
  run.queue_state = queue_state.str();
  return run;
}

TEST(TrafficSchedulerTest, RoundsAreBitIdenticalForEveryFleetThreadAndBlock) {
  // The whole saved state — results hash, moments sink, Kahan totals, fluid
  // queue and every stream — must not depend on the thread count, hence on
  // how the fleet was chunked; the hash and the queue must not depend on
  // the block size either (the sink's push order does, by design).
  for (const bool governed : {false, true}) {
    for (const std::size_t n : {std::size_t{1}, std::size_t{7}, std::size_t{1023},
                                std::size_t{1024}, std::size_t{1025},
                                std::size_t{3 * 1024 + 5}}) {
      std::optional<ScheduledRun> first_block;
      for (const std::size_t block : {std::size_t{1}, std::size_t{2}, std::size_t{9}}) {
        std::optional<ScheduledRun> reference;
        for (const std::size_t threads :
             {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{4}, std::size_t{8}}) {
          SCOPED_TRACE((governed ? "governed" : "ungoverned") + std::string(" n ") +
                       std::to_string(n) + " block " + std::to_string(block) + " threads " +
                       std::to_string(threads));
          const ScheduledRun run = run_scheduled(n, threads, block, governed);
          if (!reference) {
            reference = run;
            continue;
          }
          EXPECT_EQ(run.results_hash, reference->results_hash);
          EXPECT_TRUE(run.state == reference->state);
        }
        if (!first_block) {
          first_block = reference;
          continue;
        }
        EXPECT_EQ(reference->results_hash, first_block->results_hash) << "block " << block;
        EXPECT_TRUE(reference->queue_state == first_block->queue_state) << "block " << block;
      }
    }
  }
}

TEST(TrafficSchedulerTest, MergedPartialsMatchAStreamOrderFold) {
  // The round folds each chunk on its own and merges the partials in chunk
  // order, so the totals are not the stream-order fold's bits; they must
  // stay within 1e-12 of it, for one chunk, a full chunk plus one stream and
  // a partial last chunk.
  constexpr std::size_t kRounds = 3;
  constexpr std::size_t kBlock = 6;
  const auto expect_close = [](double actual, double reference, const char* what) {
    EXPECT_NEAR(actual, reference, 1e-12 * std::abs(reference)) << what;
  };
  for (const std::size_t n : {std::size_t{1}, std::size_t{1023}, std::size_t{1025},
                              std::size_t{3 * 1024 + 5}}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      SCOPED_TRACE("n " + std::to_string(n) + " threads " + std::to_string(threads));
      ServiceConfig config;
      config.num_streams = n;
      config.seed = 1994;
      config.params = paper_params();
      config.threads = threads;
      config.queue_capacity_bytes_per_sec = static_cast<double>(n) * 27791.0 * 24.0 / 0.9;
      config.queue_buffer_bytes = static_cast<double>(n) * 5000.0;
      TrafficService service(config);
      RecordingGovernor governor(n);
      for (std::size_t r = 0; r < kRounds; ++r) service.advance_round(kBlock, &governor);

      // The reference: samples, byte total and per-frame aggregates folded
      // in stream order.
      stream::StreamingMoments moments;
      KahanSum bytes;
      double arrived = 0.0;
      for (std::size_t r = 0; r < kRounds; ++r) {
        std::vector<KahanSum> aggregate(kBlock);
        for (std::size_t i = 0; i < n; ++i) {
          const std::vector<double>& samples = governor.block(i, r);
          moments.push(samples);
          for (std::size_t j = 0; j < samples.size(); ++j) {
            bytes.add(samples[j]);
            aggregate[j].add(samples[j]);
          }
        }
        for (const KahanSum& frame : aggregate) arrived += frame.value();
      }
      EXPECT_EQ(service.moments().count(), moments.count());
      EXPECT_EQ(service.total_samples(), moments.count());
      expect_close(service.moments().mean(), moments.mean(), "mean");
      expect_close(service.moments().variance(), moments.variance(), "variance");
      EXPECT_EQ(service.moments().min(), moments.min());
      EXPECT_EQ(service.moments().max(), moments.max());
      expect_close(service.total_bytes(), bytes.value(), "total bytes");
      expect_close(service.queue()->arrived_bytes(), arrived, "arrived bytes");
    }
  }
}

TEST(TrafficSchedulerTest, AThrowingStreamFailsTheRoundWithoutHanging) {
  // 4100 streams are four full 1024-stream chunks and a partial one of 4. A
  // throwing stream must surface from advance_round, and with two throwers
  // the lower stream's exception wins whatever the thread count. The failed
  // round leaves one state: exactly the chunks before the lowest failing one
  // merged, even when a higher chunk threw first, so a quarantine verdict in
  // an unmerged chunk never lands.
  struct FailingRound {
    std::vector<std::size_t> throwing;
    std::vector<std::size_t> quarantined;
    const char* expected;
    std::size_t merged_chunks;
  };
  const FailingRound cases[] = {
      {{3000}, {}, "stream 3000", 2},
      {{4099, 1500}, {}, "stream 1500", 1},
      {{5}, {}, "stream 5", 0},        // chunk 0
      {{4099}, {}, "stream 4099", 4},  // the last, partial chunk
      {{1500}, {200, 3500}, "stream 1500", 1},
  };
  ServiceConfig config = small_service_config();
  config.num_streams = 4100;
  for (const FailingRound& round : cases) {
    std::optional<std::string> reference;
    for (const std::size_t threads :
         {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{4}, std::size_t{8}}) {
      SCOPED_TRACE(std::string(round.expected) + " threads " + std::to_string(threads));
      config.threads = threads;
      TrafficService service(config);
      service.advance_round(4);
      ThrowingGovernor governor(round.throwing, round.quarantined);
      try {
        service.advance_round(4, &governor);
        ADD_FAILURE() << "advance_round did not rethrow";
      } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), round.expected);
      }
      EXPECT_EQ(service.total_samples(), (4100 + round.merged_chunks * 1024) * 4);
      for (const std::size_t s : round.quarantined) {
        EXPECT_EQ(service.status(s), s < round.merged_chunks * 1024 ? StreamStatus::kQuarantined
                                                                    : StreamStatus::kActive)
            << "stream " << s;
      }
      std::ostringstream state(std::ios::binary);
      service.save_state(state);
      if (!reference) reference = state.str();
      EXPECT_TRUE(state.str() == *reference);
    }
  }
}

TEST(TrafficSchedulerTest, Crc32CombineMatchesTheCrcOfTheWhole) {
  // A save checksums each chunk's piece on its own worker and combines the
  // CRCs in chunk order; that must equal the CRC of the concatenation for
  // any split, empty pieces included.
  Rng rng(1994);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t size = rng.uniform_index(trial < 100 ? 64 : 5000);
    std::string whole(size, '\0');
    for (char& c : whole) c = static_cast<char>(rng.uniform_index(256));
    std::vector<std::size_t> cuts = {0, size};
    for (std::size_t k = rng.uniform_index(5); k > 0; --k) {
      cuts.push_back(rng.uniform_index(size + 1));
    }
    std::sort(cuts.begin(), cuts.end());
    std::uint32_t combined = crc32(nullptr, 0);
    for (std::size_t k = 0; k + 1 < cuts.size(); ++k) {
      const std::size_t piece = cuts[k + 1] - cuts[k];
      combined = crc32_combine(combined, crc32(whole.data() + cuts[k], piece), piece);
    }
    EXPECT_EQ(combined, crc32(whole.data(), whole.size())) << "trial " << trial;
  }
  EXPECT_EQ(crc32_combine(0x12345678u, crc32(nullptr, 0), 0), 0x12345678u);
}

std::string read_bytes(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

TEST(TrafficSchedulerTest, MultiChunkCheckpointIsPinnedAtEveryThreadCount) {
  // Three full 1024-stream chunks and a partial one of 5, with a paused, a
  // retired and a governor-quarantined stream in different chunks: the
  // checkpoint is saved a chunk per worker, so its bytes — and the CRC the
  // save returns — must not depend on the thread count. The pin was
  // recorded with the one-buffer save.
  namespace fs = std::filesystem;
  const fs::path path = fs::temp_directory_path() / "vbr_service_multichunk_pin.ckpt";
  constexpr std::size_t kStreams = 3 * 1024 + 5;
  std::optional<std::string> reference;
  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{4}}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    ServiceConfig config;
    config.num_streams = kStreams;
    config.seed = 1994;
    config.params = paper_params();
    config.tuning.hosking_horizon = 16;
    config.threads = threads;
    config.queue_capacity_bytes_per_sec = kStreams * 27791.0 * 24.0 / 0.9;
    config.queue_buffer_bytes = kStreams * 5000.0;
    TrafficService service(config);
    QuarantineAtSample governor({2050}, 20);
    service.advance_round(9, &governor);
    service.pause(1023);
    service.retire(3076);
    service.advance_round(9, &governor);
    service.advance_round(9, &governor);
    ASSERT_EQ(service.status(2050), StreamStatus::kQuarantined);

    save_service_checkpoint(path.string(), service);
    const std::string bytes = read_bytes(path);
    Fnv1a h;
    h.update(bytes.data(), bytes.size());
    EXPECT_EQ(h.digest(), 0xe918708d4ba79222ULL) << std::hex << h.digest();
    if (!reference) reference = bytes;
    EXPECT_TRUE(bytes == *reference);

    // save_state writes the payload up to the governor flag and returns the
    // CRC-32 of exactly what it wrote.
    std::ostringstream state(std::ios::binary);
    const std::uint32_t crc = service.save_state(state);
    const std::string written = state.str();
    EXPECT_EQ(crc, crc32(written.data(), written.size()));
    EXPECT_TRUE(written == bytes.substr(run::kEnvelopeHeaderBytes, written.size()));
    EXPECT_EQ(bytes.size(), run::kEnvelopeHeaderBytes + written.size() + 1);  // + flag
  }
  fs::remove(path);
}

TEST(FluidQueueStateTest, SaveRestoreRoundTripsAtZeroUlp) {
  net::FluidQueue queue(8.0e6, 4.0e6);
  Rng rng(17);
  for (int i = 0; i < 500; ++i) {
    queue.offer(std::max(0.0, 6.0e6 + 4.0e6 * rng.normal()), 1.0 / 24.0);
  }
  std::ostringstream state(std::ios::binary);
  queue.save(state);

  net::FluidQueue restored(8.0e6, 4.0e6);
  std::istringstream in(state.str(), std::ios::binary);
  restored.restore(in);
  EXPECT_EQ(restored.queue_bytes(), queue.queue_bytes());
  EXPECT_EQ(restored.lost_bytes(), queue.lost_bytes());
  EXPECT_EQ(restored.arrived_bytes(), queue.arrived_bytes());
  EXPECT_EQ(restored.max_queue_bytes(), queue.max_queue_bytes());
  // Both continue identically from the restored state.
  net::FluidQueue copy = queue;
  for (int i = 0; i < 100; ++i) {
    restored.offer(7.0e6, 1.0 / 24.0);
    copy.offer(7.0e6, 1.0 / 24.0);
  }
  EXPECT_EQ(restored.lost_bytes(), copy.lost_bytes());
  EXPECT_EQ(restored.queue_bytes(), copy.queue_bytes());

  net::FluidQueue mismatched(9.0e6, 4.0e6);
  std::istringstream again(state.str(), std::ios::binary);
  EXPECT_THROW(mismatched.restore(again), IoError);
}

}  // namespace
}  // namespace vbr::service
