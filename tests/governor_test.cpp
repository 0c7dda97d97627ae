// Tests for the overload governor (src/vbr/service/governor): budgeted
// admission at the exact boundary, per-stream fault isolation with the
// engine's retry/quarantine semantics (bit-identity across thread counts
// and block slicings under a fixed seeded schedule), the deterministic
// degradation ladder, and checkpoint/resume mid-degradation at 0 ulp.
#include "vbr/service/governor.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "vbr/common/error.hpp"
#include "vbr/model/vbr_source.hpp"
#include "vbr/service/service_checkpoint.hpp"
#include "vbr/service/traffic_service.hpp"

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

ServiceConfig small_config(std::size_t streams = 16, std::size_t threads = 1) {
  ServiceConfig config;
  config.num_streams = streams;
  config.seed = 1994;
  config.params = paper_params();
  config.variant = model::ModelVariant::kGaussianFarima;
  config.backend = model::GeneratorBackend::kHosking;
  config.threads = threads;
  return config;
}

/// Drive `total` governed samples in `block`-sized calls.
void advance_total(OverloadGovernor& governor, std::uint64_t total, std::size_t block) {
  std::uint64_t done = 0;
  while (done < total) {
    const std::size_t step = static_cast<std::size_t>(std::min<std::uint64_t>(block, total - done));
    governor.advance_round(step);
    done += step;
  }
}

// ---------------------------------------------------------------------------
// Admission.

TEST(AdmissionTest, AcceptsExactlyAtTheMemoryBudgetAndRejectsOneByteUnder) {
  const ServiceConfig config = small_config(64);
  const std::uint64_t per_stream = stream_state_bytes(config.backend, config.tuning);
  ASSERT_GT(per_stream, 0u);

  ResourceBudget budget;
  budget.memory_bytes = 64 * per_stream;  // exactly the projected fleet
  const AdmissionDecision at_budget = admit_fleet(config, budget);
  EXPECT_TRUE(at_budget.admitted());
  EXPECT_EQ(at_budget.outcome, AdmissionOutcome::kAdmitted);
  EXPECT_EQ(at_budget.projected_memory_bytes, budget.memory_bytes);

  budget.memory_bytes = 64 * per_stream - 1;  // one byte short
  const AdmissionDecision over = admit_fleet(config, budget);
  EXPECT_FALSE(over.admitted());
  EXPECT_EQ(over.outcome, AdmissionOutcome::kRejectedMemory);
  EXPECT_EQ(over.requested_streams, 64u);
  EXPECT_EQ(over.memory_budget_bytes, budget.memory_bytes);
  EXPECT_NE(over.reason.find("memory budget"), std::string::npos);
}

TEST(AdmissionTest, RejectsOnCpuBudget) {
  ServiceConfig config = small_config(24);
  config.frame_seconds = 1.0;  // 24 streams -> 24 samples/s
  ResourceBudget budget;
  budget.cpu_samples_per_second = 24.0;
  EXPECT_TRUE(admit_fleet(config, budget).admitted());
  budget.cpu_samples_per_second = 23.0;
  const AdmissionDecision rejected = admit_fleet(config, budget);
  EXPECT_EQ(rejected.outcome, AdmissionOutcome::kRejectedCpu);
}

TEST(AdmissionTest, HoskingCostModelMatchesTheBenchCalibration) {
  // ~0.85 KiB/stream at the default horizon 64 (bench_service at 10^6
  // streams measured 843 MiB); the model must stay on that calibration.
  const std::uint64_t bytes =
      stream_state_bytes(model::GeneratorBackend::kHosking, StreamingTuning{});
  EXPECT_GE(bytes, 800u);
  EXPECT_LE(bytes, 1024u);
}

TEST(AdmissionTest, DaviesHarteHasNoStreamingCostModel) {
  EXPECT_THROW(stream_state_bytes(model::GeneratorBackend::kDaviesHarte, StreamingTuning{}),
               InvalidArgument);
}

// ---------------------------------------------------------------------------
// Fault isolation.

TEST(FaultIsolationTest, ExactlyKFailuresAndHealthyStreamsBitIdentical) {
  constexpr std::size_t kStreams = 16;
  constexpr std::uint64_t kSamples = 96;

  // Fault-free reference fleet.
  TrafficService reference(small_config(kStreams));
  reference.advance_round(static_cast<std::size_t>(kSamples));

  // Same fleet with k = 2 seeded faults: a permanent one in stream 3 and a
  // transient one in stream 7 that outlives the retry budget.
  TrafficService service(small_config(kStreams));
  GovernorConfig gov_config;
  gov_config.policy.max_attempts = 2;
  gov_config.stream_faults = {
      {3, 40, run::FaultKind::kPermanent, 1},
      {7, 17, run::FaultKind::kTransient, 2},  // fires twice = both attempts
  };
  OverloadGovernor governor(service, gov_config);
  advance_total(governor, kSamples, 32);

  const std::vector<StreamFailure> failures = governor.failures();
  ASSERT_EQ(failures.size(), 2u);
  EXPECT_EQ(governor.quarantined_streams(), 2u);

  EXPECT_EQ(failures[0].stream, 3u);
  EXPECT_FALSE(failures[0].transient);
  EXPECT_EQ(failures[0].position, 40u);
  EXPECT_EQ(failures[0].attempts, 1u);

  EXPECT_EQ(failures[1].stream, 7u);
  EXPECT_TRUE(failures[1].transient);
  EXPECT_EQ(failures[1].position, 17u);
  EXPECT_EQ(failures[1].attempts, 2u);

  EXPECT_EQ(service.status(3), StreamStatus::kQuarantined);
  EXPECT_EQ(service.status(7), StreamStatus::kQuarantined);
  // Quarantined streams froze at exactly the fault position...
  EXPECT_EQ(service.stream_position(3), 40u);
  EXPECT_EQ(service.stream_position(7), 17u);
  // ...and every healthy stream is bit-identical to the fault-free run.
  for (std::size_t i = 0; i < kStreams; ++i) {
    if (i == 3 || i == 7) continue;
    EXPECT_EQ(service.status(i), StreamStatus::kActive);
    EXPECT_EQ(service.stream_digest(i), reference.stream_digest(i)) << "stream " << i;
    EXPECT_EQ(service.stream_position(i), kSamples);
  }
}

TEST(FaultIsolationTest, AbsorbedTransientFaultIsBitIdenticalToFaultFree) {
  constexpr std::size_t kStreams = 8;
  constexpr std::uint64_t kSamples = 64;

  TrafficService reference(small_config(kStreams));
  reference.advance_round(static_cast<std::size_t>(kSamples));

  TrafficService service(small_config(kStreams));
  GovernorConfig gov_config;
  gov_config.policy.max_attempts = 3;
  gov_config.stream_faults = {{5, 20, run::FaultKind::kTransient, 2}};  // 2 < 3 attempts
  OverloadGovernor governor(service, gov_config);
  advance_total(governor, kSamples, 16);

  EXPECT_TRUE(governor.failures().empty());
  EXPECT_EQ(governor.transient_retries(), 2u);
  EXPECT_EQ(service.status(5), StreamStatus::kActive);
  // The retried stream re-emitted exactly the samples the failed attempts
  // produced: the whole fleet hash equals the fault-free run.
  EXPECT_EQ(service.results_hash(), reference.results_hash());
}

TEST(FaultIsolationTest, HashInvariantToThreadCountAndBlockSizeUnderFaults) {
  constexpr std::size_t kStreams = 32;
  constexpr std::uint64_t kSamples = 72;
  const std::vector<ScheduledStreamFault> faults = {
      {2, 11, run::FaultKind::kPermanent, 1},
      {9, 30, run::FaultKind::kTransient, 5},   // exhausts any small budget
      {21, 50, run::FaultKind::kTransient, 1},  // absorbed
  };

  std::uint64_t expected_hash = 0;
  bool first = true;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    for (const std::size_t block : {std::size_t{1}, std::size_t{9}, std::size_t{72}}) {
      TrafficService service(small_config(kStreams, threads));
      GovernorConfig gov_config;
      gov_config.policy.max_attempts = 3;
      gov_config.stream_faults = faults;
      gov_config.pressure_schedule = {{24, 1}, {48, 2}, {60, 0}};
      OverloadGovernor governor(service, gov_config);
      advance_total(governor, kSamples, block);
      ASSERT_EQ(governor.failures().size(), 2u) << "threads " << threads << " block " << block;
      if (first) {
        expected_hash = service.results_hash();
        first = false;
      } else {
        EXPECT_EQ(service.results_hash(), expected_hash)
            << "threads " << threads << " block " << block;
      }
    }
  }
}

TEST(FaultIsolationTest, SnapshotEveryRoundKeepsTheFleetBitIdentical) {
  // Paranoid mode serializes every stream before every generation; it must
  // never change what a healthy fleet emits.
  constexpr std::size_t kStreams = 8;
  TrafficService reference(small_config(kStreams));
  reference.advance_round(48);

  TrafficService service(small_config(kStreams));
  GovernorConfig gov_config;
  gov_config.snapshot_every_round = true;
  OverloadGovernor governor(service, gov_config);
  advance_total(governor, 48, 16);
  EXPECT_EQ(service.results_hash(), reference.results_hash());
}

TEST(FaultIsolationTest, RejectsBadStreamsAndSchedules) {
  TrafficService service(small_config(4));
  GovernorConfig bad_stream;
  bad_stream.stream_faults = {{4, 0, run::FaultKind::kTransient, 1}};
  EXPECT_THROW(OverloadGovernor(service, bad_stream), InvalidArgument);
  GovernorConfig bad_schedule;
  bad_schedule.pressure_schedule = {{8, 1}, {8, 2}};
  EXPECT_THROW(OverloadGovernor(service, bad_schedule), InvalidArgument);
}

// ---------------------------------------------------------------------------
// Degradation ladder.

TEST(DegradationTest, LadderAppliesAndReleasesInOrder) {
  constexpr std::size_t kStreams = 16;
  TrafficService service(small_config(kStreams));
  GovernorConfig gov_config;
  gov_config.shed_fraction = 0.25;
  gov_config.degraded_block = 4;
  gov_config.pressure_schedule = {{8, 1}, {16, 2}, {24, 3}, {32, 0}};
  OverloadGovernor governor(service, gov_config);

  governor.advance_round(8);
  EXPECT_EQ(governor.level(), 1);
  // Level 1: shed the lowest-priority quarter — the 4 highest indices.
  EXPECT_EQ(governor.shed_streams(), 4u);
  for (std::size_t i = 12; i < 16; ++i) EXPECT_EQ(service.status(i), StreamStatus::kPaused);
  EXPECT_EQ(service.active_streams(), 12u);
  EXPECT_FALSE(governor.checkpoint_requested());

  governor.advance_round(8);
  EXPECT_EQ(governor.level(), 2);
  EXPECT_EQ(governor.shed_streams(), 4u);

  governor.advance_round(8);
  EXPECT_EQ(governor.level(), 3);
  EXPECT_TRUE(governor.checkpoint_requested());

  governor.advance_round(8);
  EXPECT_EQ(governor.level(), 0);
  EXPECT_EQ(governor.shed_streams(), 0u);
  EXPECT_EQ(service.active_streams(), kStreams);

  // One more round past recovery: shed streams resumed exactly where they
  // froze (paused over [8, 32) — 24 samples behind the full-speed fleet).
  governor.advance_round(8);
  EXPECT_EQ(service.stream_position(0), 40u);
  EXPECT_EQ(service.stream_position(15), 16u);
}

TEST(DegradationTest, ShedStreamsFreezeAtExactEpochsForAnyBlockSlicing) {
  constexpr std::size_t kStreams = 12;
  constexpr std::uint64_t kSamples = 60;
  std::uint64_t expected = 0;
  bool first = true;
  for (const std::size_t block : {std::size_t{1}, std::size_t{7}, std::size_t{60}}) {
    TrafficService service(small_config(kStreams));
    GovernorConfig gov_config;
    gov_config.shed_fraction = 0.5;
    gov_config.pressure_schedule = {{13, 1}, {41, 0}};
    OverloadGovernor governor(service, gov_config);
    advance_total(governor, kSamples, block);
    // Full-speed streams hold 60 samples; shed ones lost exactly the
    // [13, 41) pressure window.
    EXPECT_EQ(service.stream_position(0), 60u);
    EXPECT_EQ(service.stream_position(kStreams - 1), 32u);
    if (first) {
      expected = service.results_hash();
      first = false;
    } else {
      EXPECT_EQ(service.results_hash(), expected) << "block " << block;
    }
  }
}

TEST(DegradationTest, ProbeDrivenLadderFollowsTheProbe) {
  TrafficService service(small_config(8));
  int wanted = 0;
  GovernorConfig gov_config;
  gov_config.shed_fraction = 0.25;
  gov_config.pressure_probe = [&wanted]() { return wanted; };
  OverloadGovernor governor(service, gov_config);
  governor.advance_round(8);
  EXPECT_EQ(governor.level(), 0);
  wanted = 2;
  governor.advance_round(8);
  EXPECT_EQ(governor.level(), 2);
  EXPECT_EQ(governor.shed_streams(), 2u);
  wanted = 0;
  governor.advance_round(8);
  EXPECT_EQ(governor.level(), 0);
  EXPECT_EQ(governor.shed_streams(), 0u);
}

// ---------------------------------------------------------------------------
// Checkpoint / resume mid-degradation.

TEST(GovernorCheckpointTest, ResumeMidDegradationIsBitIdentical) {
  constexpr std::size_t kStreams = 16;
  const auto make_governor_config = [] {
    GovernorConfig gov_config;
    gov_config.policy.max_attempts = 2;
    gov_config.shed_fraction = 0.25;
    gov_config.stream_faults = {{5, 26, run::FaultKind::kPermanent, 1},
                                {11, 44, run::FaultKind::kTransient, 2}};
    gov_config.pressure_schedule = {{16, 1}, {32, 2}, {56, 0}};
    return gov_config;
  };

  // Uninterrupted run.
  TrafficService reference(small_config(kStreams));
  OverloadGovernor reference_governor(reference, make_governor_config());
  advance_total(reference_governor, 80, 10);

  // Interrupted run: checkpoint at sample 40 (mid level 2, one stream
  // already quarantined), restore into a fresh pair, finish.
  const std::string path =
      (std::filesystem::temp_directory_path() / "governor_ckpt_test.bin").string();
  {
    TrafficService service(small_config(kStreams));
    OverloadGovernor governor(service, make_governor_config());
    advance_total(governor, 40, 10);
    EXPECT_EQ(governor.level(), 2);
    EXPECT_EQ(governor.quarantined_streams(), 1u);
    save_service_checkpoint(path, service, &governor);
  }
  TrafficService resumed(small_config(kStreams));
  OverloadGovernor resumed_governor(resumed, make_governor_config());
  load_service_checkpoint(path, resumed, &resumed_governor);
  EXPECT_EQ(resumed_governor.level(), 2);
  EXPECT_EQ(resumed_governor.epoch(), 40u);
  EXPECT_EQ(resumed_governor.quarantined_streams(), 1u);
  advance_total(resumed_governor, 40, 10);

  EXPECT_EQ(resumed.results_hash(), reference.results_hash());
  EXPECT_EQ(resumed.rounds(), reference.rounds());
  EXPECT_EQ(resumed.total_samples(), reference.total_samples());
  // 0 ulp: the Kahan total's bit pattern survives the round trip.
  EXPECT_EQ(std::bit_cast<std::uint64_t>(resumed.total_bytes()),
            std::bit_cast<std::uint64_t>(reference.total_bytes()));
  ASSERT_EQ(resumed_governor.failures().size(), reference_governor.failures().size());
  EXPECT_EQ(resumed_governor.transient_retries(), reference_governor.transient_retries());
  std::filesystem::remove(path);
}

TEST(GovernorCheckpointTest, RejectsACheckpointFromADifferentGovernorConfig) {
  TrafficService service(small_config(8));
  GovernorConfig gov_config;
  gov_config.stream_faults = {{2, 10, run::FaultKind::kTransient, 1}};
  OverloadGovernor governor(service, gov_config);
  governor.advance_round(4);
  std::ostringstream out(std::ios::binary);
  governor.save_state(out);

  GovernorConfig other = gov_config;
  other.stream_faults[0].at_sample = 11;
  TrafficService other_service(small_config(8));
  OverloadGovernor other_governor(other_service, other);
  std::istringstream in(out.str(), std::ios::binary);
  EXPECT_THROW(other_governor.restore_state(in), IoError);
}

TEST(GovernorCheckpointTest, GovernedAndUngovernedCheckpointsDoNotMix) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "governor_mix_test.bin").string();
  TrafficService service(small_config(4));
  service.advance_round(8);
  save_service_checkpoint(path, service);  // ungoverned

  TrafficService governed(small_config(4));
  OverloadGovernor governor(governed, GovernorConfig{});
  EXPECT_THROW(load_service_checkpoint(path, governed, &governor), IoError);

  save_service_checkpoint(path, service, &governor);  // governed
  TrafficService plain(small_config(4));
  EXPECT_THROW(load_service_checkpoint(path, plain), IoError);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace vbr::service
