// bench_service: throughput and memory footprint of the streaming traffic
// service (src/vbr/service), emitted as JSON for dashboards/CI.
//
// Three questions, one driver:
//   1. Build rate — how fast can the service stand up N per-stream states
//      (streams/sec)? This bounds cold-start for a million-stream fleet.
//   2. Serve rate — steady-state samples/sec of advance_round() for each
//      thread count, with the FNV-1a results hash doubling as the
//      determinism witness (all thread counts must agree bit-for-bit).
//   3. Footprint — peak RSS, normalized to MiB per 10^6 streams so runs at
//      different scales land on one comparable number.
// A kernel-only row times the Hosking core alone (no marginal, fold or
// hash) at block 128 on one thread: one lockstep group of lockstep_lanes()
// streams against the same streams one at a time through next_block.
// A final save/load round-trip times the VBRSRVC1 checkpoint path and
// verifies the restored service reproduces the same results hash, and an
// overload phase prices the governor: fault-isolation overhead, the
// shed's excess over a plain round, and streams served under a seeded
// pressure window (with the degraded-mode hash doubling as a determinism
// witness).
//
// Usage:
//   ./bench_service [streams] [samples_per_stream] [block] [thread_list]
// e.g. ./bench_service 65536 1024 256 1,2,4
#include <algorithm>
#include <chrono>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "bench_support.hpp"
#include "vbr/service/governor.hpp"
#include "vbr/service/service_checkpoint.hpp"
#include "vbr/service/streaming_hosking.hpp"
#include "vbr/service/traffic_service.hpp"

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

/// Resident-set figure from /proc/self/status in MiB; 0 if unreadable.
/// "VmHWM:" reads the process peak, "VmRSS:" the current footprint.
double rss_mib(const char* field) {
  std::ifstream status("/proc/self/status");
  const std::size_t field_len = std::strlen(field);
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(field, 0) == 0) {
      return std::strtod(line.c_str() + static_cast<std::ptrdiff_t>(field_len), nullptr) /
             1024.0;
    }
  }
  return 0.0;
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

void appendf(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  const int len = std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  if (len > 0) out.append(buf, std::min(static_cast<std::size_t>(len), sizeof buf - 1));
}

std::vector<std::size_t> parse_thread_list(const char* arg) {
  std::vector<std::size_t> threads;
  std::string token;
  for (const char* p = arg;; ++p) {
    if (*p == ',' || *p == '\0') {
      if (!token.empty()) threads.push_back(std::stoul(token));
      token.clear();
      if (*p == '\0') break;
    } else {
      token += *p;
    }
  }
  return threads;
}

struct KernelRow {
  double lockstep_ns_per_sample = 0.0;
  double single_lane_ns_per_sample = 0.0;
};

/// Median ns/sample of the Hosking core at block 128 on this thread, past
/// the horizon: one lockstep group, then the same streams at width 1.
KernelRow time_kernel(std::size_t horizon) {
  constexpr std::size_t kBlock = 128;
  constexpr std::size_t kRounds = 64;
  constexpr int kRepeats = 5;
  const std::size_t lanes = vbr::service::lockstep_lanes();
  vbr::Rng parent(1994);
  std::vector<std::unique_ptr<vbr::service::StreamingHosking>> streams;
  std::vector<vbr::service::StreamingHosking*> group;
  std::vector<std::vector<double>> outs(lanes);
  std::vector<std::vector<double>*> dst;
  for (std::size_t g = 0; g < lanes; ++g) {
    streams.push_back(std::make_unique<vbr::service::StreamingHosking>(
        vbr::model::HoskingOptions{.hurst = 0.8, .variance = 1.0}, horizon, parent));
    group.push_back(streams.back().get());
    dst.push_back(&outs[g]);
    streams.back()->next_block(horizon, outs[g]);
  }
  std::vector<double> window;
  const double samples = static_cast<double>(kRounds * lanes * kBlock);
  std::vector<double> lockstep_ns;
  std::vector<double> single_ns;
  for (int r = 0; r < kRepeats; ++r) {
    auto start = std::chrono::steady_clock::now();
    for (std::size_t round = 0; round < kRounds; ++round) {
      for (auto& out : outs) out.clear();
      vbr::service::StreamingHosking::next_block_lanes(group, kBlock, dst, window);
    }
    lockstep_ns.push_back(seconds_since(start) * 1e9 / samples);
    start = std::chrono::steady_clock::now();
    for (std::size_t round = 0; round < kRounds; ++round) {
      for (std::size_t g = 0; g < lanes; ++g) {
        outs[g].clear();
        streams[g]->next_block(kBlock, outs[g]);
      }
    }
    single_ns.push_back(seconds_since(start) * 1e9 / samples);
  }
  return {median(lockstep_ns), median(single_ns)};
}

}  // namespace

int main(int argc, char** argv) {
  vbr::service::ServiceConfig config;
  config.num_streams = (argc > 1) ? std::stoul(argv[1]) : 65536;
  config.seed = 1994;
  config.variant = vbr::model::ModelVariant::kGaussianFarima;
  config.backend = vbr::model::GeneratorBackend::kHosking;
  config.params.hurst = 0.8;
  config.params.marginal.mu_gamma = 27791.0;
  config.params.marginal.sigma_gamma = 6254.0;
  config.params.marginal.tail_slope = 12.0;

  const std::size_t samples_per_stream = (argc > 2) ? std::stoul(argv[2]) : 1024;
  const std::size_t block = (argc > 3) ? std::stoul(argv[3]) : 256;
  const std::vector<std::size_t> thread_counts =
      (argc > 4) ? parse_thread_list(argv[4]) : std::vector<std::size_t>{1, 2, 4};
  const std::size_t rounds = std::max<std::size_t>(1, samples_per_stream / block);

  std::string json;
  appendf(json, "{\n");
  appendf(json, "  \"benchmark\": \"service\",\n");
  appendf(json, "  \"streams\": %zu,\n", config.num_streams);
  appendf(json, "  \"samples_per_stream\": %zu,\n", rounds * block);
  appendf(json, "  \"block\": %zu,\n", block);
  appendf(json, "  \"backend\": \"hosking\",\n");
  appendf(json, "  \"hosking_horizon\": %zu,\n", config.tuning.hosking_horizon);
  appendf(json, "  \"hardware_concurrency\": %u,\n", std::thread::hardware_concurrency());
  appendf(json, "  \"kernel_isa\": \"%s\",\n",
          vbr::kernel_isa_name(vbr::active_kernel_isa()));
  appendf(json, "  \"lockstep_lanes\": %zu,\n", vbr::service::lockstep_lanes());
  const KernelRow kernel = time_kernel(config.tuning.hosking_horizon);
  appendf(json,
          "  \"kernel\": {\"block\": 128, \"threads\": 1, \"lockstep_ns_per_sample\": %.2f, "
          "\"single_lane_ns_per_sample\": %.2f},\n",
          kernel.lockstep_ns_per_sample, kernel.single_lane_ns_per_sample);
  appendf(json, "  \"contracts\": \"%s\",\n", vbrbench::contracts_state());
  appendf(json, "  \"results\": [\n");

  double baseline_sps = 0.0;
  std::uint64_t baseline_hash = 0;
  bool bit_identical = true;
  double build_seconds_first = 0.0;
  double serve_rss = 0.0;
  for (std::size_t i = 0; i < thread_counts.size(); ++i) {
    config.threads = thread_counts[i];
    const auto build_start = std::chrono::steady_clock::now();
    vbr::service::TrafficService service(config);
    const double build_seconds = seconds_since(build_start);
    if (i == 0) build_seconds_first = build_seconds;

    const auto serve_start = std::chrono::steady_clock::now();
    for (std::size_t r = 0; r < rounds; ++r) service.advance_round(block);
    const double serve_seconds = seconds_since(serve_start);
    // Footprint while exactly one fleet is live and serving — the number
    // the bounded-memory contract is about. The later checkpoint phase
    // legitimately holds two services plus payload buffers, so the process
    // peak (reported separately) is not the per-stream figure.
    if (i == 0) serve_rss = rss_mib("VmRSS:");

    const std::uint64_t hash = service.results_hash();
    const double samples_per_second =
        serve_seconds > 0.0 ? static_cast<double>(service.total_samples()) / serve_seconds : 0.0;
    if (i == 0) {
      baseline_sps = samples_per_second;
      baseline_hash = hash;
    } else if (hash != baseline_hash) {
      bit_identical = false;
    }
    appendf(json,
            "    {\"threads\": %zu, \"build_seconds\": %.6f, "
            "\"streams_per_second_build\": %.1f, \"serve_seconds\": %.6f, "
            "\"samples_per_second\": %.1f, \"speedup_vs_first\": %.3f, "
            "\"results_hash\": \"%016llx\"}%s\n",
            thread_counts[i], build_seconds,
            build_seconds > 0.0 ? static_cast<double>(config.num_streams) / build_seconds : 0.0,
            serve_seconds, samples_per_second,
            baseline_sps > 0.0 ? samples_per_second / baseline_sps : 0.0,
            static_cast<unsigned long long>(hash),
            i + 1 < thread_counts.size() ? "," : "");
  }
  appendf(json, "  ],\n");

  // Checkpoint round-trip: time the VBRSRVC1 save and load on a fresh
  // service advanced to the same position, and require the restored hash to
  // match (the SIGKILL soak's correctness condition, timed here).
  const auto scratch = std::filesystem::temp_directory_path() / "bench_service.ckpt";
  config.threads = thread_counts.back();
  bool checkpoint_hash_match = false;
  double save_seconds = 0.0;
  double load_seconds = 0.0;
  {
    vbr::service::TrafficService service(config);
    for (std::size_t r = 0; r < rounds; ++r) service.advance_round(block);
    const auto save_start = std::chrono::steady_clock::now();
    vbr::service::save_service_checkpoint(scratch, service);
    save_seconds = seconds_since(save_start);

    vbr::service::TrafficService restored(config);
    const auto load_start = std::chrono::steady_clock::now();
    vbr::service::load_service_checkpoint(scratch, restored);
    load_seconds = seconds_since(load_start);
    checkpoint_hash_match = restored.results_hash() == service.results_hash() &&
                            service.results_hash() == baseline_hash;
  }
  std::error_code cleanup;
  std::filesystem::remove(scratch, cleanup);

  appendf(json,
          "  \"checkpoint\": {\"save_seconds\": %.6f, \"load_seconds\": %.6f, "
          "\"hash_match\": %s},\n",
          save_seconds, load_seconds, checkpoint_hash_match ? "true" : "false");

  // Overload phase: attach the governor and measure what resilience costs.
  //   - quarantine_overhead_fraction: the snapshot-every-round guard (full
  //     retry/quarantine protection on every block) vs the ungoverned loop.
  //   - shed_round_excess_seconds: wall time of the advance_round that
  //     crosses the level-1 pressure epoch and applies the shed, minus the
  //     median of the same-size rounds that cross no pressure epoch — the
  //     cost of the shed itself, not of the round's generation. The
  //     overload runs step in rounds of a sixteenth of the run (at most
  //     `block`) so that such rounds always exist.
  //   - streams_served_under_pressure: streams still serving once shed and
  //     quarantine have both been applied.
  // The seeded schedule (2 faults + a level-1 window) must yield exactly 2
  // StreamFailure records and a results hash invariant to thread count; the
  // bench exits nonzero otherwise, so a recorded artifact is itself a
  // determinism witness for the degraded mode.
  const std::uint64_t total_samples = static_cast<std::uint64_t>(rounds) * block;
  vbr::service::GovernorConfig overload;
  overload.policy.max_attempts = 3;
  overload.stream_faults = {
      {std::min<std::size_t>(1, config.num_streams - 1),
       std::max<std::uint64_t>(1, total_samples / 2), vbr::run::FaultKind::kPermanent, 1},
      {std::min<std::size_t>(3, config.num_streams - 1),
       std::max<std::uint64_t>(2, total_samples / 4), vbr::run::FaultKind::kTransient, 3},
  };
  overload.pressure_schedule = {{std::max<std::uint64_t>(3, total_samples / 3), 1},
                                {std::max<std::uint64_t>(4, 2 * total_samples / 3), 0}};
  const std::size_t expected_failures =
      overload.stream_faults[0].stream == overload.stream_faults[1].stream ? 1 : 2;

  struct OverloadRun {
    std::uint64_t hash = 0;
    std::size_t failures = 0;
    std::uint64_t retries = 0;
    double shed_round_excess_seconds = 0.0;
    std::size_t streams_under_pressure = 0;
  };
  const std::size_t overload_block =
      std::min<std::size_t>(block, std::max<std::uint64_t>(1, total_samples / 16));
  const auto run_overloaded = [&](std::size_t threads) {
    vbr::service::ServiceConfig c = config;
    c.threads = threads;
    vbr::service::TrafficService svc(c);
    vbr::service::OverloadGovernor governor(svc, overload);
    const std::uint64_t shed_epoch = overload.pressure_schedule.front().at_epoch;
    OverloadRun run;
    double shed_round_seconds = 0.0;
    std::vector<double> plain_round_seconds;  // full-size rounds crossing no epoch
    while (governor.epoch() < total_samples) {
      const std::uint64_t before = governor.epoch();
      const auto step = static_cast<std::size_t>(
          std::min<std::uint64_t>(overload_block, total_samples - before));
      const auto crosses = [&](std::uint64_t epoch) {
        return before < epoch && before + step >= epoch;
      };
      const bool crosses_any = std::any_of(
          overload.pressure_schedule.begin(), overload.pressure_schedule.end(),
          [&](const auto& event) { return crosses(event.at_epoch); });
      const auto round_start = std::chrono::steady_clock::now();
      governor.advance_round(step);
      const double round_seconds = seconds_since(round_start);
      if (crosses(shed_epoch)) {
        shed_round_seconds = round_seconds;
        run.streams_under_pressure =
            c.num_streams - governor.shed_streams() - governor.quarantined_streams();
      } else if (!crosses_any && step == overload_block) {
        plain_round_seconds.push_back(round_seconds);
      }
    }
    run.shed_round_excess_seconds =
        shed_round_seconds -
        (plain_round_seconds.empty() ? 0.0 : median(plain_round_seconds));
    run.hash = svc.results_hash();
    run.failures = governor.failures().size();
    run.retries = governor.transient_retries();
    return run;
  };

  // Isolation overhead: same fleet, same rounds, no faults — first bare,
  // then behind the always-snapshot guard.
  config.threads = thread_counts.back();
  double plain_seconds = 0.0;
  double guarded_seconds = 0.0;
  {
    vbr::service::TrafficService svc(config);
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t r = 0; r < rounds; ++r) svc.advance_round(block);
    plain_seconds = seconds_since(start);
  }
  {
    vbr::service::TrafficService svc(config);
    vbr::service::GovernorConfig snapshot_only;
    snapshot_only.snapshot_every_round = true;
    vbr::service::OverloadGovernor governor(svc, snapshot_only);
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t r = 0; r < rounds; ++r) governor.advance_round(block);
    guarded_seconds = seconds_since(start);
  }
  const double quarantine_overhead =
      plain_seconds > 0.0 ? guarded_seconds / plain_seconds - 1.0 : 0.0;

  const OverloadRun first = run_overloaded(thread_counts.front());
  const OverloadRun last = run_overloaded(thread_counts.back());
  const bool overload_hash_match = first.hash == last.hash &&
                                   first.failures == expected_failures &&
                                   last.failures == expected_failures;

  appendf(json,
          "  \"overload\": {\"plain_seconds\": %.6f, \"guarded_seconds\": %.6f, "
          "\"quarantine_overhead_fraction\": %.4f, \"shed_round_excess_seconds\": %.6f, "
          "\"streams_served_under_pressure\": %zu, \"stream_failures\": %zu, "
          "\"expected_stream_failures\": %zu, \"transient_retries\": %llu, "
          "\"results_hash\": \"%016llx\", \"hash_match\": %s},\n",
          plain_seconds, guarded_seconds, quarantine_overhead, last.shed_round_excess_seconds,
          last.streams_under_pressure, last.failures, expected_failures,
          static_cast<unsigned long long>(last.retries),
          static_cast<unsigned long long>(last.hash), overload_hash_match ? "true" : "false");
  appendf(json, "  \"build_seconds\": %.6f,\n", build_seconds_first);
  appendf(json, "  \"serve_rss_mib\": %.1f,\n", serve_rss);
  appendf(json, "  \"peak_rss_mib\": %.1f,\n", rss_mib("VmHWM:"));
  appendf(json, "  \"rss_mib_per_million_streams\": %.1f,\n",
          serve_rss * 1.0e6 / static_cast<double>(config.num_streams));
  appendf(json, "  \"bit_identical_across_thread_counts\": %s\n",
          bit_identical ? "true" : "false");
  appendf(json, "}\n");
  std::fputs(json.c_str(), stdout);
  vbrbench::emit_bench_json("service", json);
  return (bit_identical && checkpoint_hash_match && overload_hash_match) ? 0 : 1;
}
