// bench_engine_scaling: thread-scaling throughput of the parallel
// generation engine, emitted as JSON for dashboards/CI.
//
// For each thread count the same GenerationPlan (default: 16 sources of
// 2^17 frames, the paper's model parameters) is executed and frames/sec and
// bytes/sec recorded. A FNV-1a hash over the raw double bits of every
// generated frame doubles as the determinism witness: the engine guarantees
// bit-identical output for any thread count, so all runs must report the
// same checksum. Five final pairs of campaign runs — identical except that
// one of each pair checkpoints every `threads` sources — measure the
// checkpoint overhead the crash-safe runner charges for resumability
// (budget: <= 5%). One pair reads anywhere from 4% to 47% on a shared
// machine, so the artifact records the median of the interleaved pairs with
// their min and max. The plain run is one batch, whose commits overlap its
// generation; a batch of exactly `threads` sources finishes all of them at
// once and commits them after, so the checkpointed run also pays that tail.
//
// Usage:
//   ./bench_engine_scaling [sources] [frames_per_source] [thread_list]
// e.g. ./bench_engine_scaling 16 131072 1,2,4,8
#include <algorithm>
#include <chrono>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "bench_support.hpp"
#include "vbr/common/checksum.hpp"
#include "vbr/engine/engine.hpp"
#include "vbr/run/campaign.hpp"

namespace {

std::uint64_t fnv1a_trace_hash(const vbr::engine::MultiSourceTrace& trace) {
  vbr::Fnv1a hash;
  for (const auto& source : trace.sources) hash.update(source);
  return hash.digest();
}

/// Median; the mean of the middle two for an even count.
double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

double timed_campaign_seconds(const vbr::run::CampaignOptions& options) {
  const auto start = std::chrono::steady_clock::now();
  (void)vbr::run::run_campaign(options);
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

// printf-style append to the JSON document under construction. The whole
// document is built in memory and emitted in one shot — to stdout and, when
// VBR_BENCH_JSON_DIR is set, atomically to BENCH_engine_scaling.json — so an
// interrupted run can never leave a truncated file.
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

}  // namespace

int main(int argc, char** argv) {
  vbr::engine::GenerationPlan plan;
  plan.num_sources = (argc > 1) ? std::stoul(argv[1]) : 16;
  plan.frames_per_source = (argc > 2) ? std::stoul(argv[2]) : (std::size_t{1} << 17);
  plan.seed = 1994;
  plan.params.hurst = 0.8;
  plan.params.marginal.mu_gamma = 27791.0;
  plan.params.marginal.sigma_gamma = 6254.0;
  plan.params.marginal.tail_slope = 12.0;

  const std::vector<std::size_t> thread_counts =
      (argc > 3) ? parse_thread_list(argv[3]) : std::vector<std::size_t>{1, 2, 4, 8};

  std::string json;
  appendf(json, "{\n");
  appendf(json, "  \"benchmark\": \"engine_scaling\",\n");
  appendf(json, "  \"sources\": %zu,\n", plan.num_sources);
  appendf(json, "  \"frames_per_source\": %zu,\n", plan.frames_per_source);
  appendf(json, "  \"hardware_concurrency\": %u,\n", std::thread::hardware_concurrency());
  appendf(json, "  \"contracts\": \"%s\",\n", vbrbench::contracts_state());
  appendf(json, "  \"results\": [\n");

  double baseline_fps = 0.0;
  std::uint64_t baseline_hash = 0;
  bool bit_identical = true;
  for (std::size_t i = 0; i < thread_counts.size(); ++i) {
    plan.threads = thread_counts[i];
    const auto trace = vbr::engine::generate_sources(plan);
    const auto& stats = trace.stats;
    const std::uint64_t hash = fnv1a_trace_hash(trace);
    if (i == 0) {
      baseline_fps = stats.frames_per_second();
      baseline_hash = hash;
    } else if (hash != baseline_hash) {
      bit_identical = false;
    }
    appendf(
        json,
        "    {\"threads\": %zu, \"threads_used\": %zu, \"wall_seconds\": %.6f, "
        "\"frames_per_second\": %.1f, \"bytes_per_second\": %.1f, "
        "\"speedup_vs_first\": %.3f, \"trace_hash\": \"%016llx\"}%s\n",
        thread_counts[i], stats.threads_used, stats.wall_seconds, stats.frames_per_second(),
        stats.bytes_per_second(),
        baseline_fps > 0.0 ? stats.frames_per_second() / baseline_fps : 0.0,
        static_cast<unsigned long long>(hash),
        i + 1 < thread_counts.size() ? "," : "");
  }

  appendf(json, "  ],\n");

  // Checkpoint overhead: identical campaigns to scratch files, one without a
  // checkpoint path and one checkpointing every `threads` sources, run as
  // interleaved pairs. A campaign generates one checkpoint interval per
  // batch, so an interval that is a multiple of the thread count keeps every
  // worker busy and the difference is the cost of the saves, not idle
  // workers.
  constexpr std::size_t kPairs = 5;
  const auto scratch = std::filesystem::temp_directory_path();
  vbr::run::CampaignOptions plain;
  plain.plan = plan;
  plain.plan.threads = thread_counts.back();
  plain.trace_path = scratch / "bench_engine_scaling_campaign.trace";
  vbr::run::CampaignOptions checkpointed = plain;
  checkpointed.checkpoint_path = scratch / "bench_engine_scaling_campaign.ckpt";
  checkpointed.checkpoint_every_sources = plain.plan.threads;
  std::vector<double> plain_seconds, checkpointed_seconds, overhead;
  for (std::size_t pair = 0; pair < kPairs; ++pair) {
    plain_seconds.push_back(timed_campaign_seconds(plain));
    checkpointed_seconds.push_back(timed_campaign_seconds(checkpointed));
    overhead.push_back(plain_seconds.back() > 0.0
                           ? checkpointed_seconds.back() / plain_seconds.back() - 1.0
                           : 0.0);
  }
  std::error_code cleanup;
  std::filesystem::remove(checkpointed.trace_path, cleanup);
  std::filesystem::remove(checkpointed.checkpoint_path, cleanup);
  appendf(json,
          "  \"checkpoint_overhead\": {\"pairs\": %zu, \"plain_seconds\": %.6f, "
          "\"checkpointed_seconds\": %.6f, \"overhead_fraction\": %.4f, "
          "\"overhead_fraction_min\": %.4f, \"overhead_fraction_max\": %.4f, "
          "\"checkpoint_every_sources\": %zu},\n",
          kPairs, median(plain_seconds), median(checkpointed_seconds), median(overhead),
          *std::min_element(overhead.begin(), overhead.end()),
          *std::max_element(overhead.begin(), overhead.end()),
          checkpointed.checkpoint_every_sources);

  appendf(json, "  \"bit_identical_across_thread_counts\": %s\n",
          bit_identical ? "true" : "false");
  appendf(json, "}\n");
  std::fputs(json.c_str(), stdout);
  vbrbench::emit_bench_json("engine_scaling", json);
  return bit_identical ? 0 : 1;
}
