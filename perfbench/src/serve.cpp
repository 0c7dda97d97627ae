// Workload `serve`: the production serving path. A TrafficService with the
// paper's full Gamma/Pareto source over streaming Hosking cores, a fleet
// larger than the last-level cache, feeding a fluid queue, advanced in
// small-block rounds with a VBRSRVC1 checkpoint every few rounds.
#include <malloc.h>

#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "harness.hpp"
#include "vbr/common/atomic_file.hpp"
#include "vbr/common/checksum.hpp"
#include "vbr/common/math_util.hpp"
#include "vbr/common/rng.hpp"
#include "vbr/common/serialize.hpp"
#include "vbr/model/marginal_transform.hpp"
#include "vbr/net/fluid_queue.hpp"
#include "vbr/run/envelope.hpp"
#include "vbr/service/service_checkpoint.hpp"
#include "vbr/service/streaming_source.hpp"
#include "vbr/service/traffic_service.hpp"
#include "vbr/stats/gamma_pareto.hpp"
#include "vbr/stream/moments.hpp"

namespace perfbench {
namespace {

using vbr::service::ServiceConfig;
using vbr::service::TrafficService;

/// 131072 streams at ~0.85 KiB each is ~110 MiB of stream state, more than
/// a 105 MiB last-level cache, so every round streams the fleet from DRAM.
constexpr std::size_t kStreams = 131072;
constexpr std::size_t kBlock = 2;             ///< samples per stream per round
constexpr std::size_t kCheckpointEvery = 50;  ///< rounds between checkpoints
/// Samples per stream served before timing: the Hosking warm-up horizon.
constexpr std::size_t kWarmupSamples = 64;
constexpr std::size_t kSetupReps = 9;
constexpr int kDefaultTrimThreshold = 128 * 1024;  ///< glibc's M_TRIM_THRESHOLD default
constexpr std::size_t kLoadReps = 5;
constexpr double kUtilization = 0.9;
constexpr double kBufferSeconds = 0.010;
/// The decomposition re-drives one scheduler chunk (advance_round's unit).
constexpr std::size_t kChunk = 1024;

ServiceConfig serve_config(std::uint64_t seed, std::size_t threads) {
  ServiceConfig config;
  config.num_streams = kStreams;
  config.seed = seed;
  config.params.marginal.mu_gamma = 27791.0;
  config.params.marginal.sigma_gamma = 6254.0;
  config.params.marginal.tail_slope = 12.0;
  config.params.hurst = 0.8;
  config.variant = vbr::model::ModelVariant::kFull;
  config.backend = vbr::model::GeneratorBackend::kHosking;
  config.threads = threads;
  const double mean_rate = static_cast<double>(kStreams) * config.params.marginal.mu_gamma /
                           config.frame_seconds;
  config.queue_capacity_bytes_per_sec = mean_rate / kUtilization;
  config.queue_buffer_bytes = kBufferSeconds * config.queue_capacity_bytes_per_sec;
  return config;
}

/// Re-drives streams [0, kChunk) of a service through the public calls
/// advance_round makes, one phase at a time, so each phase's cost per
/// sample can be scaled to the fleet: the streaming core, the Gamma/Pareto
/// marginal map, the FNV fold, the moments sink, the Kahan aggregate and
/// the fluid queue. The per-stream digests it computes must equal
/// TrafficService::stream_digest, which proves it ran the same work.
class ServeDecomposition {
 public:
  explicit ServeDecomposition(const ServiceConfig& config)
      : config_(config),
        dist_(config.params.marginal),
        map_(dist_),
        queue_(config.queue_capacity_bytes_per_sec * kChunk / kStreams,
               config.queue_buffer_bytes * kChunk / kStreams) {
    vbr::Rng master(config.seed);
    for (std::size_t i = 0; i < kChunk; ++i) {
      // A full-variant StreamingVbrSource hands its per-stream Rng straight
      // to the core and maps every core sample through the marginal table.
      vbr::Rng stream_rng = master.split();
      core_.push_back(vbr::service::make_streaming_core(config.backend, config.params.hurst,
                                                        1.0, config.tuning, stream_rng));
    }
    digest_.assign(kChunk, vbr::Fnv1a::kOffsetBasis);
    buf_.resize(kChunk);
  }

  /// Advance every chunk stream by `block`. With `timed`, phase times are
  /// accumulated and recorded as spans.
  void step(std::size_t block, Tracer& tracer, bool timed) {
    phase(tracer, timed, "service.core", core_ns_, [&] {
      for (std::size_t i = 0; i < kChunk; ++i) {
        buf_[i].clear();
        core_[i]->next_block(block, buf_[i]);
      }
    });
    phase(tracer, timed, "model.marginal", marginal_ns_, [&] {
      for (std::size_t i = 0; i < kChunk; ++i) {
        for (double& x : buf_[i]) x = map_(x);
      }
    });
    phase(tracer, timed, "common.fnv1a", fnv_ns_, [&] {
      for (std::size_t i = 0; i < kChunk; ++i) {
        vbr::Fnv1a h(digest_[i]);
        h.update(std::span<const double>(buf_[i]));
        digest_[i] = h.digest();
      }
    });
    phase(tracer, timed, "service.moments", moments_ns_, [&] {
      for (std::size_t i = 0; i < kChunk; ++i) moments_.push(buf_[i]);
    });
    phase(tracer, timed, "service.aggregate", aggregate_ns_, [&] {
      aggregate_.assign(block, vbr::KahanSum{});
      for (std::size_t i = 0; i < kChunk; ++i) {
        for (std::size_t j = 0; j < buf_[i].size(); ++j) {
          total_.add(buf_[i][j]);
          aggregate_[j].add(buf_[i][j]);
        }
      }
    });
    phase(tracer, timed, "net.fluid_queue", queue_ns_, [&] {
      for (std::size_t j = 0; j < block; ++j) {
        queue_.offer(aggregate_[j].value(), config_.frame_seconds);
      }
    });
    if (timed) {
      samples_ += static_cast<double>(kChunk * block);
      frames_ += static_cast<double>(block);
    }
  }

  std::size_t digest_mismatches(const TrafficService& service) const {
    std::size_t bad = 0;
    for (std::size_t i = 0; i < kChunk; ++i) bad += digest_[i] != service.stream_digest(i);
    return bad;
  }

  double core_ns() const { return core_ns_ / samples_; }
  double marginal_ns() const { return marginal_ns_ / samples_; }
  double fnv_ns() const { return fnv_ns_ / samples_; }
  double moments_ns() const { return moments_ns_ / samples_; }
  double aggregate_ns() const { return aggregate_ns_ / samples_; }
  double queue_ns_per_frame() const { return queue_ns_ / frames_; }
  double samples() const { return samples_; }

 private:
  template <typename Fn>
  static void phase(Tracer& tracer, bool timed, const char* name, double& acc, Fn&& fn) {
    if (!timed) {
      fn();
      return;
    }
    const auto scope = tracer.span(name);
    const auto t0 = Clock::now();
    fn();
    acc += std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
  }

  ServiceConfig config_;
  vbr::stats::GammaParetoDistribution dist_;
  vbr::model::TabulatedMarginalMap map_;  ///< references dist_
  std::vector<std::unique_ptr<vbr::service::StreamingSource>> core_;
  std::vector<std::vector<double>> buf_;
  std::vector<std::uint64_t> digest_;
  vbr::stream::StreamingMoments moments_;
  std::vector<vbr::KahanSum> aggregate_;
  vbr::KahanSum total_;
  vbr::net::FluidQueue queue_;
  double core_ns_ = 0, marginal_ns_ = 0, fnv_ns_ = 0, moments_ns_ = 0, aggregate_ns_ = 0,
         queue_ns_ = 0, samples_ = 0, frames_ = 0;
};

}  // namespace

void run_serve(const Options& options, Tracer& /*tracer*/, Result& result) {
  const ServiceConfig config = serve_config(options.seed, kThreads);
  const std::filesystem::path ckpt = options.work_dir / "serve.ckpt";

  // Set-up: building the fleet. Median of several builds: the first also
  // fills the shared marginal-map and Hosking coefficient caches and faults
  // in fresh pages; with heap trimming off, the later ones reuse the last
  // fleet's pages, so the median prices the construction work rather than
  // the host's page-fault cost, which drifts by tens of percent between runs.
  std::vector<double> setup_s;
  std::unique_ptr<TrafficService> service;
  ::mallopt(M_TRIM_THRESHOLD, std::numeric_limits<int>::max());
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    service.reset();
    const auto t0 = Clock::now();
    service = std::make_unique<TrafficService>(config);
    setup_s.push_back(seconds_since(t0));
  }
  ::mallopt(M_TRIM_THRESHOLD, kDefaultTrimThreshold);

  // Every stream's first kWarmupSamples run at a growing Hosking predictor
  // order; serve past that transient untimed, in one round (the output is
  // block-size invariant), and pin the hash there.
  service->advance_round(kWarmupSamples);
  result.pin("serve.results_hash", service->results_hash());

  // Whole checkpoint cycles, so every run measures the same mix of rounds
  // and saves; throughput is the median over cycles.
  std::vector<double> round_ms;
  std::vector<double> save_ms;
  std::vector<double> cycle_samples_per_s;
  std::uint64_t saved_hash = 0;
  std::uint64_t saved_rounds = 0;
  const auto loop_start = Clock::now();
  do {
    const auto cycle_start = Clock::now();
    for (std::size_t r = 0; r < kCheckpointEvery; ++r) {
      const auto t0 = Clock::now();
      service->advance_round(kBlock);
      round_ms.push_back(ms_since(t0));
    }
    const auto s0 = Clock::now();
    vbr::service::save_service_checkpoint(ckpt.string(), *service);
    save_ms.push_back(ms_since(s0));
    cycle_samples_per_s.push_back(static_cast<double>(kCheckpointEvery * kBlock * kStreams) /
                                  seconds_since(cycle_start));
    saved_hash = service->results_hash();
    saved_rounds = service->rounds();
  } while (seconds_since(loop_start) < options.seconds);
  const double samples_per_s = median(cycle_samples_per_s);
  const std::size_t quarantined = kStreams - service->active_streams();
  result.check("serve sample count",
               service->total_samples() ==
                   (round_ms.size() * kBlock + kWarmupSamples) * kStreams,
               std::to_string(service->total_samples()) + " samples");
  service.reset();

  // Restore the last checkpoint into a fresh service; repeated loads
  // replace the whole state, so each one does identical work.
  TrafficService restored(config);
  std::vector<double> load_ms;
  for (std::size_t rep = 0; rep < kLoadReps; ++rep) {
    const auto t0 = Clock::now();
    vbr::service::load_service_checkpoint(ckpt.string(), restored);
    load_ms.push_back(ms_since(t0));
  }
  result.check("serve restored hash equals saved hash",
               restored.results_hash() == saved_hash && restored.rounds() == saved_rounds,
               hex64(restored.results_hash()) + " vs " + hex64(saved_hash));

  result.attempted = round_ms.size() * kStreams;  // stream-rounds
  result.failed = quarantined * round_ms.size();

  result.metric("setup_s", median(setup_s), "s", setup_s.size());
  result.metric("throughput_per_s", samples_per_s, "1/s", cycle_samples_per_s.size());
  result.metric("op_p50_ms", median(round_ms), "ms", round_ms.size());
  result.metric("op_tail_ms", percentile(round_ms, 90.0), "ms", round_ms.size());

  result.reported("setup_s", median(setup_s), "s", setup_s.size());
  result.reported("serve_samples_per_s", samples_per_s, "samples/s",
                  cycle_samples_per_s.size());
  result.reported("round_p50_ms", median(round_ms), "ms", round_ms.size());
  result.reported("round_p90_ms", percentile(round_ms, 90.0), "ms", round_ms.size());
  result.reported("ckpt_save_p50_ms", median(save_ms), "ms", save_ms.size());
  result.reported("ckpt_load_ms", median(load_ms), "ms", load_ms.size());
  result.reported("failed_share",
                  static_cast<double>(result.failed) / static_cast<double>(result.attempted),
                  "ratio", 1);
  std::filesystem::remove(ckpt);
}

void layers_serve(const Options& options, Tracer& tracer, Result& result, bool own) {
  constexpr std::size_t kMeasured = 24;  // rounds per timed segment
  const ServiceConfig config = serve_config(options.seed, kThreads);
  const std::filesystem::path ckpt_public = options.work_dir / "serve_public.ckpt";
  const std::filesystem::path ckpt_split = options.work_dir / "serve_split.ckpt";

  const double rss_before = current_rss_bytes();
  TrafficService service(config);
  auto run_rounds = [&](TrafficService& s, std::size_t n, std::vector<double>* ms) {
    for (std::size_t r = 0; r < n; ++r) {
      const auto t0 = Clock::now();
      s.advance_round(kBlock);
      if (ms != nullptr) ms->push_back(ms_since(t0));
    }
  };
  service.advance_round(kWarmupSamples);
  std::vector<double> untraced_ms;
  run_rounds(service, kMeasured, &untraced_ms);
  const double rss_serving = current_rss_bytes();
  const std::uint64_t hash_at_measured = service.results_hash();

  // Same rounds on one thread: the speedup of advance_round at kThreads.
  if (can_measure_scaling()) {
    TrafficService single(serve_config(options.seed, 1));
    single.advance_round(kWarmupSamples);
    std::vector<double> single_ms;
    run_rounds(single, kMeasured, &single_ms);
    result.check("serve 1-thread hash equals 2-thread hash",
                 single.results_hash() == hash_at_measured);
    result.layer("service.round.thread_speedup", median(single_ms) / median(untraced_ms), "x",
                 single_ms.size());
  } else {
    result.layer_null("service.round.thread_speedup", "x",
                      "hardware_concurrency < 2: scaling not measurable");
  }

  // Decomposition: catch up untimed to the service's position, then step
  // in lockstep with traced rounds.
  ServeDecomposition decomposition(config);
  decomposition.step(kWarmupSamples + kMeasured * kBlock, tracer, false);
  std::vector<double> traced_ms;
  for (std::size_t r = 0; r < kMeasured; ++r) {
    {
      const auto scope = tracer.span("service.round");
      const auto t0 = Clock::now();
      service.advance_round(kBlock);
      traced_ms.push_back(ms_since(t0));
    }
    decomposition.step(kBlock, tracer, true);
  }
  const std::size_t mismatches = decomposition.digest_mismatches(service);
  result.check("serve decomposition digests equal stream_digest", mismatches == 0,
               std::to_string(mismatches) + " of " + std::to_string(kChunk) + " differ");

  const double round_ms = median(traced_ms);
  const double fleet_samples = static_cast<double>(kStreams * kBlock);
  const double attributed_ms =
      1e-6 * (fleet_samples * ((decomposition.core_ns() + decomposition.marginal_ns()) /
                                   static_cast<double>(kThreads) +
                               decomposition.fnv_ns() + decomposition.moments_ns() +
                               decomposition.aggregate_ns()) +
              static_cast<double>(kBlock) * decomposition.queue_ns_per_frame());
  const auto n_samples = static_cast<std::size_t>(decomposition.samples());
  result.layer("service.round.ms", round_ms, "ms", traced_ms.size());
  result.layer("service.core.ns_per_sample", decomposition.core_ns(), "ns", n_samples);
  result.layer("model.marginal.ns_per_sample", decomposition.marginal_ns(), "ns", n_samples);
  result.layer("common.fnv1a.ns_per_sample", decomposition.fnv_ns(), "ns", n_samples);
  result.layer("service.moments.ns_per_sample", decomposition.moments_ns(), "ns", n_samples);
  result.layer("service.aggregate.ns_per_sample", decomposition.aggregate_ns(), "ns",
               n_samples);
  result.layer("net.fluid_queue.ns_per_frame", decomposition.queue_ns_per_frame(), "ns",
               kMeasured * kBlock);
  result.layer("service.round.unattributed_share", 1.0 - attributed_ms / round_ms, "ratio",
               traced_ms.size());
  result.layer("service.rss.bytes_per_stream",
               (rss_serving - rss_before) / static_cast<double>(kStreams), "B", 1);
  if (own) {
    result.layer("trace.overhead_share", median(traced_ms) / median(untraced_ms) - 1.0,
                 "ratio", traced_ms.size());
  }

  // Checkpoint save: the public call, then the same bytes built phase by
  // phase (serialize, CRC, seal, atomic durable write).
  double public_save_ms = 0;
  {
    const auto scope = tracer.span("service.ckpt.save");
    const auto t0 = Clock::now();
    vbr::service::save_service_checkpoint(ckpt_public.string(), service);
    public_save_ms = ms_since(t0);
  }
  double save_state_ms = 0, crc_ms = 0, seal_ms = 0, write_ms = 0;
  {
    const auto scope = tracer.span("service.ckpt.save_split");
    std::string payload;
    {
      const auto s = tracer.span("service.save_state");
      const auto t0 = Clock::now();
      std::ostringstream out(std::ios::binary);
      service.save_state(out);
      vbr::io::write_u8(out, 0);  // no governor attached
      payload = out.str();
      save_state_ms = ms_since(t0);
    }
    {
      const auto s = tracer.span("common.crc32");
      const auto t0 = Clock::now();
      volatile std::uint32_t crc = vbr::crc32(payload.data(), payload.size());
      (void)crc;
      crc_ms = ms_since(t0);
    }
    std::string sealed;
    {
      const auto s = tracer.span("run.seal_envelope");
      const auto t0 = Clock::now();
      sealed = vbr::run::seal_envelope(vbr::service::service_checkpoint_envelope(), payload);
      seal_ms = ms_since(t0);
    }
    {
      const auto s = tracer.span("common.write_file_atomic");
      const auto t0 = Clock::now();
      vbr::write_file_atomic(ckpt_split, sealed, /*durable=*/true);
      write_ms = ms_since(t0);
    }
  }
  const std::string public_bytes = read_file(ckpt_public);
  result.check("serve split save reproduces checkpoint bytes",
               public_bytes == read_file(ckpt_split),
               std::to_string(public_bytes.size()) + " bytes");
  result.layer("service.ckpt.save_ms", public_save_ms, "ms", 1);
  result.layer("service.save_state.ms", save_state_ms, "ms", 1);
  result.layer("common.crc32.ms", crc_ms, "ms", 1);
  result.layer("run.seal_envelope.ms", seal_ms, "ms", 1);
  result.layer("common.write_file_atomic.ms", write_ms, "ms", 1);
  result.layer("service.ckpt.bytes", static_cast<double>(public_bytes.size()), "B", 1);

  // Checkpoint load: the public call, then read + envelope check and the
  // payload restore on their own.
  TrafficService restored(config);
  double public_load_ms = 0, read_ms = 0, restore_ms = 0;
  {
    const auto scope = tracer.span("service.ckpt.load");
    const auto t0 = Clock::now();
    vbr::service::load_service_checkpoint(ckpt_public.string(), restored);
    public_load_ms = ms_since(t0);
  }
  {
    std::string body;
    {
      const auto s = tracer.span("service.ckpt.read");
      const auto t0 = Clock::now();
      std::ifstream in(ckpt_public, std::ios::binary);
      body = vbr::run::open_envelope(in, vbr::service::service_checkpoint_envelope(),
                                     ckpt_public.string());
      read_ms = ms_since(t0);
    }
    const auto s = tracer.span("service.restore_state");
    const auto t0 = Clock::now();
    std::istringstream in(body, std::ios::binary);
    restored.restore_state(in);
    restore_ms = ms_since(t0);
  }
  result.check("serve split load restores saved hash",
               restored.results_hash() == service.results_hash());
  result.layer("service.ckpt.load_ms", public_load_ms, "ms", 1);
  result.layer("service.ckpt.read_ms", read_ms, "ms", 1);
  result.layer("service.restore_state.ms", restore_ms, "ms", 1);
  std::filesystem::remove(ckpt_public);
  std::filesystem::remove(ckpt_split);
}

}  // namespace perfbench
