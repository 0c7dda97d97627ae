// Workload `campaign`: the crash-safe batch path. run_campaign generates 64
// sources of the paper's trace length with the Davies-Harte backend on two
// threads, writes a durable binary trace, checkpoints every 8 sources and
// taps a chain of all five stream/ estimators.
#include <algorithm>
#include <complex>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "harness.hpp"
#include "vbr/common/checksum.hpp"
#include "vbr/common/error.hpp"
#include "vbr/common/fft.hpp"
#include "vbr/common/rng.hpp"
#include "vbr/engine/engine.hpp"
#include "vbr/model/davies_harte.hpp"
#include "vbr/run/campaign.hpp"
#include "vbr/run/checkpoint.hpp"
#include "vbr/stream/acf.hpp"
#include "vbr/stream/moments.hpp"
#include "vbr/stream/quantiles.hpp"
#include "vbr/stream/sink.hpp"
#include "vbr/stream/variance_time.hpp"
#include "vbr/stream/welch.hpp"
#include "vbr/trace/trace_stream.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kSources = 64;
constexpr std::size_t kFrames = 171000;   ///< the paper's trace length
constexpr std::size_t kBatch = 8;         ///< sources per checkpoint
constexpr std::size_t kMinCampaigns = 5;  ///< at least 40 batch samples per run
constexpr std::size_t kSetupReps = 5;
constexpr double kDtSeconds = 1.0 / 24.0;

vbr::engine::GenerationPlan campaign_plan(std::uint64_t seed, std::size_t sources) {
  vbr::engine::GenerationPlan plan;
  plan.num_sources = sources;
  plan.frames_per_source = kFrames;
  plan.seed = seed;
  plan.params.marginal.mu_gamma = 27791.0;
  plan.params.marginal.sigma_gamma = 6254.0;
  plan.params.marginal.tail_slope = 12.0;
  plan.params.hurst = 0.8;
  plan.variant = vbr::model::ModelVariant::kFull;
  plan.backend = vbr::model::GeneratorBackend::kDaviesHarte;
  plan.threads = kThreads;
  return plan;
}

/// The five streaming estimators, chained in one tap.
struct Estimators {
  vbr::stream::StreamingMoments moments;
  vbr::stream::StreamingQuantiles quantiles;
  vbr::stream::StreamingAcf acf{128};
  vbr::stream::StreamingVarianceTime variance_time;
  vbr::stream::StreamingWelchPeriodogram welch;
  vbr::stream::SinkChain chain = vbr::stream::chain(moments, quantiles, acf, variance_time, welch);

  Estimators() = default;
  Estimators(const Estimators&) = delete;
  Estimators& operator=(const Estimators&) = delete;

  std::string state() const {
    std::ostringstream out(std::ios::binary);
    chain.save(out);
    return out.str();
  }
};

/// A pass-through tap that timestamps every merge. The runner merges each
/// batch's per-source sinks in source order right after the batch is
/// generated, so the last merge of a batch marks the batch's end. Saved
/// state is the wrapped chain's, byte for byte.
class BatchClock final : public vbr::stream::Sink {
 public:
  explicit BatchClock(vbr::stream::Sink& inner) : inner_(&inner) {}

  void push(std::span<const double> samples) override { inner_->push(samples); }
  void merge(const vbr::stream::Sink& other) override {
    inner_->merge(*vbr::stream::detail::merge_peer<BatchClock>(other, "batch-clock").inner_);
    merges_.push_back(Clock::now());
  }
  std::unique_ptr<vbr::stream::Sink> clone_empty() const override {
    auto owned = inner_->clone_empty();
    auto clone = std::make_unique<BatchClock>(*owned);
    clone->owned_ = std::move(owned);
    return clone;
  }
  void save(std::ostream& out) const override { inner_->save(out); }
  void restore(std::istream& in) override { inner_->restore(in); }
  std::size_t count() const override { return inner_->count(); }
  const char* kind() const override { return inner_->kind(); }

  /// Batch periods: from the run's start (or the previous batch's last
  /// merge) to this batch's last merge.
  std::vector<double> batch_ms(Clock::time_point start) const {
    std::vector<double> out;
    Clock::time_point from = start;
    for (std::size_t i = kBatch - 1; i < merges_.size(); i += kBatch) {
      out.push_back(std::chrono::duration<double, std::milli>(merges_[i] - from).count());
      from = merges_[i];
    }
    return out;
  }

 private:
  vbr::stream::Sink* inner_;
  std::unique_ptr<vbr::stream::Sink> owned_;  ///< set for clones only
  std::vector<Clock::time_point> merges_;
};

/// Re-read a finished trace through the chunked reader and re-hash it.
std::uint64_t rehash_trace(const std::filesystem::path& path) {
  vbr::trace::ChunkedTraceReader reader(path);
  std::vector<double> chunk(65536);
  vbr::Fnv1a h;
  for (std::size_t n = reader.read(chunk); n > 0; n = reader.read(chunk)) {
    h.update(std::span<const double>(chunk.data(), n));
  }
  return h.digest();
}

vbr::run::CampaignOptions campaign_options(const vbr::engine::GenerationPlan& plan,
                                           const std::filesystem::path& trace,
                                           const std::filesystem::path& ckpt) {
  vbr::run::CampaignOptions options;
  options.plan = plan;
  options.trace_path = trace;
  options.checkpoint_path = ckpt;
  options.checkpoint_every_sources = kBatch;
  options.durable = true;
  options.dt_seconds = kDtSeconds;
  return options;
}

/// Set-up: the model plus the Davies-Harte eigenvalue cache for the trace
/// length, which every source of every campaign in this process reuses.
double warm_caches(std::uint64_t seed) {
  const auto t0 = Clock::now();
  const vbr::engine::GenerationPlan plan = campaign_plan(seed, 1);
  const vbr::model::VbrVideoSourceModel model(plan.params);
  vbr::Rng rng(seed);
  const std::vector<double> one = model.generate(kFrames, rng, plan.variant, plan.backend);
  if (one.size() != kFrames) throw vbr::IoError("warm-up source has the wrong length");
  return seconds_since(t0);
}

}  // namespace

void run_campaign(const Options& options, Tracer& /*tracer*/, Result& result) {
  const vbr::engine::GenerationPlan plan = campaign_plan(options.seed, kSources);
  std::vector<double> setup_s;
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    vbr::model::davies_harte_cache_clear();
    setup_s.push_back(warm_caches(options.seed));
  }

  std::vector<double> batch_ms, reload_ms, frames_per_s;
  std::uint64_t failed = 0, first_hash = 0, first_state = 0;
  bool repeatable = true, rehash_ok = true;
  std::size_t campaigns = 0;
  const std::filesystem::path trace = options.work_dir / "campaign.trace";
  const std::filesystem::path ckpt = options.work_dir / "campaign.ckpt";
  const auto start = Clock::now();
  while (campaigns < kMinCampaigns || seconds_since(start) < options.seconds) {
    Estimators sinks;
    BatchClock tap(sinks.chain);
    const auto t0 = Clock::now();
    const vbr::run::CampaignResult run =
        vbr::run::run_campaign(campaign_options(plan, trace, ckpt), &tap);
    frames_per_s.push_back(static_cast<double>(run.stats.frames) / seconds_since(t0));
    const std::vector<double> batches = tap.batch_ms(t0);
    batch_ms.insert(batch_ms.end(), batches.begin(), batches.end());
    failed += run.stats.failures.size();

    const auto r0 = Clock::now();
    const std::uint64_t rehash = rehash_trace(trace);
    reload_ms.push_back(ms_since(r0));
    rehash_ok = rehash_ok && rehash == run.trace_hash;
    const std::uint64_t state = fnv_bytes(sinks.state());
    if (campaigns == 0) {
      first_hash = run.trace_hash;
      first_state = state;
      result.pin("campaign.trace_hash", run.trace_hash);
      result.pin("campaign.sink_state_fnv", state);
    }
    repeatable = repeatable && run.trace_hash == first_hash && state == first_state;
    std::filesystem::remove(trace);
    std::filesystem::remove(ckpt);
    ++campaigns;
  }
  result.check("campaign trace re-read through ChunkedTraceReader re-hashes to trace_hash",
               rehash_ok);
  result.check("campaign trace_hash and sink state equal across campaigns", repeatable,
               std::to_string(campaigns) + " campaigns, " + hex64(first_hash));

  result.attempted = campaigns * kSources;
  result.failed = failed;
  result.metric("setup_s", median(setup_s), "s", setup_s.size());
  result.metric("throughput_per_s", median(frames_per_s), "1/s", campaigns);
  result.metric("op_p50_ms", median(batch_ms), "ms", batch_ms.size());
  result.metric("op_tail_ms", percentile(batch_ms, 75.0), "ms", batch_ms.size());

  result.reported("setup_s", median(setup_s), "s", setup_s.size());
  result.reported("campaign_frames_per_s", median(frames_per_s), "frames/s", campaigns);
  result.reported("batch_p50_ms", median(batch_ms), "ms", batch_ms.size());
  result.reported("batch_p75_ms", percentile(batch_ms, 75.0), "ms", batch_ms.size());
  result.reported("trace_reread_ms", median(reload_ms), "ms", reload_ms.size());
  result.reported("failed_share",
                  static_cast<double>(failed) / static_cast<double>(result.attempted), "ratio",
                  1);
}

void layers_campaign(const Options& options, Tracer& tracer, Result& result, bool own) {
  constexpr std::size_t kSmallSources = 2 * kBatch;
  const vbr::engine::GenerationPlan plan = campaign_plan(options.seed, kSources);
  const vbr::model::VbrVideoSourceModel model(plan.params);
  warm_caches(options.seed);

  // Engine: one checkpoint batch with the estimator tap, merged in source
  // order as the runner merges it.
  Estimators tap;
  vbr::Rng master(plan.seed);
  std::vector<vbr::Rng> streams;
  for (std::size_t i = 0; i < kSources; ++i) streams.push_back(master.split());
  vbr::engine::SourceBatch batch;
  double batch_ms = 0;
  {
    const auto s = tracer.span("engine.generate_batch");
    const auto t0 = Clock::now();
    batch = vbr::engine::generate_source_batch(
        model, std::span<const vbr::Rng>(streams).first(kBatch), 0, kFrames, plan.variant,
        plan.backend, kThreads, &tap.chain, {});
    batch_ms = ms_since(t0);
  }
  for (const auto& sink : batch.sinks) tap.chain.merge(*sink);
  const double per_source_ms = batch_ms / static_cast<double>(kBatch);
  result.layer("engine.generate_batch.ms_per_source", per_source_ms, "ms", kBatch);

  // FFT: the inverse real transform at Davies-Harte's padded length.
  {
    const std::size_t m = vbr::next_power_of_two(kFrames);
    vbr::Rng rng(options.seed);
    std::vector<std::complex<double>> spectrum(m + 1);
    for (auto& c : spectrum) c = {rng.normal(), rng.normal()};
    std::vector<double> fft_ms;
    for (std::size_t rep = 0; rep < 7; ++rep) {
      const auto s = tracer.span("common.irfft");
      const auto t0 = Clock::now();
      const std::vector<double> x = vbr::irfft(spectrum, 2 * m);
      fft_ms.push_back(ms_since(t0));
      if (x.size() != 2 * m) throw vbr::IoError("irfft returned the wrong length");
    }
    result.layer("common.fft.ms_per_call", median(fft_ms), "ms", fft_ms.size());
  }

  // Estimators: each one fed the batch's sources on its own.
  {
    Estimators fresh;
    const std::vector<std::pair<const char*, vbr::stream::Sink*>> sinks = {
        {"stream.moments", &fresh.moments},
        {"stream.quantiles", &fresh.quantiles},
        {"stream.acf", &fresh.acf},
        {"stream.variance_time", &fresh.variance_time},
        {"stream.welch", &fresh.welch}};
    for (const auto& [name, sink] : sinks) {
      std::vector<double> ns;
      for (std::size_t k = 0; k < kBatch; ++k) {
        const auto s = tracer.span(name);
        const auto t0 = Clock::now();
        sink->push(batch.traces[k]);
        ns.push_back(1e6 * ms_since(t0) / static_cast<double>(kFrames));
      }
      result.layer(std::string(name) + ".ns_per_sample", median(ns), "ns", ns.size() * kFrames);
    }
  }

  // Trace writer: plain appends, then durable appends in which every chunk
  // crosses one sync boundary; the difference per chunk is the fsync.
  const std::size_t sync_every = vbr::trace::TraceWriterOptions{}.sync_every_samples;
  double append_ns = 0, fsync_ms = 0;
  {
    auto write = [&](const std::filesystem::path& path, bool durable) {
      vbr::trace::TraceWriterOptions writer_options;
      writer_options.durable = durable;
      vbr::trace::ChunkedTraceWriter writer(path, kBatch * kFrames, kDtSeconds, "bytes/frame",
                                            writer_options);
      std::vector<double> chunk_ms;
      for (std::size_t k = 0; k < kBatch; ++k) {
        const std::span<const double> source(batch.traces[k]);
        for (std::size_t off = 0; off < source.size(); off += sync_every) {
          const auto piece = source.subspan(off, std::min(sync_every, source.size() - off));
          const auto s =
              tracer.span(durable ? "trace.writer.append_durable" : "trace.writer.append");
          const auto t0 = Clock::now();
          writer.append(piece);
          if (piece.size() == sync_every) chunk_ms.push_back(ms_since(t0));
        }
      }
      writer.finish();
      return chunk_ms;
    };
    const std::filesystem::path plain_path = options.work_dir / "plain.trace";
    const std::filesystem::path durable_path = options.work_dir / "durable.trace";
    const auto plain = write(plain_path, false);
    const auto durable = write(durable_path, true);
    result.check("campaign plain and durable traces are byte-identical",
                 read_file(plain_path) == read_file(durable_path));
    std::filesystem::remove(plain_path);
    std::filesystem::remove(durable_path);
    append_ns = 1e6 * median(plain) / static_cast<double>(sync_every);
    fsync_ms = median(durable) - median(plain);
    result.layer("trace.writer.append_ns_per_sample", append_ns, "ns", plain.size() * sync_every);
    result.layer("trace.writer.fsync_ms", fsync_ms, "ms", durable.size());
  }

  // Checkpoint: the state the runner persists after the first batch.
  double ckpt_ms = 0;
  {
    const std::filesystem::path path = options.work_dir / "layer.ckpt";
    vbr::run::CheckpointData data;
    data.plan_fingerprint = vbr::run::plan_fingerprint(plan, kDtSeconds, "bytes/frame");
    data.num_sources = kSources;
    data.frames_per_source = kFrames;
    data.seed = plan.seed;
    data.next_source = kBatch;
    data.samples_written = kBatch * kFrames;
    for (std::size_t i = kBatch; i < kSources; ++i) data.stream_states.push_back(streams[i].state());
    data.has_sink = true;
    data.sink_state = tap.state();
    std::vector<double> save_ms;
    for (std::size_t rep = 0; rep < 3; ++rep) {
      const auto s = tracer.span("run.checkpoint.save");
      const auto t0 = Clock::now();
      vbr::run::save_checkpoint(path, data, /*durable=*/true);
      save_ms.push_back(ms_since(t0));
    }
    result.check("campaign checkpoint round-trips",
                 vbr::run::encode_checkpoint(vbr::run::load_checkpoint(path)) ==
                     vbr::run::encode_checkpoint(data));
    ckpt_ms = median(save_ms);
    result.layer("run.checkpoint.save_ms", ckpt_ms, "ms", save_ms.size());
    result.layer("run.checkpoint.bytes", static_cast<double>(std::filesystem::file_size(path)),
                 "B", 1);
    std::filesystem::remove(path);
  }

  // A two-batch campaign in context: what the layers above do not explain.
  bool rehash_ok = true;
  auto small_campaign = [&](Tracer& t) {
    const std::filesystem::path trace = options.work_dir / "layer.trace";
    const std::filesystem::path ckpt = options.work_dir / "layer_run.ckpt";
    Estimators sinks;
    BatchClock clock(sinks.chain);
    double ms = 0;
    std::uint64_t hash = 0;
    {
      const auto s = t.span("run.campaign");
      const auto t0 = Clock::now();
      hash = vbr::run::run_campaign(
                 campaign_options(campaign_plan(options.seed, kSmallSources), trace, ckpt),
                 &clock)
                 .trace_hash;
      ms = ms_since(t0);
    }
    rehash_ok = rehash_ok && rehash_trace(trace) == hash;
    std::filesystem::remove(trace);
    std::filesystem::remove(ckpt);
    return ms;
  };
  Tracer quiet(false);
  const double untraced_ms = own ? small_campaign(quiet) : 0.0;
  const double campaign_ms = small_campaign(tracer);
  result.check("campaign in-context trace re-hashes to trace_hash", rehash_ok);
  // Generation (with the tap) per source, the serial trace appends, one
  // fsync per sync window, and a checkpoint per batch.
  const double samples = static_cast<double>(kSmallSources * kFrames);
  const double attributed_ms = static_cast<double>(kSmallSources) * per_source_ms +
                               1e-6 * samples * append_ns +
                               samples / static_cast<double>(sync_every) * fsync_ms +
                               2.0 * ckpt_ms;
  result.layer("campaign.unattributed_share", 1.0 - attributed_ms / campaign_ms, "ratio", 1);
  if (own) result.layer("trace.overhead_share", campaign_ms / untraced_ms - 1.0, "ratio", 1);
}

}  // namespace perfbench
