// Tests for the crash-safe campaign runner and the fault-injection matrix:
// checkpoint/resume determinism (kill at a batch boundary, resume, compare
// hashes and sink states bit-for-bit), graceful per-source degradation,
// retry of transient faults, per-source deadlines, and the trace writer's
// behaviour under real disk faults (ENOSPC, a file-size limit, a file cut
// short behind the writer).
#include "vbr/run/campaign.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "vbr/common/error.hpp"
#include "vbr/run/checkpoint.hpp"
#include "vbr/run/fault_injection.hpp"
#include "vbr/stream/acf.hpp"
#include "vbr/stream/moments.hpp"
#include "vbr/stream/sink.hpp"
#include "vbr/trace/trace_stream.hpp"
#include "file_size_limit.hpp"

namespace vbr::run {
namespace {

/// Fresh file names under the test temp dir, removed on destruction.
class TempCampaignFiles {
 public:
  explicit TempCampaignFiles(const std::string& tag)
      : trace_(std::filesystem::temp_directory_path() / ("vbr_" + tag + ".trace")),
        checkpoint_(std::filesystem::temp_directory_path() / ("vbr_" + tag + ".ckpt")) {
    std::filesystem::remove(trace_);
    std::filesystem::remove(checkpoint_);
  }
  ~TempCampaignFiles() {
    std::filesystem::remove(trace_);
    std::filesystem::remove(checkpoint_);
  }
  const std::filesystem::path& trace() const { return trace_; }
  const std::filesystem::path& checkpoint() const { return checkpoint_; }

 private:
  std::filesystem::path trace_;
  std::filesystem::path checkpoint_;
};

CampaignOptions small_campaign(const TempCampaignFiles& files) {
  CampaignOptions options;
  options.plan.num_sources = 6;
  options.plan.frames_per_source = 2048;
  options.plan.seed = 1994;
  options.plan.params.hurst = 0.8;
  options.plan.params.marginal.mu_gamma = 27791.0;
  options.plan.params.marginal.sigma_gamma = 6254.0;
  options.plan.params.marginal.tail_slope = 12.0;
  options.plan.threads = 1;
  options.trace_path = files.trace();
  options.checkpoint_path = files.checkpoint();
  options.checkpoint_every_sources = 2;
  return options;
}

std::string sink_bytes(const stream::Sink& sink) {
  std::ostringstream out(std::ios::binary);
  sink.save(out);
  return out.str();
}

struct TapPair {
  stream::StreamingMoments moments;
  stream::StreamingAcf acf{32};
  std::unique_ptr<stream::SinkChain> tap;
  TapPair() : tap(std::make_unique<stream::SinkChain>(
                  std::vector<stream::Sink*>{&moments, &acf})) {}
};

TEST(CampaignTest, HashIndependentOfBatchingAndThreads) {
  TempCampaignFiles ref_files("camp_ref");
  auto ref = small_campaign(ref_files);
  ref.checkpoint_every_sources = 0;  // one batch, checkpoint only at the end
  TapPair ref_tap;
  const auto ref_result = run_campaign(ref, ref_tap.tap.get());

  for (const std::size_t every : {1u, 2u, 5u}) {
    for (const std::size_t threads : {1u, 4u}) {
      TempCampaignFiles files("camp_var");
      auto options = small_campaign(files);
      options.checkpoint_every_sources = every;
      options.plan.threads = threads;
      TapPair tap;
      const auto result = run_campaign(options, tap.tap.get());
      EXPECT_EQ(result.trace_hash, ref_result.trace_hash)
          << "every=" << every << " threads=" << threads;
      EXPECT_EQ(sink_bytes(*tap.tap), sink_bytes(*ref_tap.tap));
    }
  }
}

TEST(CampaignTest, AbortedRunResumesBitIdentically) {
  TempCampaignFiles ref_files("camp_resume_ref");
  TapPair ref_tap;
  const auto ref_result =
      run_campaign(small_campaign(ref_files), ref_tap.tap.get());

  for (const std::size_t threads : {1u, 4u}) {
    // Abort the run by failing the 3rd checkpoint save (transient, injected
    // after two batches are durable): an in-process stand-in for SIGKILL at
    // a batch boundary; the SIGKILL-at-arbitrary-instant case is covered by
    // scripts/crash_soak.sh.
    TempCampaignFiles files("camp_resume");
    auto options = small_campaign(files);
    options.plan.threads = threads;
    FaultPlan plan;
    plan.faults.push_back({"checkpoint", 2, FaultKind::kTransient, 1});
    FaultInjector faults(std::move(plan));
    options.faults = &faults;
    {
      TapPair tap;
      EXPECT_THROW(run_campaign(options, tap.tap.get()), vbr::TransientError);
    }
    EXPECT_EQ(faults.fired("checkpoint"), 1u);
    // The previous checkpoint survived the aborted save (atomic replace).
    const CheckpointData ckpt = load_checkpoint(files.checkpoint());
    EXPECT_EQ(ckpt.next_source, 4u);

    options.faults = nullptr;
    options.resume = true;
    TapPair resumed_tap;
    const auto resumed = run_campaign(options, resumed_tap.tap.get());
    EXPECT_TRUE(resumed.resumed);
    EXPECT_EQ(resumed.resumed_at_source, 4u);
    EXPECT_EQ(resumed.trace_hash, ref_result.trace_hash) << "threads=" << threads;
    EXPECT_EQ(sink_bytes(*resumed_tap.tap), sink_bytes(*ref_tap.tap));
  }
}

TEST(CampaignTest, TornTraceTailIsTruncatedOnResume) {
  TempCampaignFiles ref_files("camp_torn_ref");
  TapPair ref_tap;
  const auto ref_result =
      run_campaign(small_campaign(ref_files), ref_tap.tap.get());

  TempCampaignFiles files("camp_torn");
  auto options = small_campaign(files);
  FaultPlan plan;
  plan.faults.push_back({"checkpoint", 1, FaultKind::kTransient, 1});
  FaultInjector faults(std::move(plan));
  options.faults = &faults;
  {
    TapPair tap;
    EXPECT_THROW(run_campaign(options, tap.tap.get()), vbr::TransientError);
  }
  // Simulate the torn final block a crash leaves: garbage past the last
  // durable sample.
  {
    std::ofstream torn(files.trace(), std::ios::binary | std::ios::app);
    torn.write("GARBAGE-TAIL-BYTES", 18);
  }

  options.faults = nullptr;
  options.resume = true;
  TapPair resumed_tap;
  const auto resumed = run_campaign(options, resumed_tap.tap.get());
  EXPECT_EQ(resumed.trace_hash, ref_result.trace_hash);
  EXPECT_EQ(sink_bytes(*resumed_tap.tap), sink_bytes(*ref_tap.tap));

  // And the finished trace must be exactly readable: count backed in full.
  trace::ChunkedTraceReader reader(files.trace());
  std::vector<double> block(4096);
  std::uint64_t total = 0;
  while (const auto got = reader.read(block)) total += got;
  EXPECT_EQ(total, options.plan.num_sources * options.plan.frames_per_source);
}

TEST(CampaignTest, ResumeWithDifferentPlanIsRejected) {
  TempCampaignFiles files("camp_mismatch");
  auto options = small_campaign(files);
  FaultPlan plan;
  plan.faults.push_back({"checkpoint", 1, FaultKind::kTransient, 1});
  FaultInjector faults(std::move(plan));
  options.faults = &faults;
  EXPECT_THROW(run_campaign(options), vbr::TransientError);

  options.faults = nullptr;
  options.resume = true;
  options.plan.seed = 2024;  // different campaign
  EXPECT_THROW(run_campaign(options), vbr::IoError);
}

TEST(CampaignTest, ResumeWithTapNeedsSinkStateInCheckpoint) {
  TempCampaignFiles files("camp_tapless");
  auto options = small_campaign(files);
  FaultPlan plan;
  plan.faults.push_back({"checkpoint", 1, FaultKind::kTransient, 1});
  FaultInjector faults(std::move(plan));
  options.faults = &faults;
  EXPECT_THROW(run_campaign(options), vbr::TransientError);  // tapless run

  options.faults = nullptr;
  options.resume = true;
  TapPair tap;
  EXPECT_THROW(run_campaign(options, tap.tap.get()), vbr::IoError);
}

TEST(CampaignTest, TransientTapFaultIsAbsorbedByRetry) {
  TempCampaignFiles ref_files("camp_retry_ref");
  const auto ref_result = run_campaign(small_campaign(ref_files));

  TempCampaignFiles files("camp_retry");
  auto options = small_campaign(files);
  options.failure.max_attempts = 3;

  FaultPlan plan;
  plan.faults.push_back({"tap", 0, FaultKind::kTransient, 1});
  FaultInjector faults(std::move(plan));
  stream::StreamingMoments moments;
  FaultySink tap(moments.clone_empty(), &faults, "tap");

  const auto result = run_campaign(options, &tap);
  EXPECT_EQ(result.trace_hash, ref_result.trace_hash);
  EXPECT_EQ(result.stats.transient_retries, 1u);
  EXPECT_TRUE(result.stats.failures.empty());
  EXPECT_EQ(tap.count(),
            options.plan.num_sources * options.plan.frames_per_source);
}

TEST(CampaignTest, PermanentTapFaultQuarantinesOnlyThatSource) {
  TempCampaignFiles files("camp_quarantine");
  auto options = small_campaign(files);
  options.failure.quarantine = true;
  options.plan.threads = 1;  // source 0 performs tap push op 0

  FaultPlan plan;
  plan.faults.push_back({"tap", 0, FaultKind::kPermanent, 1});
  FaultInjector faults(std::move(plan));
  stream::StreamingMoments moments;
  FaultySink tap(moments.clone_empty(), &faults, "tap");

  const auto result = run_campaign(options, &tap);
  ASSERT_EQ(result.stats.failures.size(), 1u);
  EXPECT_EQ(result.stats.failures[0].source_index, 0u);
  EXPECT_EQ(result.stats.failures[0].attempts, 1u);
  EXPECT_NE(result.stats.failures[0].error.find("injected permanent"),
            std::string::npos);
  EXPECT_EQ(result.stats.frames,
            (options.plan.num_sources - 1) * options.plan.frames_per_source);

  // The quarantined source's trace slot is all zeros; the others are not.
  trace::ChunkedTraceReader reader(files.trace());
  std::vector<double> slot(options.plan.frames_per_source);
  ASSERT_EQ(reader.read(slot), slot.size());
  for (const double x : slot) ASSERT_EQ(x, 0.0);
  ASSERT_EQ(reader.read(slot), slot.size());
  double sum = 0.0;
  for (const double x : slot) sum += x;
  EXPECT_GT(sum, 0.0);
}

/// Run `options` with a FaultySink over a moments+ACF tap scheduled by
/// `plan`; require it to throw a permanent fault naming `site` and to leave
/// the checkpoint after the first batch; then resume fault-free and require
/// the reference trace hash and sink bytes. The trace and tap are ahead of
/// that checkpoint when the throw escapes (the sources committed before the
/// failing one), as after a kill; resume truncates and restores them.
/// `committed`, when set, is how many sources the trace must hold when the
/// throw escapes.
void expect_fault_then_bit_identical_resume(CampaignOptions options, FaultPlan plan,
                                            const std::string& site,
                                            const std::optional<std::size_t>& committed,
                                            const TempCampaignFiles& reference_files,
                                            const CampaignResult& reference,
                                            const std::string& reference_sink) {
  FaultInjector faults(std::move(plan));
  {
    TapPair pair;
    FaultySink tap(pair.tap->clone_empty(), &faults, "tap");
    try {
      run_campaign(options, &tap);
      ADD_FAILURE() << "expected the " << site << " fault to escape";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("site '" + site + "'"), std::string::npos)
          << e.what();
    }
  }
  EXPECT_EQ(faults.fired(site), 1u);
  EXPECT_EQ(load_checkpoint(options.checkpoint_path).next_source,
            options.checkpoint_every_sources);
  if (committed) {
    const std::size_t source_bytes = options.plan.frames_per_source * sizeof(double);
    const std::uintmax_t header = std::filesystem::file_size(reference_files.trace()) -
                                  options.plan.num_sources * source_bytes;
    EXPECT_EQ(std::filesystem::file_size(options.trace_path),
              header + *committed * source_bytes);
  }

  options.resume = true;
  TapPair pair;
  FaultInjector none(FaultPlan{});
  FaultySink tap(pair.tap->clone_empty(), &none, "tap");
  const auto resumed = run_campaign(options, &tap);
  EXPECT_TRUE(resumed.resumed);
  EXPECT_EQ(resumed.resumed_at_source, options.checkpoint_every_sources);
  EXPECT_EQ(resumed.trace_hash, reference.trace_hash);
  EXPECT_EQ(sink_bytes(tap), reference_sink);
}

TEST(CampaignTest, PermanentTapFaultMidBatchThrowsAndResumesBitIdentically) {
  // Quarantine off. Batches are sources {0, 1, 2} and {3, 4, 5}; the fifth
  // push (op 4) fails, which is in the second batch for any thread count
  // (each batch joins before the next starts). On one thread it is source
  // 4, so source 3 is already in the trace and the tap when the error
  // escapes.
  TempCampaignFiles ref_files("camp_midbatch_ref");
  auto ref = small_campaign(ref_files);
  ref.checkpoint_every_sources = 3;
  TapPair ref_pair;
  const auto reference = run_campaign(ref, ref_pair.tap.get());

  for (const std::size_t threads : {1u, 2u, 4u}) {
    TempCampaignFiles files("camp_midbatch");
    auto options = small_campaign(files);
    options.checkpoint_every_sources = 3;
    options.plan.threads = threads;
    FaultPlan plan;
    plan.faults.push_back({"tap", 4, FaultKind::kPermanent, 1});
    SCOPED_TRACE("threads=" + std::to_string(threads));
    expect_fault_then_bit_identical_resume(
        options, std::move(plan), "tap",
        threads == 1 ? std::optional<std::size_t>(4) : std::nullopt, ref_files, reference,
        sink_bytes(*ref_pair.tap));
  }
}

TEST(CampaignTest, TapMergeFaultStopsLaterCommitsAndResumesBitIdentically) {
  // Merges run in source order on the committing thread, so merge op 4 is
  // source 4's for any thread count: sources 0-3 are committed, source 4's
  // merge throws, and nothing after it reaches the trace.
  TempCampaignFiles ref_files("camp_mergefault_ref");
  auto ref = small_campaign(ref_files);
  ref.checkpoint_every_sources = 3;
  TapPair ref_pair;
  const auto reference = run_campaign(ref, ref_pair.tap.get());

  for (const std::size_t threads : {1u, 2u, 4u}) {
    TempCampaignFiles files("camp_mergefault");
    auto options = small_campaign(files);
    options.checkpoint_every_sources = 3;
    options.plan.threads = threads;
    FaultPlan plan;
    plan.faults.push_back({"tap.merge", 4, FaultKind::kPermanent, 1});
    SCOPED_TRACE("threads=" + std::to_string(threads));
    expect_fault_then_bit_identical_resume(options, std::move(plan), "tap.merge", 4, ref_files,
                                           reference, sink_bytes(*ref_pair.tap));
  }
}

TEST(CampaignTest, SourceDeadlineBoundsTheRetryLoop) {
  TempCampaignFiles files("camp_deadline");
  auto options = small_campaign(files);
  options.plan.num_sources = 1;
  options.plan.threads = 1;
  options.failure.max_attempts = 1000;
  options.failure.backoff_seconds = 0.02;
  options.failure.source_deadline_seconds = 0.05;
  options.failure.quarantine = true;

  FaultPlan plan;
  plan.faults.push_back({"tap", 0, FaultKind::kTransient, 1000000});
  FaultInjector faults(std::move(plan));
  stream::StreamingMoments moments;
  FaultySink tap(moments.clone_empty(), &faults, "tap");

  const auto result = run_campaign(options, &tap);
  ASSERT_EQ(result.stats.failures.size(), 1u);
  EXPECT_NE(result.stats.failures[0].error.find("deadline"), std::string::npos);
  // The deadline, not the attempt budget, stopped the loop.
  EXPECT_LT(result.stats.failures[0].attempts, 1000u);
  EXPECT_GE(result.stats.failures[0].attempts, 2u);
}

// ---------------------------------------------------------------------------
// Trace writer under real disk faults (the writer half of the matrix): each
// fault is raised by the kernel on the writer's own descriptor.
// ---------------------------------------------------------------------------

TEST(TraceWriterFaultTest, EnospcSurfacesAsIoErrorNamingThePath) {
  // Every write to /dev/full fails with ENOSPC, so the header already does.
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  try {
    trace::ChunkedTraceWriter writer("/dev/full", 8, 1.0 / 24.0);
    FAIL() << "a write to /dev/full succeeded";
  } catch (const vbr::IoError& e) {
    EXPECT_NE(std::string(e.what()).find("/dev/full"), std::string::npos) << e.what();
  }
}

TEST(TraceWriterFaultTest, ShortWriteSurfacesAsIoErrorOnAppend) {
  // A file-size limit three samples past the header: the append's write
  // comes back short, and the retry of the rest fails with EFBIG.
  const auto path = std::filesystem::temp_directory_path() / "vbr_fault_fsize.trace";
  trace::ChunkedTraceWriter writer(path, 8, 1.0 / 24.0);
  const std::vector<double> samples(8, 100.0);
  std::optional<std::string> error;
  {
    test::FileSizeLimit limit(writer.header_bytes() + 3 * sizeof(double));
    try {
      writer.append(samples);
    } catch (const vbr::IoError& e) {
      error = e.what();
    }
  }
  ASSERT_TRUE(error.has_value()) << "append past the file-size limit succeeded";
  EXPECT_NE(error->find(path.string()), std::string::npos) << *error;
  EXPECT_NE(error->find("File too large"), std::string::npos) << *error;
  // The short write landed; the retry of the rest is what failed.
  EXPECT_EQ(std::filesystem::file_size(path), writer.header_bytes() + 3 * sizeof(double));
  std::filesystem::remove(path);
}

TEST(TraceWriterFaultTest, TornFinalBlockIsCaughtByFinish) {
  // Every append succeeded, then the file lost its last bytes behind the
  // writer's back: only finish()'s size check can see it.
  const auto path = std::filesystem::temp_directory_path() / "vbr_fault_torn.trace";
  trace::ChunkedTraceWriter writer(path, 8, 1.0 / 24.0);
  writer.append(std::vector<double>(8, 100.0));
  std::filesystem::resize_file(path, std::filesystem::file_size(path) - 4);
  EXPECT_THROW(writer.finish(), vbr::IoError);
  std::filesystem::remove(path);
}

TEST(TraceWriterResumeTest, RejectsFilesShorterThanTheCheckpointClaims) {
  const auto path =
      std::filesystem::temp_directory_path() / "vbr_resume_short.trace";
  {
    trace::ChunkedTraceWriter writer(path, 16, 1.0 / 24.0);
    writer.append(std::vector<double>(4, 1.0));
    writer.flush();
  }  // destroyed unfinished: 4 of 16 samples on disk
  EXPECT_THROW(trace::ChunkedTraceWriter::resume(path, 16, 8), vbr::IoError);
  EXPECT_THROW(trace::ChunkedTraceWriter::resume(path, 12, 4), vbr::IoError);
  auto writer = trace::ChunkedTraceWriter::resume(path, 16, 4);
  writer.append(std::vector<double>(12, 2.0));
  writer.finish();
  trace::ChunkedTraceReader reader(path);
  std::vector<double> all(16);
  ASSERT_EQ(reader.read(all), 16u);
  EXPECT_EQ(all[3], 1.0);
  EXPECT_EQ(all[4], 2.0);
  std::filesystem::remove(path);
}

TEST(TraceWriterResumeTest, ResumingACompleteTraceFinishesWithoutAppending) {
  // A run killed after its last append resumes with nothing left to write;
  // finish() must still see the whole payload on disk.
  const auto path =
      std::filesystem::temp_directory_path() / "vbr_resume_complete.trace";
  {
    trace::ChunkedTraceWriter writer(path, 8, 1.0 / 24.0);
    writer.append(std::vector<double>(8, 3.0));
  }  // destroyed unfinished, every sample on disk
  auto writer = trace::ChunkedTraceWriter::resume(path, 8, 8);
  EXPECT_NO_THROW(writer.finish());
  std::filesystem::remove(path);
}

TEST(TraceWriterDurabilityTest, DurableWriterProducesIdenticalBytes) {
  const auto plain_path =
      std::filesystem::temp_directory_path() / "vbr_durable_a.trace";
  const auto durable_path =
      std::filesystem::temp_directory_path() / "vbr_durable_b.trace";
  trace::TraceWriterOptions durable_options;
  durable_options.durable = true;
  durable_options.sync_every_samples = 8;
  const std::vector<double> samples(32, 7.0);
  {
    trace::ChunkedTraceWriter plain(plain_path, 32, 1.0 / 24.0);
    plain.append(samples);
    plain.finish();
    trace::ChunkedTraceWriter durable(durable_path, 32, 1.0 / 24.0, "bytes/frame",
                                      durable_options);
    durable.append(samples);
    durable.finish();
  }
  std::ifstream a(plain_path, std::ios::binary);
  std::ifstream b(durable_path, std::ios::binary);
  const std::string bytes_a((std::istreambuf_iterator<char>(a)),
                            std::istreambuf_iterator<char>());
  const std::string bytes_b((std::istreambuf_iterator<char>(b)),
                            std::istreambuf_iterator<char>());
  EXPECT_EQ(bytes_a, bytes_b);
  std::filesystem::remove(plain_path);
  std::filesystem::remove(durable_path);
}

TEST(TraceWriterDurabilityTest, FailedFsyncThrowsFromFlush) {
  // fsync(2) on /dev/null fails with EINVAL, a stand-in for a disk that
  // refuses a flush: a durable trace must report it, not carry on.
  trace::TraceWriterOptions durable_options;
  durable_options.durable = true;
  trace::ChunkedTraceWriter writer("/dev/null", 8, 1.0 / 24.0, "bytes/frame",
                                   durable_options);
  writer.append(std::vector<double>(4, 1.0));
  EXPECT_THROW(writer.flush(), vbr::IoError);
}

}  // namespace
}  // namespace vbr::run
