// Tests for the crash-safety foundations: CRC-32/FNV-1a checksums, Rng state
// round-trips, atomic file replacement, the 0-ulp sink save/restore contract
// across every streaming estimator, and the checkpoint envelope (including
// its rejection of truncated, forged and version-skewed files).
#include "vbr/run/checkpoint.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "vbr/common/atomic_file.hpp"
#include "vbr/common/checksum.hpp"
#include "vbr/common/error.hpp"
#include "vbr/common/rng.hpp"
#include "vbr/model/fgn_generator.hpp"
#include "vbr/service/governor.hpp"
#include "vbr/service/service_checkpoint.hpp"
#include "vbr/service/traffic_service.hpp"
#include "vbr/stream/acf.hpp"
#include "vbr/stream/moments.hpp"
#include "vbr/stream/quantiles.hpp"
#include "vbr/stream/sink.hpp"
#include "vbr/stream/variance_time.hpp"
#include "vbr/stream/welch.hpp"

namespace vbr::run {
namespace {

TEST(ChecksumTest, Crc32MatchesTheZlibReferenceVector) {
  // CRC-32/ISO-HDLC check value: crc32("123456789") == 0xCBF43926. Matching
  // it means Python's zlib.crc32 can forge/craft corpus seeds for the
  // fuzzer, and any zlib-compatible tool can validate a checkpoint.
  const char* data = "123456789";
  EXPECT_EQ(crc32(data, 9), 0xCBF43926u);
  EXPECT_EQ(crc32("", 0), 0u);
  // Seed chaining: crc32(a ++ b) == crc32(b, crc32(a)).
  EXPECT_EQ(crc32(data + 4, 5, crc32(data, 4)), 0xCBF43926u);
}

/// The textbook one-byte-at-a-time CRC-32, bit by bit: the definition the
/// table-driven crc32() must reproduce.
std::uint32_t crc32_bitwise(const unsigned char* data, std::size_t size, std::uint32_t seed) {
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    c ^= data[i];
    for (int bit = 0; bit < 8; ++bit) c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(ChecksumTest, Crc32MatchesBitwiseReferenceAtEveryLengthAndAlignment) {
  // Word-at-a-time CRC has a bulk loop and a byte tail: every length 0..1024
  // crosses both, every start offset 0..7 shifts the word boundaries, and
  // seeded calls must chain across any split point.
  Rng rng(32);
  std::vector<unsigned char> buf(1024 + 8);
  for (auto& b : buf) b = static_cast<unsigned char>(rng() & 0xFFu);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    const unsigned char* p = buf.data() + offset;
    for (std::size_t len = 0; len <= 1024; ++len) {
      ASSERT_EQ(crc32(p, len), crc32_bitwise(p, len, 0)) << "offset " << offset << " len " << len;
    }
  }
  for (const std::uint32_t seed : {0u, 1u, 0xCBF43926u, 0xFFFFFFFFu}) {
    for (const std::size_t split : {std::size_t{0}, std::size_t{3}, std::size_t{8},
                                    std::size_t{13}, std::size_t{512}, std::size_t{1024}}) {
      const std::uint32_t head = crc32(buf.data(), split, seed);
      EXPECT_EQ(crc32(buf.data() + split, 1024 - split, head),
                crc32_bitwise(buf.data(), 1024, seed))
          << "seed " << seed << " split " << split;
    }
  }
}

TEST(ChecksumTest, Fnv1aIsChunkingInvariant) {
  const std::vector<double> samples{1.5, -0.25, 3.75e9, 0.0};
  Fnv1a whole;
  whole.update(std::span<const double>(samples));
  Fnv1a pieces;
  pieces.update(std::span<const double>(samples).first(1));
  pieces.update(std::span<const double>(samples).subspan(1));
  EXPECT_EQ(whole.digest(), pieces.digest());

  // Resuming from a digest continues the same hash stream.
  Fnv1a prefix;
  prefix.update(std::span<const double>(samples).first(2));
  Fnv1a resumed(prefix.digest());
  resumed.update(std::span<const double>(samples).subspan(2));
  EXPECT_EQ(resumed.digest(), whole.digest());
}

TEST(RngStateTest, StateRoundTripContinuesTheStream) {
  Rng original(20260805);
  for (int i = 0; i < 17; ++i) (void)original();
  Rng copy = Rng::from_state(original.state());
  for (int i = 0; i < 100; ++i) EXPECT_EQ(original(), copy());
}

TEST(RngStateTest, SplitChildrenRoundTripThroughState) {
  Rng master(1994);
  Rng child = master.split();
  Rng restored = Rng::from_state(child.state());
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(child.uniform(), restored.uniform());
    EXPECT_EQ(child.normal(), restored.normal());
  }
}

TEST(AtomicFileTest, ReplacesContentAtomically) {
  const auto path = std::filesystem::temp_directory_path() / "vbr_atomic_test.txt";
  write_file_atomic(path, "first");
  write_file_atomic(path, "second");
  std::ifstream in(path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(content, "second");
  EXPECT_FALSE(std::filesystem::exists(path.string() + ".tmp"));
  // A stream-form fill that throws halfway leaves the destination and no
  // temp sibling behind.
  EXPECT_THROW(write_file_atomic(path,
                                 [](std::ostream& out) {
                                   out << "third, torn";
                                   throw IoError("fill failed");
                                 }),
               vbr::IoError);
  std::ifstream again(path);
  EXPECT_EQ(std::string((std::istreambuf_iterator<char>(again)),
                        std::istreambuf_iterator<char>()),
            "second");
  EXPECT_FALSE(std::filesystem::exists(path.string() + ".tmp"));
  std::filesystem::remove(path);
}

TEST(AtomicFileTest, FailureThrowsIoErrorAndLeavesNoTemp) {
  const auto missing_dir =
      std::filesystem::temp_directory_path() / "vbr_no_such_dir" / "file.txt";
  EXPECT_THROW(write_file_atomic(missing_dir, "x"), vbr::IoError);
}

TEST(AtomicFileTest, DurableWriteSyncsTheDirectory) {
  const auto dir = std::filesystem::temp_directory_path();
  const auto path = dir / "vbr_atomic_durable_test.txt";
  write_file_atomic(path, "durable", /*durable=*/true);
  std::ifstream in(path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(content, "durable");
  std::filesystem::remove(path);
  // A bare file name lives in the working directory.
  EXPECT_NO_THROW(fsync_parent_directory("bare_name.txt"));
  EXPECT_THROW(fsync_parent_directory(dir / "vbr_no_such_dir" / "file.txt"), vbr::IoError);
}

TEST(OutputFileTest, ModesSeeksAndCheckedErrors) {
  const auto path = std::filesystem::temp_directory_path() / "vbr_output_file_test.bin";
  const auto read_all = [&] {
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  };
  {
    // Truncate mode writes at the offset, so a stream over it can patch.
    OutputFile file(path, OutputFile::Mode::kTruncate);
    std::ostream out(&file);
    out << "xxxx-body";
    EXPECT_EQ(out.tellp(), std::streampos(9));
    out.seekp(0);
    out << "head";
    EXPECT_TRUE(out.good());
    file.close();
    EXPECT_FALSE(file.is_open());
  }
  EXPECT_EQ(read_all(), "head-body");
  {
    // Existing mode keeps the bytes and appends after a truncation.
    OutputFile file(path, OutputFile::Mode::kExisting);
    file.truncate(4);
    file.write("+tail");
    file.close();
  }
  EXPECT_EQ(read_all(), "head+tail");
  {
    // Append mode empties the file, then every write lands at its end.
    OutputFile file(path, OutputFile::Mode::kAppend);
    OutputFile moved = std::move(file);
    moved.write("a");
    moved.write("b");
    moved.close();
  }
  EXPECT_EQ(read_all(), "ab");
  std::filesystem::remove(path);
  EXPECT_THROW({ OutputFile missing(path, OutputFile::Mode::kExisting); }, vbr::IoError);
  // fsync(2) on /dev/null fails with EINVAL, a stand-in for a disk that
  // refuses a flush.
  OutputFile null_file("/dev/null", OutputFile::Mode::kTruncate);
  null_file.write("bytes");
  EXPECT_THROW(null_file.sync_file(), vbr::IoError);
}

// ---------------------------------------------------------------------------
// Sink save/restore: the 0-ulp contract. For every estimator, for several
// random split points: push a prefix, save, restore into a fresh sink, push
// the suffix into both, and require byte-identical serialized states (which
// subsumes every internal accumulator matching to the last bit).
// ---------------------------------------------------------------------------

std::string serialized(const stream::Sink& sink) {
  std::ostringstream out(std::ios::binary);
  sink.save(out);
  return out.str();
}

void check_save_restore_roundtrip(stream::Sink& original, stream::Sink& restored_into,
                                  const std::vector<double>& samples,
                                  std::size_t split) {
  const std::span<const double> all(samples);
  original.push(all.first(split));

  std::istringstream state(serialized(original), std::ios::binary);
  restored_into.restore(state);
  ASSERT_EQ(serialized(restored_into), serialized(original));

  original.push(all.subspan(split));
  restored_into.push(all.subspan(split));
  EXPECT_EQ(serialized(restored_into), serialized(original))
      << original.kind() << " diverged after restore at split " << split;
  EXPECT_EQ(restored_into.count(), original.count());
}

std::vector<double> lognormal_samples(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> samples(n);
  for (auto& x : samples) x = std::exp(2.0 + 0.5 * rng.normal()) * 100.0;
  return samples;
}

TEST(SinkSaveRestoreTest, AllSinksRoundTripAtZeroUlpAcrossRandomPrefixes) {
  Rng split_rng(7);
  const auto samples = lognormal_samples(6000, 42);
  for (int trial = 0; trial < 8; ++trial) {
    const auto split = static_cast<std::size_t>(split_rng.uniform() * 5999.0);

    const auto make_all = [] {
      std::vector<std::unique_ptr<stream::Sink>> sinks;
      sinks.push_back(std::make_unique<stream::StreamingMoments>());
      sinks.push_back(std::make_unique<stream::StreamingQuantiles>());
      sinks.push_back(std::make_unique<stream::StreamingAcf>(32));
      sinks.push_back(std::make_unique<stream::StreamingVarianceTime>());
      sinks.push_back(std::make_unique<stream::StreamingWelchPeriodogram>());
      return sinks;
    };
    auto originals = make_all();
    auto fresh = make_all();
    for (std::size_t s = 0; s < originals.size(); ++s) {
      check_save_restore_roundtrip(*originals[s], *fresh[s], samples, split);
    }
  }
}

TEST(SinkSaveRestoreTest, SinkChainRoundTripsChildrenInOrder) {
  stream::StreamingMoments m1, m2;
  stream::StreamingAcf a1(16), a2(16);
  stream::SinkChain original = stream::chain(m1, a1);
  stream::SinkChain restored = stream::chain(m2, a2);
  const auto samples = lognormal_samples(1000, 3);
  check_save_restore_roundtrip(original, restored, samples, 400);
  EXPECT_EQ(m1.count(), m2.count());
  EXPECT_DOUBLE_EQ(m1.mean(), m2.mean());
}

TEST(SinkSaveRestoreTest, MismatchedKindOrConfigurationIsRejectedUnchanged) {
  stream::StreamingMoments moments;
  moments.push_one(5.0);
  const std::string moments_state = serialized(moments);

  // Wrong kind.
  stream::StreamingAcf acf(8);
  std::istringstream wrong_kind(moments_state, std::ios::binary);
  EXPECT_THROW(acf.restore(wrong_kind), vbr::IoError);

  // Wrong configuration (different max_lag).
  stream::StreamingAcf acf16(16);
  acf16.push_one(1.0);
  stream::StreamingAcf acf8(8);
  std::istringstream wrong_config(serialized(acf16), std::ios::binary);
  EXPECT_THROW(acf8.restore(wrong_config), vbr::IoError);

  // Truncated state.
  std::istringstream truncated(moments_state.substr(0, moments_state.size() / 2),
                               std::ios::binary);
  stream::StreamingMoments fresh;
  EXPECT_THROW(fresh.restore(truncated), vbr::IoError);
}

// ---------------------------------------------------------------------------
// Checkpoint envelope.
// ---------------------------------------------------------------------------

CheckpointData sample_checkpoint() {
  CheckpointData data;
  data.plan_fingerprint = 0xfeedface12345678ULL;
  data.num_sources = 6;
  data.frames_per_source = 1024;
  data.seed = 1994;
  data.next_source = 4;
  data.samples_written = 4 * 1024;
  data.trace_hash_state = 0x12345678abcdef01ULL;
  data.bytes = 1.25e9;
  data.transient_retries = 3;
  engine::SourceFailure failure;
  failure.source_index = 1;
  failure.attempts = 3;
  failure.error = "transient fault persisted across 3 attempts: disk full";
  data.failures.push_back(failure);
  Rng master(1994);
  for (int i = 0; i < 2; ++i) data.stream_states.push_back(master.split().state());
  data.has_sink = true;
  data.sink_state = "pretend sink bytes";
  return data;
}

TEST(CheckpointTest, EncodeParseRoundTrip) {
  const CheckpointData data = sample_checkpoint();
  const std::string bytes = encode_checkpoint(data);
  std::istringstream in(bytes, std::ios::binary);
  const CheckpointData parsed = parse_checkpoint(in, "test");

  EXPECT_EQ(parsed.plan_fingerprint, data.plan_fingerprint);
  EXPECT_EQ(parsed.num_sources, data.num_sources);
  EXPECT_EQ(parsed.frames_per_source, data.frames_per_source);
  EXPECT_EQ(parsed.seed, data.seed);
  EXPECT_EQ(parsed.next_source, data.next_source);
  EXPECT_EQ(parsed.samples_written, data.samples_written);
  EXPECT_EQ(parsed.trace_hash_state, data.trace_hash_state);
  EXPECT_DOUBLE_EQ(parsed.bytes, data.bytes);
  EXPECT_EQ(parsed.transient_retries, data.transient_retries);
  ASSERT_EQ(parsed.failures.size(), 1u);
  EXPECT_EQ(parsed.failures[0].source_index, 1u);
  EXPECT_EQ(parsed.failures[0].attempts, 3u);
  EXPECT_EQ(parsed.failures[0].error, data.failures[0].error);
  EXPECT_EQ(parsed.stream_states, data.stream_states);
  EXPECT_TRUE(parsed.has_sink);
  EXPECT_EQ(parsed.sink_state, data.sink_state);
}

TEST(CheckpointTest, SaveLoadThroughTheFilesystem) {
  const auto path = std::filesystem::temp_directory_path() / "vbr_ckpt_test.ckpt";
  const CheckpointData data = sample_checkpoint();
  save_checkpoint(path, data);
  const CheckpointData loaded = load_checkpoint(path);
  EXPECT_EQ(loaded.trace_hash_state, data.trace_hash_state);
  EXPECT_EQ(loaded.stream_states, data.stream_states);
  std::filesystem::remove(path);
}

TEST(CheckpointTest, EveryTruncationIsRejected) {
  const std::string bytes = encode_checkpoint(sample_checkpoint());
  // Every strict prefix must throw IoError — never crash, never return
  // partial state.
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    std::istringstream in(bytes.substr(0, len), std::ios::binary);
    EXPECT_THROW(parse_checkpoint(in, "trunc"), vbr::IoError) << "length " << len;
  }
}

TEST(CheckpointTest, SingleBitFlipsAreRejectedByTheCrc) {
  const std::string bytes = encode_checkpoint(sample_checkpoint());
  // Flip one bit in every byte of the payload region (after the 24-byte
  // envelope header): the CRC must catch each one.
  for (std::size_t pos = 24; pos < bytes.size(); pos += 7) {
    std::string corrupt = bytes;
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ 0x10);
    std::istringstream in(corrupt, std::ios::binary);
    EXPECT_THROW(parse_checkpoint(in, "flip"), vbr::IoError) << "byte " << pos;
  }
}

TEST(CheckpointTest, BadMagicAndVersionSkewAreRejected) {
  std::string bytes = encode_checkpoint(sample_checkpoint());
  {
    std::string bad = bytes;
    bad[0] = 'X';
    std::istringstream in(bad, std::ios::binary);
    EXPECT_THROW(parse_checkpoint(in, "magic"), vbr::IoError);
  }
  {
    // Version field is the u32 right after the 8 magic bytes.
    std::string skew = bytes;
    skew[8] = 2;
    std::istringstream in(skew, std::ios::binary);
    EXPECT_THROW(parse_checkpoint(in, "version"), vbr::IoError);
  }
}

TEST(CheckpointTest, ForgedCountsAreRejectedAfterReencoding) {
  // Forging fields and re-sealing with a valid CRC must still fail the
  // field-invariant checks — the CRC is integrity, not authority.
  {
    CheckpointData forged = sample_checkpoint();
    forged.next_source = forged.num_sources + 5;  // progress beyond the plan
    std::istringstream in(encode_checkpoint(forged), std::ios::binary);
    EXPECT_THROW(parse_checkpoint(in, "forged-next"), vbr::IoError);
  }
  {
    CheckpointData forged = sample_checkpoint();
    forged.samples_written += 1;  // disagrees with next_source * frames
    std::istringstream in(encode_checkpoint(forged), std::ios::binary);
    EXPECT_THROW(parse_checkpoint(in, "forged-samples"), vbr::IoError);
  }
  {
    CheckpointData forged = sample_checkpoint();
    forged.stream_states.pop_back();  // count disagrees with progress
    std::istringstream in(encode_checkpoint(forged), std::ios::binary);
    EXPECT_THROW(parse_checkpoint(in, "forged-streams"), vbr::IoError);
  }
  {
    CheckpointData forged = sample_checkpoint();
    forged.failures.resize(40, forged.failures[0]);  // more failures than sources
    std::istringstream in(encode_checkpoint(forged), std::ios::binary);
    EXPECT_THROW(parse_checkpoint(in, "forged-failures"), vbr::IoError);
  }
}

TEST(CheckpointTest, TrailingBytesAreRejected) {
  CheckpointData data = sample_checkpoint();
  // Append a byte inside the payload and re-seal: size/CRC are consistent
  // but the parser must notice unconsumed payload.
  data.sink_state.clear();
  data.has_sink = false;
  std::string bytes = encode_checkpoint(data);
  // Splice one extra payload byte: rebuild size and CRC by hand.
  std::string payload = bytes.substr(24);
  payload.push_back('\0');
  const std::uint64_t size = payload.size();
  const std::uint32_t crc = crc32(payload.data(), payload.size());
  std::string forged = bytes.substr(0, 12);
  forged.append(reinterpret_cast<const char*>(&size), sizeof size);
  forged.append(reinterpret_cast<const char*>(&crc), sizeof crc);
  forged += payload;
  std::istringstream in(forged, std::ios::binary);
  EXPECT_THROW(parse_checkpoint(in, "trailing"), vbr::IoError);
}

TEST(CheckpointTest, PlanFingerprintSeparatesPlans) {
  engine::GenerationPlan plan;
  plan.num_sources = 4;
  plan.frames_per_source = 1024;
  plan.seed = 1994;
  const auto base = plan_fingerprint(plan, 1.0 / 24.0, "bytes/frame");
  EXPECT_EQ(base, plan_fingerprint(plan, 1.0 / 24.0, "bytes/frame"));

  auto changed = plan;
  changed.seed = 1995;
  EXPECT_NE(base, plan_fingerprint(changed, 1.0 / 24.0, "bytes/frame"));
  changed = plan;
  changed.params.hurst = 0.9;
  EXPECT_NE(base, plan_fingerprint(changed, 1.0 / 24.0, "bytes/frame"));
  changed = plan;
  changed.threads = 8;  // threads must NOT affect the fingerprint
  EXPECT_EQ(base, plan_fingerprint(changed, 1.0 / 24.0, "bytes/frame"));
  EXPECT_NE(base, plan_fingerprint(plan, 1.0, "bytes/frame"));
}

// ---------------------------------------------------------------------------
// VBRSRVC1 byte pins: the service checkpoint's bytes are a format, not just a
// round trip. Resume compatibility and the fuzz corpus depend on every byte,
// so the saved file of a fixed fleet is pinned by its FNV-1a digest.

std::uint64_t file_digest(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  const std::string s = bytes.str();
  Fnv1a h;
  h.update(s.data(), s.size());
  return h.digest();
}

service::ServiceConfig pinned_service_config(model::ModelVariant variant,
                                             model::GeneratorBackend backend) {
  service::ServiceConfig config;
  config.num_streams = 24;
  config.seed = 1994;
  config.params.hurst = 0.8;
  config.params.marginal.mu_gamma = 27791.0;
  config.params.marginal.sigma_gamma = 6254.0;
  config.params.marginal.tail_slope = 12.0;
  config.variant = variant;
  config.backend = backend;
  config.tuning.hosking_horizon = 8;
  config.tuning.paxson_window = 64;
  config.tuning.paxson_overlap = 16;
  config.tuning.onoff_mean_active_sessions = 16.0;
  config.threads = 2;
  config.queue_capacity_bytes_per_sec = 24 * 27791.0 * 24.0 / 0.9;
  config.queue_buffer_bytes = 2.0e5;
  return config;
}

TEST(ServiceCheckpointBytesTest, HoskingFleetAcrossTheHorizonIsPinned) {
  // Horizon 8. Streams 1 and 2 pause below it (position 3), stream 3 pauses
  // at it (8), stream 4 retires, stream 5 is quarantined past it (fault at
  // sample 10), the rest run on to 13 and stream 2 catches up to 4.
  namespace fs = std::filesystem;
  const fs::path path = fs::temp_directory_path() / "vbr_checkpoint_pin.ckpt";
  service::TrafficService svc(
      pinned_service_config(model::ModelVariant::kFull, model::GeneratorBackend::kHosking));
  service::GovernorConfig gov_config;
  gov_config.stream_faults = {{5, 10, FaultKind::kPermanent, 1}};
  service::OverloadGovernor governor(svc, gov_config);
  governor.advance_round(3);
  svc.pause(1);
  svc.pause(2);
  governor.advance_round(5);
  svc.pause(3);
  svc.retire(4);
  governor.advance_round(4);
  svc.resume(2);
  governor.advance_round(1);
  ASSERT_EQ(svc.status(5), service::StreamStatus::kQuarantined);
  EXPECT_EQ(svc.stream_position(1), 3u);
  EXPECT_EQ(svc.stream_position(2), 4u);
  EXPECT_EQ(svc.stream_position(3), 8u);
  EXPECT_EQ(svc.stream_position(0), 13u);

  service::save_service_checkpoint(path.string(), svc);
  EXPECT_EQ(file_digest(path), 0xd5c554099fe4e5feULL) << std::hex << file_digest(path);
  service::save_service_checkpoint(path.string(), svc, &governor);
  EXPECT_EQ(file_digest(path), 0x480bf7994bf55d7aULL) << std::hex << file_digest(path);
  fs::remove(path);
}

TEST(ServiceCheckpointBytesTest, EveryBackendAndVariantIsPinned) {
  namespace fs = std::filesystem;
  const fs::path path = fs::temp_directory_path() / "vbr_checkpoint_pin_backends.ckpt";
  struct Case {
    model::ModelVariant variant;
    model::GeneratorBackend backend;
    std::uint64_t pin;
  };
  const Case cases[] = {
      {model::ModelVariant::kIidGammaPareto, model::GeneratorBackend::kHosking, 0xa4997ba746adec90ULL},
      {model::ModelVariant::kGaussianFarima, model::GeneratorBackend::kHosking, 0x25a298bd3ee84904ULL},
      {model::ModelVariant::kFull, model::GeneratorBackend::kPaxson, 0x233be12f5b8bd152ULL},
      {model::ModelVariant::kFull, model::GeneratorBackend::kAggregatedOnOff, 0x1a1407277b3d8291ULL},
  };
  for (const Case& c : cases) {
    service::TrafficService svc(pinned_service_config(c.variant, c.backend));
    svc.advance_round(5);
    svc.pause(7);
    svc.retire(11);
    svc.advance_round(6);
    service::save_service_checkpoint(path.string(), svc);
    EXPECT_EQ(file_digest(path), c.pin)
        << model::generator_backend_name(c.backend) << " variant "
        << static_cast<int>(c.variant) << ": " << std::hex << file_digest(path);
  }
  fs::remove(path);
}

TEST(ServiceCheckpointBytesTest, StreamedLoadRejectsHostileFilesUnchanged) {
  // The load verifies the whole envelope in 1 MiB pieces before it parses a
  // field, so every envelope defect must throw IoError and leave the target
  // service exactly as it was. The payload spans three CRC pieces.
  namespace fs = std::filesystem;
  const fs::path good = fs::temp_directory_path() / "vbr_streamed_load_good.ckpt";
  const fs::path bad = fs::temp_directory_path() / "vbr_streamed_load_bad.ckpt";
  service::ServiceConfig config =
      pinned_service_config(model::ModelVariant::kFull, model::GeneratorBackend::kHosking);
  config.num_streams = 3 * 1024 + 5;
  config.tuning.hosking_horizon = 96;
  service::TrafficService saved(config);
  saved.advance_round(100);
  service::save_service_checkpoint(good.string(), saved);
  std::string bytes;
  {
    std::ifstream in(good, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    bytes = buf.str();
  }
  ASSERT_GT(bytes.size(), kEnvelopeHeaderBytes + (std::size_t{2} << 20));

  service::TrafficService target(config);
  target.advance_round(5);
  const auto state_of = [](const service::TrafficService& s) {
    std::ostringstream out(std::ios::binary);
    s.save_state(out);
    return out.str();
  };
  const std::uint64_t target_hash = target.results_hash();
  const std::string target_state = state_of(target);

  const auto with_size_field = [&](std::uint64_t size) {
    std::string forged = bytes;
    std::memcpy(forged.data() + 12, &size, sizeof size);
    return forged;
  };
  const std::uint64_t payload_size = bytes.size() - kEnvelopeHeaderBytes;
  std::string flipped = bytes;
  flipped[kEnvelopeHeaderBytes + payload_size / 2] ^= 0x01;
  const std::pair<const char*, std::string> cases[] = {
      {"truncated inside the header", bytes.substr(0, 14)},
      {"truncated mid-payload", bytes.substr(0, bytes.size() / 2)},
      {"truncated at the last byte", bytes.substr(0, bytes.size() - 1)},
      {"one flipped payload byte", flipped},
      {"one trailing byte", bytes + '\0'},
      {"size field over the bound",
       with_size_field(service::service_checkpoint_envelope().max_payload + 1)},
      {"size field past the end of the file", with_size_field(payload_size + 4096)},
  };
  for (const auto& [what, corrupt] : cases) {
    SCOPED_TRACE(what);
    {
      std::ofstream out(bad, std::ios::binary | std::ios::trunc);
      out.write(corrupt.data(), static_cast<std::streamsize>(corrupt.size()));
    }
    EXPECT_THROW(service::load_service_checkpoint(bad.string(), target), IoError);
    EXPECT_EQ(target.results_hash(), target_hash);
    EXPECT_TRUE(state_of(target) == target_state);
  }

  // The intact file still loads into the same target.
  service::load_service_checkpoint(good.string(), target);
  EXPECT_EQ(target.results_hash(), saved.results_hash());
  EXPECT_TRUE(state_of(target) == state_of(saved));
  fs::remove(good);
  fs::remove(bad);
}

}  // namespace
}  // namespace vbr::run
