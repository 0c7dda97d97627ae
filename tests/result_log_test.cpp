// Hostile-input and healing tests for the VBRSWPL1 append-only result log:
// round-trip, torn-tail truncation at every cut point, bit-flip rejection,
// version skew, fingerprint mismatch naming both identities, duplicate
// collapse vs conflicting-duplicate rejection, and the envelope record
// framing underneath it all.
#include "vbr/sweep/result_log.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "vbr/common/error.hpp"
#include "vbr/run/envelope.hpp"

namespace vbr::sweep {
namespace {

class TempLog {
 public:
  explicit TempLog(const std::string& tag)
      : path_(std::filesystem::temp_directory_path() / ("vbr_rlog_" + tag + ".log")) {
    std::filesystem::remove(path_);
  }
  ~TempLog() { std::filesystem::remove(path_); }
  const std::filesystem::path& path() const { return path_; }

 private:
  std::filesystem::path path_;
};

ResultLogHeader sample_header() {
  ResultLogHeader header;
  header.sweep_fingerprint = 0x1122334455667788ULL;
  header.shard_fingerprint = 0x99aabbccddeeff00ULL;
  header.total_cells = 16;
  header.shard_count = 4;
  header.shard_index = 1;
  header.first_cell = 4;
  header.end_cell = 8;
  return header;
}

CellRecord done_record(std::uint64_t index) {
  CellRecord record;
  record.cell_index = index;
  record.status = CellStatus::kDone;
  record.result.mean_rate_bps = 5.3e6;
  record.result.capacity_bps = 6.6e6;
  record.result.buffer_bytes = 8192.0;
  record.result.loss_rate = 1.25e-3;
  record.result.mean_queue_bytes = 900.0;
  record.result.max_queue_bytes = 8192.0;
  record.result.overflow_probability = 0.1;
  record.result.required_capacity_bps = 2.0 / 3.0 * 1e7;
  return record;
}

CellRecord quarantined_record(std::uint64_t index) {
  CellRecord record;
  record.cell_index = index;
  record.status = CellStatus::kQuarantined;
  record.failure.kind = FailureKind::kHang;
  record.failure.exit_code = -3;
  record.failure.term_signal = 9;
  record.failure.attempts = 3;
  record.failure.max_rss_kib = 5120;
  record.failure.wall_seconds = 1.0 / 3.0;
  record.failure.message = "watchdog deadline exceeded";
  record.failure.stderr_tail = "noise";
  return record;
}

/// Every field, compared exactly: the log must round-trip at 0 ulp.
void expect_same_record(const CellRecord& got, const CellRecord& want) {
  EXPECT_EQ(got.cell_index, want.cell_index);
  EXPECT_EQ(got.status, want.status);
  if (want.status == CellStatus::kDone) {
    EXPECT_EQ(got.result, want.result);
    return;
  }
  EXPECT_EQ(got.failure.kind, want.failure.kind);
  EXPECT_EQ(got.failure.exit_code, want.failure.exit_code);
  EXPECT_EQ(got.failure.term_signal, want.failure.term_signal);
  EXPECT_EQ(got.failure.attempts, want.failure.attempts);
  EXPECT_EQ(got.failure.max_rss_kib, want.failure.max_rss_kib);
  EXPECT_EQ(got.failure.wall_seconds, want.failure.wall_seconds);
  EXPECT_EQ(got.failure.message, want.failure.message);
  EXPECT_EQ(got.failure.stderr_tail, want.failure.stderr_tail);
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void write_file(const std::filesystem::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// A healthy two-record log's bytes (written through the real writer).
std::string healthy_log_bytes(const ResultLogHeader& header) {
  TempLog log("healthy_tmp");
  ResultLogWriter writer = ResultLogWriter::create(log.path(), header, false);
  writer.append(done_record(4));
  writer.append(quarantined_record(6));
  writer.close();
  return read_file(log.path());
}

ResultLogScan scan_bytes(const std::string& bytes, const ResultLogHeader* expected) {
  std::istringstream in(bytes, std::ios::binary);
  return scan_result_log(in, "test", expected);
}

// ---------------------------------------------------------------------------
// Envelope record framing (the layer the log is built on)

TEST(RecordFraming, RoundTripsAndDetectsTears) {
  const std::string payload = "forty-two bytes of deterministic payload..";
  const std::string frame = vbr::run::seal_record(payload);
  ASSERT_EQ(frame.size(), vbr::run::kRecordFrameBytes + payload.size());

  std::istringstream in(frame, std::ios::binary);
  std::string decoded;
  EXPECT_EQ(vbr::run::read_record(in, 1 << 16, decoded), vbr::run::RecordRead::kRecord);
  EXPECT_EQ(decoded, payload);
  EXPECT_EQ(vbr::run::read_record(in, 1 << 16, decoded),
            vbr::run::RecordRead::kEndOfStream);

  // Every proper prefix is a torn tail, never a record and never a throw.
  for (std::size_t cut = 1; cut < frame.size(); ++cut) {
    std::istringstream torn(frame.substr(0, cut), std::ios::binary);
    EXPECT_EQ(vbr::run::read_record(torn, 1 << 16, decoded),
              vbr::run::RecordRead::kTornTail)
        << "cut at " << cut;
  }

  // A flipped payload byte fails the CRC: torn, not silently accepted.
  std::string flipped = frame;
  flipped[frame.size() - 1] = static_cast<char>(flipped[frame.size() - 1] ^ 1);
  std::istringstream bad(flipped, std::ios::binary);
  EXPECT_EQ(vbr::run::read_record(bad, 1 << 16, decoded),
            vbr::run::RecordRead::kTornTail);

  // An absurd declared size (a torn header read as length) is torn too.
  std::istringstream huge(frame, std::ios::binary);
  EXPECT_EQ(vbr::run::read_record(huge, 8, decoded), vbr::run::RecordRead::kTornTail);
}

// ---------------------------------------------------------------------------
// Scan: round-trip, hostile headers

TEST(ResultLogScan, RoundTripsRecordsAndHeader) {
  const ResultLogHeader header = sample_header();
  const std::string bytes = healthy_log_bytes(header);
  const ResultLogScan scan = scan_bytes(bytes, &header);

  EXPECT_EQ(scan.header, header);
  ASSERT_EQ(scan.records.size(), 2u);
  expect_same_record(scan.records[0], done_record(4));
  expect_same_record(scan.records[1], quarantined_record(6));
  EXPECT_EQ(scan.valid_bytes, bytes.size());
  EXPECT_EQ(scan.torn_bytes, 0u);
  EXPECT_EQ(scan.duplicate_records, 0u);
}

TEST(ResultLogScan, MismatchedSweepFingerprintNamesBothIdentities) {
  const ResultLogHeader header = sample_header();
  const std::string bytes = healthy_log_bytes(header);
  ResultLogHeader expected = header;
  expected.sweep_fingerprint ^= 0xdeadULL;
  try {
    (void)scan_bytes(bytes, &expected);
    FAIL() << "mismatched fingerprint must throw";
  } catch (const IoError& e) {
    char want[17];
    char got[17];
    std::snprintf(want, sizeof want, "%016llx",
                  static_cast<unsigned long long>(expected.sweep_fingerprint));
    std::snprintf(got, sizeof got, "%016llx",
                  static_cast<unsigned long long>(header.sweep_fingerprint));
    const std::string what = e.what();
    EXPECT_NE(what.find(want), std::string::npos) << what;
    EXPECT_NE(what.find(got), std::string::npos) << what;
  }
}

TEST(ResultLogScan, MismatchedShardFingerprintAndShapeAreRejected) {
  const ResultLogHeader header = sample_header();
  const std::string bytes = healthy_log_bytes(header);

  ResultLogHeader wrong_shard = header;
  wrong_shard.shard_fingerprint += 1;
  EXPECT_THROW((void)scan_bytes(bytes, &wrong_shard), IoError);

  ResultLogHeader wrong_shape = header;
  wrong_shape.shard_count = 8;
  wrong_shape.shard_index = 2;
  EXPECT_THROW((void)scan_bytes(bytes, &wrong_shape), IoError);
}

TEST(ResultLogScan, VersionSkewIsRejected) {
  std::string bytes = healthy_log_bytes(sample_header());
  // The u32 version sits right after the 8-byte magic.
  bytes[8] = static_cast<char>(bytes[8] + 1);
  EXPECT_THROW((void)scan_bytes(bytes, nullptr), IoError);
}

TEST(ResultLogScan, HeaderBitFlipsAreRejected) {
  const std::string bytes = healthy_log_bytes(sample_header());
  for (std::size_t i = 0; i < kLogHeaderSealedBytes; ++i) {
    std::string corrupt = bytes;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0x08);
    EXPECT_THROW((void)scan_bytes(corrupt, nullptr), IoError) << "flip at " << i;
  }
}

TEST(ResultLogScan, NonsenseHeaderFieldsAreRejected) {
  // CRC-valid headers whose fields are internally inconsistent are forged
  // or foreign, never crash artifacts: reject before reading any record.
  // encode_log_header seals the header, so each of these passes the
  // envelope checks and fails on its fields alone.
  ResultLogHeader header = sample_header();
  header.end_cell = header.total_cells + 1;  // range escapes the grid
  EXPECT_THROW((void)scan_bytes(encode_log_header(header), nullptr), IoError);
  header = sample_header();
  header.shard_index = header.shard_count;  // slot outside the shard count
  EXPECT_THROW((void)scan_bytes(encode_log_header(header), nullptr), IoError);
  header = sample_header();
  header.total_cells = 0;  // an empty sweep has no log
  EXPECT_THROW((void)scan_bytes(encode_log_header(header), nullptr), IoError);
  // The untouched header scans clean.
  EXPECT_EQ(scan_bytes(encode_log_header(sample_header()), nullptr).header,
            sample_header());
}

// ---------------------------------------------------------------------------
// Scan: torn tails and record corruption

TEST(ResultLogScan, EveryTruncationPointYieldsThePrefix) {
  const ResultLogHeader header = sample_header();
  const std::string bytes = healthy_log_bytes(header);
  for (std::size_t cut = kLogHeaderSealedBytes; cut < bytes.size(); ++cut) {
    const ResultLogScan scan = scan_bytes(bytes.substr(0, cut), &header);
    // Whole records before the cut survive; the remainder is torn.
    EXPECT_EQ(scan.valid_bytes + scan.torn_bytes, cut);
    EXPECT_LE(scan.records.size(), 2u);
    for (const CellRecord& record : scan.records) {
      EXPECT_TRUE(record.cell_index == 4 || record.cell_index == 6);
    }
  }
}

TEST(ResultLogScan, RecordBitFlipTearsTheTail) {
  const ResultLogHeader header = sample_header();
  const std::string bytes = healthy_log_bytes(header);
  // Flip one byte in the second record's payload: record 1 survives, the
  // flipped record (and everything after) is torn.
  std::string corrupt = bytes;
  corrupt[bytes.size() - 3] = static_cast<char>(corrupt[bytes.size() - 3] ^ 0x10);
  const ResultLogScan scan = scan_bytes(corrupt, &header);
  ASSERT_EQ(scan.records.size(), 1u);
  EXPECT_EQ(scan.records[0].cell_index, 4u);
  EXPECT_GT(scan.torn_bytes, 0u);
}

TEST(ResultLogScan, CrcValidOutOfRangeRecordIsCorruptionNotATear) {
  // A record whose CRC checks out but whose cell index is outside the
  // shard's range was never written by a healthy pool: reject loudly.
  const ResultLogHeader header = sample_header();
  TempLog log("outofrange");
  ResultLogWriter writer = ResultLogWriter::create(log.path(), header, false);
  writer.append(done_record(4));
  writer.close();
  std::string bytes = read_file(log.path());
  // Outside the shard's [4, 8), outside the grid's 16 cells, and far out.
  for (const std::uint64_t index : {12u, 16u, 0xffffffffu}) {
    std::ostringstream rogue(std::ios::binary);
    write_cell_record(rogue, done_record(index));
    EXPECT_THROW((void)scan_bytes(bytes + vbr::run::seal_record(rogue.str()), &header),
                 IoError)
        << "cell " << index;
  }
}

TEST(ResultLogScan, CrcValidRecordWithTrailingBytesIsCorruption) {
  const ResultLogHeader header = sample_header();
  for (const CellRecord& record : {done_record(4), quarantined_record(5)}) {
    std::ostringstream payload(std::ios::binary);
    write_cell_record(payload, record);
    const std::string bytes = encode_log_header(header) +
                              vbr::run::seal_record(payload.str() + '\0');
    EXPECT_THROW((void)scan_bytes(bytes, &header), IoError);
  }
}

TEST(ResultLogScan, DuplicatesCollapseConflictsReject) {
  const ResultLogHeader header = sample_header();
  TempLog log("dups");
  ResultLogWriter writer = ResultLogWriter::create(log.path(), header, false);
  writer.append(done_record(4));
  writer.append(done_record(4));  // byte-identical: healed overlap
  writer.close();
  const std::string bytes = read_file(log.path());
  const ResultLogScan scan = scan_bytes(bytes, &header);
  ASSERT_EQ(scan.records.size(), 1u);
  EXPECT_EQ(scan.duplicate_records, 1u);

  // Same cell, different deterministic bytes: the purity contract broke.
  CellRecord conflicting = done_record(4);
  conflicting.result.loss_rate *= 2.0;
  std::ostringstream payload(std::ios::binary);
  write_cell_record(payload, conflicting);
  const std::string poisoned = bytes + vbr::run::seal_record(payload.str());
  EXPECT_THROW((void)scan_bytes(poisoned, &header), IoError);
}

TEST(ResultLogScan, CommittedFuzzSeedsReachTheirRecords) {
  // The fuzzer mutates from these seeds, so a seed that dies in the codec
  // before its named case would leave that case unfuzzed.
  const std::filesystem::path corpus =
      std::filesystem::path(VBR_FUZZ_CORPUS_DIR) / "sweep_result_log";
  const ResultLogScan valid = scan_bytes(read_file(corpus / "valid"), nullptr);
  ASSERT_EQ(valid.records.size(), 2u);
  EXPECT_EQ(valid.records[0].cell_index, 16u);
  EXPECT_EQ(valid.records[0].status, CellStatus::kDone);
  EXPECT_EQ(valid.records[0].result.loss_rate, 1.25e-3);
  EXPECT_EQ(valid.records[1].cell_index, 20u);
  EXPECT_EQ(valid.records[1].failure.message, "watchdog deadline exceeded");
  EXPECT_EQ(valid.torn_bytes, 0u);

  const ResultLogScan duplicate = scan_bytes(read_file(corpus / "duplicate"), nullptr);
  ASSERT_EQ(duplicate.records.size(), 1u);
  EXPECT_EQ(duplicate.records[0].cell_index, 16u);
  EXPECT_EQ(duplicate.duplicate_records, 1u);
  EXPECT_EQ(duplicate.torn_bytes, 0u);
}

// ---------------------------------------------------------------------------
// Recovery: in-place healing

TEST(ResultLogRecover, MissingAndSubHeaderFilesReturnNullopt) {
  const ResultLogHeader header = sample_header();
  TempLog log("missing");
  EXPECT_FALSE(recover_result_log(log.path(), header).has_value());

  // A file torn inside the sealed header carries no salvageable record.
  write_file(log.path(), healthy_log_bytes(header).substr(0, kLogHeaderSealedBytes / 2));
  EXPECT_FALSE(recover_result_log(log.path(), header).has_value());
}

TEST(ResultLogRecover, TornTailIsTruncatedInPlace) {
  const ResultLogHeader header = sample_header();
  TempLog log("truncate");
  const std::string bytes = healthy_log_bytes(header);
  write_file(log.path(), bytes + std::string("\x40\x00\x00\x00\x00\x00\x00", 7));

  const auto scan = recover_result_log(log.path(), header);
  ASSERT_TRUE(scan.has_value());
  EXPECT_EQ(scan->records.size(), 2u);
  // The returned scan reflects the *healed* file: the half-frame tail was
  // truncated away, so nothing torn remains.
  EXPECT_EQ(scan->torn_bytes, 0u);
  EXPECT_EQ(std::filesystem::file_size(log.path()), bytes.size());
  const auto again = recover_result_log(log.path(), header);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->torn_bytes, 0u);
}

TEST(ResultLogRecover, AppendToContinuesAHealedLog) {
  const ResultLogHeader header = sample_header();
  TempLog log("continue");
  {
    ResultLogWriter writer = ResultLogWriter::create(log.path(), header, false);
    writer.append(done_record(4));
    writer.close();
  }
  write_file(log.path(), read_file(log.path()) + "junk");

  const auto scan = recover_result_log(log.path(), header);
  ASSERT_TRUE(scan.has_value());
  ResultLogWriter writer = ResultLogWriter::append_to(log.path(), *scan, false);
  writer.append(done_record(5));
  writer.close();

  const auto final_scan = recover_result_log(log.path(), header);
  ASSERT_TRUE(final_scan.has_value());
  ASSERT_EQ(final_scan->records.size(), 2u);
  EXPECT_EQ(final_scan->records[0].cell_index, 4u);
  EXPECT_EQ(final_scan->records[1].cell_index, 5u);
  EXPECT_EQ(final_scan->torn_bytes, 0u);
}

// ---------------------------------------------------------------------------
// Durability: a failed fsync is an error

// Linux fsync(2) on /dev/null fails with EINVAL, which stands in for a disk
// that refuses a flush.
TEST(ResultLogWriter, DurableCreateThrowsWhenTheHeaderSyncFails) {
  EXPECT_THROW((void)ResultLogWriter::create("/dev/null", sample_header(), true),
               IoError);
}

TEST(ResultLogWriter, DurableAppendThrowsWhenTheSyncFails) {
  ResultLogWriter writer = ResultLogWriter::append_to("/dev/null", ResultLogScan{}, true);
  EXPECT_THROW(writer.append(done_record(4)), IoError);
}

TEST(ResultLogWriter, AFailedSyncPoisonsEveryLaterAppend) {
  // After a failed fsync the log's tail is unknown, so a later append must
  // throw without writing behind it.
  ResultLogWriter writer = ResultLogWriter::append_to("/dev/null", ResultLogScan{}, true);
  EXPECT_THROW(writer.append(done_record(4)), IoError);
  const std::uint64_t written = writer.bytes_written();
  EXPECT_THROW(writer.append(done_record(5)), IoError);
  EXPECT_EQ(writer.bytes_written(), written);
}

}  // namespace
}  // namespace vbr::sweep
