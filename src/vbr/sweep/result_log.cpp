#include "vbr/sweep/result_log.hpp"

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

#include "vbr/common/error.hpp"
#include "vbr/common/serialize.hpp"
#include "vbr/run/envelope.hpp"

namespace vbr::sweep {

namespace {

/// Hard bound on one framed record payload. A settled record is at most
/// index + status + failure header + bounded message/stderr strings, well
/// under this; a larger size field is a torn or forged frame header.
constexpr std::uint64_t kMaxRecordPayload = std::uint64_t{1} << 16;

run::EnvelopeSpec log_envelope() {
  return {kResultLogMagic, kResultLogVersion, kLogHeaderPayloadBytes,
          "sweep result log"};
}

std::string hex16(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

ResultLogHeader parse_log_header(const std::string& body, const std::string& name) {
  const char* what = name.c_str();
  std::istringstream payload(body, std::ios::binary);
  ResultLogHeader header;
  header.sweep_fingerprint = io::read_u64(payload, what);
  header.shard_fingerprint = io::read_u64(payload, what);
  header.total_cells = io::read_u64(payload, what);
  header.shard_count = io::read_u64(payload, what);
  header.shard_index = io::read_u64(payload, what);
  header.first_cell = io::read_u64(payload, what);
  header.end_cell = io::read_u64(payload, what);
  if (header.total_cells == 0 || header.total_cells > kMaxSweepCells) {
    throw IoError(name + ": implausible sweep cell count " +
                  std::to_string(header.total_cells));
  }
  if (header.shard_count == 0 || header.shard_index >= header.shard_count) {
    throw IoError(name + ": result log shard index " +
                  std::to_string(header.shard_index) + " out of range for " +
                  std::to_string(header.shard_count) + " shards");
  }
  if (header.first_cell > header.end_cell ||
      header.end_cell > header.total_cells) {
    throw IoError(name + ": result log cell range [" +
                  std::to_string(header.first_cell) + ", " +
                  std::to_string(header.end_cell) + ") out of bounds");
  }
  return header;
}

/// Fail fast and loudly on a log that belongs to a different sweep or
/// shard: the error names BOTH fingerprints so an operator can tell an
/// edited grid from a misrouted shard file at a glance. Never re-seed.
void require_matching_header(const ResultLogHeader& header,
                             const ResultLogHeader& expected,
                             const std::string& name) {
  if (header.sweep_fingerprint != expected.sweep_fingerprint) {
    throw IoError(name + ": sweep fingerprint mismatch: grid expects " +
                  hex16(expected.sweep_fingerprint) + ", log carries " +
                  hex16(header.sweep_fingerprint) +
                  " (the log belongs to a different sweep grid)");
  }
  if (header.shard_fingerprint != expected.shard_fingerprint) {
    throw IoError(name + ": shard fingerprint mismatch: shard expects " +
                  hex16(expected.shard_fingerprint) + ", log carries " +
                  hex16(header.shard_fingerprint) +
                  " (the log belongs to a different shard plan)");
  }
  if (header != expected) {
    throw IoError(name + ": result log shape disagrees with the sweep plan");
  }
}

}  // namespace

std::string encode_log_header(const ResultLogHeader& header) {
  std::ostringstream payload(std::ios::binary);
  io::write_u64(payload, header.sweep_fingerprint);
  io::write_u64(payload, header.shard_fingerprint);
  io::write_u64(payload, header.total_cells);
  io::write_u64(payload, header.shard_count);
  io::write_u64(payload, header.shard_index);
  io::write_u64(payload, header.first_cell);
  io::write_u64(payload, header.end_cell);
  return run::seal_envelope(log_envelope(), payload.str());
}

ResultLogScan scan_result_log(std::istream& in, const std::string& name,
                              const ResultLogHeader* expected) {
  // Generic istreams cannot report "bytes remaining" after a failed framed
  // read, so measure the stream once up front and track offsets ourselves.
  in.seekg(0, std::ios::end);
  const auto stream_end = in.tellg();
  if (stream_end < 0) throw IoError(name + ": result log is not seekable");
  const std::uint64_t stream_size = static_cast<std::uint64_t>(stream_end);
  in.seekg(0, std::ios::beg);

  ResultLogScan scan;
  const std::string body = run::open_envelope_prefix(in, log_envelope(), name);
  scan.header = parse_log_header(body, name);
  if (expected != nullptr) require_matching_header(scan.header, *expected, name);
  scan.valid_bytes = kLogHeaderSealedBytes;

  std::map<std::uint64_t, CellRecord> settled;
  std::string payload;
  for (;;) {
    const run::RecordRead read = run::read_record(in, kMaxRecordPayload, payload);
    if (read != run::RecordRead::kRecord) break;
    std::istringstream record_stream(payload, std::ios::binary);
    CellRecord record = read_cell_record(record_stream, scan.header.total_cells, name);
    if (record_stream.peek() != std::char_traits<char>::eof()) {
      throw IoError(name + ": result log record has trailing bytes");
    }
    // A CRC-valid record is not a crash artifact, so its content is held to
    // the full contract: in this shard's range, and consistent with any
    // earlier record for the same cell. Byte-identical duplicates are the
    // legitimate trace of a healed duplicate claim or stolen lease (two
    // pools briefly appending the same deterministic cell) and collapse;
    // conflicting ones mean the "pure function of the spec" contract broke
    // and the log cannot be trusted.
    if (record.cell_index < scan.header.first_cell ||
        record.cell_index >= scan.header.end_cell) {
      throw IoError(name + ": result log cell " +
                    std::to_string(record.cell_index) +
                    " outside the shard range [" +
                    std::to_string(scan.header.first_cell) + ", " +
                    std::to_string(scan.header.end_cell) + ")");
    }
    const auto it = settled.find(record.cell_index);
    if (it != settled.end()) {
      const CellRecord& prior = it->second;
      const bool consistent =
          prior.status == record.status &&
          (record.status != CellStatus::kDone || prior.result == record.result);
      if (!consistent) {
        throw IoError(name + ": conflicting duplicate records for cell " +
                      std::to_string(record.cell_index));
      }
      scan.duplicate_records += 1;
    } else {
      settled.emplace(record.cell_index, std::move(record));
    }
    scan.valid_bytes += run::kRecordFrameBytes + payload.size();
  }

  scan.torn_bytes = stream_size - scan.valid_bytes;
  scan.records.reserve(settled.size());
  for (auto& [index, record] : settled) scan.records.push_back(std::move(record));
  return scan;
}

std::optional<ResultLogScan> recover_result_log(const std::filesystem::path& path,
                                                const ResultLogHeader& expected) {
  std::error_code ec;
  const std::uint64_t size = std::filesystem::file_size(path, ec);
  if (ec) return std::nullopt;  // no log yet: the caller starts fresh
  // A file shorter than the sealed header is an append torn inside the
  // header itself; no record can precede the header, so nothing settled is
  // lost by recreating. A *complete* header that fails its CRC or names a
  // different sweep is rejected below instead — recreating would silently
  // discard someone's settled cells.
  if (size < kLogHeaderSealedBytes) return std::nullopt;

  std::ifstream in(path, std::ios::binary);
  if (!in) throw IoError("cannot open sweep result log: " + path.string());
  ResultLogScan scan = scan_result_log(in, path.string(), &expected);
  in.close();
  if (scan.torn_bytes > 0) {
    OutputFile(path, OutputFile::Mode::kExisting).truncate(scan.valid_bytes);
    scan.torn_bytes = 0;
  }
  return scan;
}

ResultLogWriter ResultLogWriter::create(const std::filesystem::path& path,
                                        const ResultLogHeader& header,
                                        bool durable) {
  ResultLogWriter writer(OutputFile(path, OutputFile::Mode::kAppend), durable);
  const std::string sealed = encode_log_header(header);
  writer.file_.write(sealed);
  writer.bytes_written_ = sealed.size();
  if (durable) {
    writer.file_.sync_file();
    fsync_parent_directory(path);  // the new file's entry, not only its bytes
  }
  return writer;
}

ResultLogWriter ResultLogWriter::append_to(const std::filesystem::path& path,
                                           const ResultLogScan& scan,
                                           bool durable) {
  (void)scan;  // the healthy prefix is already on disk; O_APPEND continues it
  return ResultLogWriter(OutputFile(path, OutputFile::Mode::kExisting), durable);
}

void ResultLogWriter::append(const CellRecord& record) {
  VBR_ENSURE(file_.is_open(), "append to a closed sweep result log");
  if (poisoned_) {
    throw IoError("sweep result log: an earlier append failed; the log may be torn");
  }
  std::ostringstream payload(std::ios::binary);
  write_cell_record(payload, record);
  const std::string frame = run::seal_record(payload.str());
  // Set until the frame is written (and synced, when durable): after a
  // failed write or fsync the file's tail is unknown, so nothing may follow.
  poisoned_ = true;
  file_.write(frame);
  bytes_written_ += frame.size();
  if (durable_) file_.sync_file();
  poisoned_ = false;
}

}  // namespace vbr::sweep
