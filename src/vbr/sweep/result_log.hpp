// The VBRSWPL1 append-only result log: O(1) checkpoint cost per settled
// cell, at million-cell scale.
//
// Rewriting a whole-sweep file after every settle would cost O(cells) per
// cell and cap a sweep at thousands of cells, so the log is one sealed
// header followed by one CRC-framed record per settled cell:
//
//   sealed header (run/envelope, magic "VBRSWPL1"):
//     u64 sweep_fingerprint     the grid identity (sweep_plan fingerprint)
//     u64 shard_fingerprint     this shard's split-derived identity
//     u64 total_cells           full-grid cell count
//     u64 shard_count / u64 shard_index
//     u64 first_cell / u64 end_cell   this shard's row-major range [first, end)
//   then per settled cell (run/envelope seal_record):
//     u64 size + u32 CRC-32 + write_cell_record bytes
//
// Appends are a single write(2) of one whole frame, so a SIGKILL at any
// instant leaves at worst a torn *tail*: recovery scans the healthy prefix,
// truncates the tail back to the last whole record, and replays the settled
// cells without re-running them — exactly the PR 4 trace-recovery
// discipline, applied to the sweep checkpoint. A log whose sealed header
// identifies a different grid or shard is rejected with an IoError naming
// both fingerprints (never silently re-seeded); a CRC-valid record with an
// out-of-range index or a conflicting duplicate is corruption, not a crash
// artifact, and rejects the log too. scan_result_log is the pure surface
// fuzz_sweep_result_log drives.
#pragma once

#include <array>
#include <cstdint>
#include <filesystem>
#include <iosfwd>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "vbr/common/atomic_file.hpp"
#include "vbr/sweep/cell_eval.hpp"

namespace vbr::sweep {

inline constexpr std::array<char, 8> kResultLogMagic = {'V', 'B', 'R', 'S',
                                                        'W', 'P', 'L', '1'};
inline constexpr std::uint32_t kResultLogVersion = 1;

/// Identity and shape of one shard's log, sealed into the header. A
/// one-shard sweep directory, the whole grid in one log, is the
/// shard_count == 1 case.
struct ResultLogHeader {
  std::uint64_t sweep_fingerprint = 0;
  std::uint64_t shard_fingerprint = 0;
  std::uint64_t total_cells = 0;
  std::uint64_t shard_count = 1;
  std::uint64_t shard_index = 0;
  std::uint64_t first_cell = 0;
  std::uint64_t end_cell = 0;

  bool operator==(const ResultLogHeader& other) const = default;
};

/// The sealed header: the envelope around 7 u64 fields, which is how every
/// log begins.
std::string encode_log_header(const ResultLogHeader& header);
inline constexpr std::uint64_t kLogHeaderPayloadBytes = 7 * sizeof(std::uint64_t);
inline constexpr std::uint64_t kLogHeaderSealedBytes =
    8 + sizeof(std::uint32_t) + sizeof(std::uint64_t) + sizeof(std::uint32_t) +
    kLogHeaderPayloadBytes;

/// Result of scanning a log stream.
struct ResultLogScan {
  ResultLogHeader header;
  /// Settled cells, ascending cell_index, duplicates collapsed.
  std::vector<CellRecord> records;
  /// Byte length of the healthy prefix (sealed header + whole records);
  /// recovery truncates the file to exactly this length.
  std::uint64_t valid_bytes = 0;
  /// Bytes past valid_bytes (the torn tail an interrupted append left).
  std::uint64_t torn_bytes = 0;
  /// Byte-identical duplicate records dropped (the trace a healed
  /// duplicate-claim or stolen-lease overlap leaves behind).
  std::uint64_t duplicate_records = 0;
};

/// Parse a log from a stream: verify the sealed header (against `expected`
/// when non-null — mismatched fingerprints throw an IoError naming both),
/// then read framed records until the stream ends or a torn frame stops the
/// scan. Torn tails are *returned*, not thrown; corruption inside the
/// CRC-valid prefix (bad index/status/kind, conflicting duplicates) throws
/// vbr::IoError. This is the pure core fuzz_sweep_result_log drives.
ResultLogScan scan_result_log(std::istream& in, const std::string& name,
                              const ResultLogHeader* expected);

/// Load and heal a log file in place: scan, truncate any torn tail back to
/// the last whole record, return the settled records. Returns nullopt when
/// the file does not exist or is shorter than the sealed header (an append
/// torn inside the header itself — no record can precede it, so the caller
/// recreates from scratch). Throws vbr::IoError when the header is intact
/// but identifies a different sweep or shard.
std::optional<ResultLogScan> recover_result_log(const std::filesystem::path& path,
                                                const ResultLogHeader& expected);

/// Appends settled-cell records to a log file through one vbr::OutputFile
/// opened in append mode. Each append is one write(2) of one whole frame —
/// O(record) per settled cell, never O(cells) — so an interrupted append
/// tears only the tail, and concurrent appenders (a healed duplicate claim)
/// interleave whole frames. With `durable`, the header and every append are
/// fsync'd on that descriptor and create() fsyncs the log's directory
/// (power-loss safety; SIGKILL safety needs none). A failed write or fsync
/// throws vbr::IoError and poisons the writer: every later append throws
/// without writing.
class ResultLogWriter {
 public:
  /// Start a fresh log: truncate and write the sealed header.
  static ResultLogWriter create(const std::filesystem::path& path,
                                const ResultLogHeader& header, bool durable);
  /// Continue a recovered log, appending after its healthy prefix.
  static ResultLogWriter append_to(const std::filesystem::path& path,
                                   const ResultLogScan& scan, bool durable);

  void append(const CellRecord& record);

  /// Bytes written through this writer (bench instrumentation).
  std::uint64_t bytes_written() const { return bytes_written_; }

  /// Close the log; throws vbr::IoError if the close fails. Destroying an
  /// open writer closes it quietly.
  void close() { file_.close(); }

 private:
  ResultLogWriter(OutputFile file, bool durable)
      : file_(std::move(file)), durable_(durable) {}

  OutputFile file_;
  bool durable_ = false;
  /// An append failed to write or sync; every later append throws.
  bool poisoned_ = false;
  std::uint64_t bytes_written_ = 0;
};

}  // namespace vbr::sweep
