// Chunked (streaming) trace I/O: read and write traces of unbounded length
// in bounded memory.
//
// ChunkedTraceReader is the library's one trace parser: it sniffs the
// format from the leading bytes and yields the validated sample stream
// block by block; read_trace() only drains it into a TimeSeries. The
// ChunkedTraceWriter produces binary traces incrementally. Both treat their
// input as untrusted: truncated data, forged sample counts, corrupt headers
// and negative/non-finite samples all throw vbr::IoError.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>

#include "vbr/common/atomic_file.hpp"

namespace vbr::trace {

/// Header metadata available before any samples are read.
struct TraceStreamInfo {
  double dt_seconds = 0.0;
  std::string unit;
  bool binary = false;
  /// Sample count declared by a binary header (untrusted until the stream
  /// backs it); 0 for ASCII traces, whose length is discovered at EOF.
  std::uint64_t declared_samples = 0;
  /// Size of the binary header in bytes (0 for ASCII). Sample k lives at
  /// byte offset header_bytes + 8k, which is what checkpoint resume uses to
  /// truncate a torn tail back to the last durable sample.
  std::uint64_t header_bytes = 0;
};

/// One-pass reader over an ASCII or binary trace. Memory use is O(block
/// size) regardless of trace length.
class ChunkedTraceReader {
 public:
  /// Open a trace file; the format is sniffed from the magic bytes.
  explicit ChunkedTraceReader(const std::filesystem::path& path);

  /// Parse from an open seekable stream; `name` labels errors. The stream
  /// must outlive the reader.
  ChunkedTraceReader(std::istream& in, std::string name);

  const TraceStreamInfo& info() const { return info_; }

  /// Fill `out` with the next samples; returns how many were written. A
  /// return of 0 means clean end of trace. Throws vbr::IoError on malformed
  /// records, truncation, or a binary count the stream cannot back.
  std::size_t read(std::span<double> out);

  /// Samples returned so far.
  std::uint64_t samples_read() const { return samples_read_; }

 private:
  void init();
  std::size_t read_binary_chunk(std::span<double> out);
  std::size_t read_ascii_chunk(std::span<double> out);

  std::unique_ptr<std::ifstream> file_;  ///< owned when constructed from a path
  std::istream* in_ = nullptr;
  std::string name_;
  TraceStreamInfo info_;
  std::uint64_t remaining_ = 0;  ///< binary: samples still owed by the header
  std::uint64_t samples_read_ = 0;
  std::size_t line_no_ = 0;      ///< ASCII: current line, for error messages
  bool done_ = false;
};

/// Durability knobs for ChunkedTraceWriter.
struct TraceWriterOptions {
  /// When true, a fresh trace's directory is fsynced at creation, and the
  /// file every `sync_every_samples` appended samples, at flush() and at
  /// finish(), so a power loss loses at most one sync window instead of
  /// everything the OS still had buffered. Off by default: the paper-scale
  /// single-run tools don't need power-loss guarantees, and fsync costs
  /// real throughput.
  bool durable = false;
  std::uint64_t sync_every_samples = 65536;
};

/// Incremental writer for the binary trace format. The header carries the
/// total sample count, so the count must be declared up front; append() in
/// any block sizes, then finish() (which verifies the declared count was
/// delivered — including that the file really holds every byte). A trace
/// file is written through one vbr::OutputFile: each append is one
/// unbuffered write, and fsync runs on that descriptor, so a full disk
/// surfaces as IoError at the append that hit it. The result is
/// read_trace()/ChunkedTraceReader-compatible.
class ChunkedTraceWriter {
 public:
  ChunkedTraceWriter(const std::filesystem::path& path, std::uint64_t total_samples,
                     double dt_seconds, const std::string& unit = "bytes/frame",
                     const TraceWriterOptions& options = {});

  /// Reopen a partially written trace and continue after sample
  /// `samples_written`. Validates the existing header (declared count,
  /// readable metadata) and truncates the open file back to exactly
  /// header + 8 * samples_written bytes, discarding any torn tail a crash
  /// left behind. Throws vbr::IoError if the file is shorter than that, or
  /// the header disagrees with `total_samples`.
  static ChunkedTraceWriter resume(const std::filesystem::path& path,
                                   std::uint64_t total_samples,
                                   std::uint64_t samples_written,
                                   const TraceWriterOptions& options = {});

  ChunkedTraceWriter(ChunkedTraceWriter&&) = default;

  /// Append validated samples; throws vbr::IoError if the declared total
  /// would be exceeded or a sample is negative/non-finite.
  void append(std::span<const double> samples);

  /// Push everything written so far to the platter when durable (a trace
  /// file is unbuffered, so the OS already holds it). The campaign runner
  /// calls this before persisting a checkpoint so the checkpoint never
  /// claims samples a crash could still lose.
  void flush();

  /// Sync (when durable) and close; throws vbr::IoError if fewer samples
  /// than declared were appended, the sync or close fails, or the file's
  /// size differs from header plus declared payload (a trace shortened or
  /// grown behind the writer). Idempotent.
  void finish();

  std::uint64_t written() const { return written_; }
  std::uint64_t header_bytes() const { return header_bytes_; }

 private:
  struct ResumeTag {};
  ChunkedTraceWriter(ResumeTag, const std::filesystem::path& path,
                     std::uint64_t total_samples, std::uint64_t samples_written,
                     const TraceWriterOptions& options);
  void write_header(double dt_seconds, const std::string& unit);
  void put(const void* data, std::size_t size);
  void maybe_sync();

  OutputFile file_;
  std::string path_;
  TraceWriterOptions options_;
  std::uint64_t declared_ = 0;
  std::uint64_t written_ = 0;
  std::uint64_t header_bytes_ = 0;
  std::uint64_t next_sync_ = 0;
  bool finished_ = false;
};

}  // namespace vbr::trace
