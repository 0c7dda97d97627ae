// Trace file I/O.
//
// The paper's dataset was distributed as an ASCII file with one per-frame
// byte count per line (the classic "Star Wars trace" format from
// thumper.bellcore.com). We read and write that format, plus a compact
// binary format for large intermediate traces.
//
// Both readers treat their input as untrusted: malformed records (negative
// or non-finite frame sizes, overflowing counts, truncated data, corrupt
// headers) raise vbr::IoError instead of silently producing a bad series.
// The stream overloads exist so fuzzers and tests can drive the parsers
// without touching the filesystem.
#pragma once

#include <filesystem>
#include <iosfwd>
#include <string>

#include "vbr/trace/time_series.hpp"

namespace vbr::trace {

/// Write a trace as ASCII: '#'-prefixed header lines carrying dt and unit,
/// then one sample per line.
void write_ascii(const TimeSeries& series, const std::filesystem::path& path);

/// Read an ASCII trace written by write_ascii(), or a bare list of numbers
/// (one per line, '#' comments ignored) in which case dt defaults to
/// 1/24 s (the paper's frame rate) and the unit to "bytes/frame".
/// Throws vbr::IoError on malformed input (non-numeric lines, negative or
/// non-finite frame sizes, non-positive dt).
TimeSeries read_ascii(const std::filesystem::path& path);

/// Parse an ASCII trace from an open stream; `name` labels error messages.
TimeSeries read_ascii(std::istream& in, const std::string& name);

/// Write a trace in the library's binary format through ChunkedTraceWriter,
/// which throws vbr::IoError on samples a reader would reject.
void write_binary(const TimeSeries& series, const std::filesystem::path& path);

/// Read a binary trace written by write_binary(). Throws vbr::IoError on a
/// bad magic, corrupt header fields, a sample count the stream cannot back,
/// or negative/non-finite samples.
TimeSeries read_binary(const std::filesystem::path& path);

/// Parse a binary trace from an open stream; `name` labels error messages.
TimeSeries read_binary(std::istream& in, const std::string& name);

}  // namespace vbr::trace
