// Trace file I/O.
//
// The paper's dataset was distributed as an ASCII file with one per-frame
// byte count per line (the classic "Star Wars trace" format from
// thumper.bellcore.com). We read and write that format; the compact binary
// format for large traces is written by ChunkedTraceWriter and read here.
//
// read_trace() is ChunkedTraceReader drained into a TimeSeries: one parser
// per format, the format sniffed from the leading bytes. It treats its
// input as untrusted: malformed records (negative or non-finite frame
// sizes, overflowing counts, truncated data, corrupt headers) raise
// vbr::IoError instead of silently producing a bad series.
#pragma once

#include <filesystem>

#include "vbr/trace/time_series.hpp"

namespace vbr::trace {

/// Write a trace as ASCII: '#'-prefixed header lines carrying dt and unit,
/// then one sample per line. The file is replaced atomically (temp file
/// plus rename); a write or close failure throws vbr::IoError and leaves
/// any previous file at `path` untouched.
void write_ascii(const TimeSeries& series, const std::filesystem::path& path);

/// Read a binary trace (the file opens with the binary magic) or an ASCII
/// one: a trace written by write_ascii(), or a bare list of numbers, one
/// per line. ASCII header keys (`# dt_seconds <s>`, `# unit <u>`) are read
/// only from the leading block of '#' and blank lines; a '#' line after the
/// first sample is a comment. Without a header dt defaults to 1/24 s (the
/// paper's frame rate) and the unit to "bytes/frame". Throws vbr::IoError
/// on malformed input (non-numeric lines, negative or non-finite frame
/// sizes, non-positive dt, a bad binary header or a sample count the data
/// cannot back).
TimeSeries read_trace(const std::filesystem::path& path);

}  // namespace vbr::trace
