// Minimal binary (de)serialization helpers for checkpoint and sink state.
//
// Every streaming sink and the campaign checkpoint serialize through these
// fixed-width little-endian-on-this-machine primitives so the formats stay
// byte-compatible with each other and trivially round-trip at 0 ulp (doubles
// travel as their raw bit patterns, never through text). Readers treat their
// input as untrusted: any short read or impossible length throws vbr::IoError
// with the caller-supplied context string, matching the trace_io contract.
//
// The format is explicitly single-machine (resume happens on the host that
// crashed); no cross-endianness translation is attempted, and the checkpoint
// CRC rejects files that migrate between incompatible hosts only by luck of
// field validation — documented in DESIGN.md §8.
#pragma once

#include <cstdint>
#include <cstring>
#include <istream>
#include <ostream>
#include <string>
#include <vector>

#include "vbr/common/error.hpp"

namespace vbr::io {

inline void write_bytes(std::ostream& out, const void* data, std::size_t size) {
  out.write(static_cast<const char*>(data), static_cast<std::streamsize>(size));
  if (!out) throw IoError("serialize: write failed");
}

/// In-memory form: appends to a record buffer, so a record of many fields
/// can be built once and reach its stream or file in one write.
inline void write_bytes(std::string& out, const void* data, std::size_t size) {
  out.append(static_cast<const char*>(data), size);
}

// Every writer below takes either sink: a std::ostream or a std::string.
template <typename Out>
void write_u8(Out& out, std::uint8_t v) { write_bytes(out, &v, sizeof v); }
template <typename Out>
void write_u32(Out& out, std::uint32_t v) { write_bytes(out, &v, sizeof v); }
template <typename Out>
void write_u64(Out& out, std::uint64_t v) { write_bytes(out, &v, sizeof v); }

template <typename Out>
void write_f64(Out& out, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  write_u64(out, bits);
}

/// Length-prefixed string (u32 length + raw bytes).
template <typename Out>
void write_string(Out& out, const std::string& s) {
  write_u32(out, static_cast<std::uint32_t>(s.size()));
  if (!s.empty()) write_bytes(out, s.data(), s.size());
}

/// Length-prefixed vector of raw doubles (u64 count + bit patterns).
template <typename Out>
void write_f64_vector(Out& out, const std::vector<double>& v) {
  write_u64(out, v.size());
  for (const double x : v) write_f64(out, x);
}

template <typename Out>
void write_u64_vector(Out& out, const std::vector<std::uint64_t>& v) {
  write_u64(out, v.size());
  for (const std::uint64_t x : v) write_u64(out, x);
}

inline void read_bytes(std::istream& in, void* data, std::size_t size, const char* what) {
  in.read(static_cast<char*>(data), static_cast<std::streamsize>(size));
  if (in.gcount() != static_cast<std::streamsize>(size) || !in) {
    throw IoError(std::string(what) + ": truncated serialized state");
  }
}

inline std::uint8_t read_u8(std::istream& in, const char* what) {
  std::uint8_t v = 0;
  read_bytes(in, &v, sizeof v, what);
  return v;
}

inline std::uint32_t read_u32(std::istream& in, const char* what) {
  std::uint32_t v = 0;
  read_bytes(in, &v, sizeof v, what);
  return v;
}

inline std::uint64_t read_u64(std::istream& in, const char* what) {
  std::uint64_t v = 0;
  read_bytes(in, &v, sizeof v, what);
  return v;
}

inline double read_f64(std::istream& in, const char* what) {
  const std::uint64_t bits = read_u64(in, what);
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

/// Hard cap on any single serialized container so a forged length can never
/// drive an allocation past what a real sink/checkpoint could hold.
inline constexpr std::uint64_t kMaxSerializedElements = std::uint64_t{1} << 28;

/// Read a declared element count and validate it against both the global cap
/// and a caller-supplied bound (e.g. the sink's configured size).
inline std::size_t read_count(std::istream& in, std::uint64_t max_elements, const char* what) {
  const std::uint64_t n = read_u64(in, what);
  if (n > max_elements || n > kMaxSerializedElements) {
    throw IoError(std::string(what) + ": serialized count " + std::to_string(n) +
                  " exceeds bound " + std::to_string(max_elements));
  }
  return static_cast<std::size_t>(n);
}

inline std::string read_string(std::istream& in, std::uint64_t max_length, const char* what) {
  const std::uint32_t len = read_u32(in, what);
  if (len > max_length) {
    throw IoError(std::string(what) + ": serialized string length " + std::to_string(len) +
                  " exceeds bound " + std::to_string(max_length));
  }
  std::string s(len, '\0');
  if (len > 0) read_bytes(in, s.data(), len, what);
  return s;
}

inline std::vector<double> read_f64_vector(std::istream& in, std::uint64_t max_elements,
                                           const char* what) {
  const std::size_t n = read_count(in, max_elements, what);
  std::vector<double> v(n);
  for (auto& x : v) x = read_f64(in, what);
  return v;
}

inline std::vector<std::uint64_t> read_u64_vector(std::istream& in, std::uint64_t max_elements,
                                                  const char* what) {
  const std::size_t n = read_count(in, max_elements, what);
  std::vector<std::uint64_t> v(n);
  for (auto& x : v) x = read_u64(in, what);
  return v;
}

/// Read a fixed tag (e.g. a sink's kind()) and reject anything else. Keeps a
/// restore from silently consuming another sink's state.
inline void read_tag(std::istream& in, const std::string& expected, const char* what) {
  const std::string got = read_string(in, 64, what);
  if (got != expected) {
    throw IoError(std::string(what) + ": serialized state tagged '" + got +
                  "', expected '" + expected + "'");
  }
}

}  // namespace vbr::io
