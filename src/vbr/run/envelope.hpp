// The CRC-guarded artifact envelope shared by every resumable on-disk format
// and by the sweep's worker-to-supervisor pipe frame.
//
// The campaign checkpoint (VBRCKPT1), the service checkpoint (VBRSRVC1)
// and the sweep worker frame (VBRWRKR1) wrap their payloads identically:
//
//   8 bytes  magic
//   u32      version
//   u64      payload size in bytes
//   u32      CRC-32 (zlib polynomial) of the payload
//   payload
//
// open_envelope() verifies magic, version, a payload-size sanity bound and
// the CRC before returning a single payload byte, so a torn or bit-rotted
// artifact is rejected as a whole — a load never observes partial state.
// Writers pair seal_envelope() with vbr::write_file_atomic so a crash during
// a save leaves the previous complete artifact in place. Artifacts too large
// to hold twice (the service checkpoint) stream instead: the writer fills
// the payload into the temp file and writes envelope_header() last, and the
// reader runs verify_envelope() — the same checks over 1 MiB pieces — then
// parses the payload from the same stream.
//
// Append-only formats (the sweep result log, VBRSWPL1) use the same sealed
// envelope as a *header* via open_envelope_prefix(), then append CRC-framed
// records (seal_record / read_record) behind it. A record whose frame fails
// its CRC marks the torn tail left by an interrupted append — recoverable
// state, not corruption — and recovery truncates back to the last whole
// record instead of rejecting the file.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

namespace vbr::run {

/// Identity of one envelope-framed format: its magic, the version the
/// current code writes, a hard payload-size bound (so a forged size field
/// can never drive a pathological allocation), and a human label for errors
/// ("checkpoint", "worker frame").
struct EnvelopeSpec {
  std::array<char, 8> magic{};
  std::uint32_t version = 1;
  std::uint64_t max_payload = 0;
  const char* kind = "artifact";
};

/// Bytes of the envelope header (magic + version + size + CRC).
inline constexpr std::size_t kEnvelopeHeaderBytes = 8 + 4 + 8 + 4;

/// Wrap `payload` in the full envelope (magic + version + size + CRC).
std::string seal_envelope(const EnvelopeSpec& spec, std::string_view payload);

/// The kEnvelopeHeaderBytes header alone, for writers that stream the
/// payload and fill the header in last.
std::string envelope_header(const EnvelopeSpec& spec, std::uint64_t payload_size,
                            std::uint32_t crc);

/// Read and verify an envelope, returning the payload bytes. Throws
/// vbr::IoError on bad magic, unsupported version, implausible size,
/// truncation, or CRC mismatch; `name` labels errors (usually the path).
std::string open_envelope(std::istream& in, const EnvelopeSpec& spec,
                          const std::string& name);

/// The checks of open_envelope — magic, version, size bound, CRC, no
/// trailing bytes — without holding the payload: the CRC is computed over
/// 1 MiB pieces. On success the stream is rewound to the first
/// payload byte and the payload size is returned, so the caller parses the
/// verified bytes from the same stream. Throws vbr::IoError as open_envelope.
std::uint64_t verify_envelope(std::istream& in, const EnvelopeSpec& spec,
                              const std::string& name);

/// Like open_envelope, but for formats that append framed records *after*
/// the sealed header (the VBRSWPL1 result log): verifies magic, version,
/// size bound and CRC identically, but allows — and leaves the stream
/// positioned at — bytes following the payload instead of requiring EOF.
std::string open_envelope_prefix(std::istream& in, const EnvelopeSpec& spec,
                                 const std::string& name);

/// Frame one record for an append-only log: u64 payload size + u32 CRC-32 +
/// payload. Records carry no magic of their own — the log's sealed header
/// establishes identity; the per-record CRC exists to find the torn tail.
std::string seal_record(std::string_view payload);

/// The framing overhead of seal_record (size + CRC fields).
inline constexpr std::uint64_t kRecordFrameBytes = 12;

/// What read_record found at the current stream position.
enum class RecordRead {
  kRecord,       ///< a complete, CRC-verified record; `payload` is valid
  kEndOfStream,  ///< the stream ended exactly on a record boundary
  kTornTail,     ///< truncated frame header/payload, an implausible size
                 ///< field, or a CRC mismatch — the write was interrupted
};

/// Read one framed record. Never throws: a torn tail is an *expected*
/// outcome of crash recovery, not corruption of sealed state. The stream
/// may be left in a failed/indeterminate position after kTornTail; callers
/// track their own byte offsets (see sweep/result_log).
RecordRead read_record(std::istream& in, std::uint64_t max_payload,
                       std::string& payload);

}  // namespace vbr::run
