#include "vbr/run/envelope.hpp"

#include <algorithm>
#include <cstring>
#include <istream>
#include <string>

#include "vbr/common/checksum.hpp"
#include "vbr/common/error.hpp"
#include "vbr/common/serialize.hpp"

namespace vbr::run {

namespace {

/// The read size of verify_envelope's CRC pass.
constexpr std::uint64_t kVerifyPieceBytes = std::uint64_t{1} << 20;

/// Append a header field in host byte order, as io::write_u32/u64 emit it.
template <typename T>
void append_raw(std::string& out, T value) {
  out.append(reinterpret_cast<const char*>(&value), sizeof value);
}

}  // namespace

std::string envelope_header(const EnvelopeSpec& spec, std::uint64_t payload_size,
                            std::uint32_t crc) {
  std::string header(spec.magic.data(), spec.magic.size());
  append_raw(header, spec.version);
  append_raw(header, payload_size);
  append_raw(header, crc);
  return header;
}

std::string seal_envelope(const EnvelopeSpec& spec, std::string_view payload) {
  // Built in place so the payload is copied once.
  std::string sealed = envelope_header(spec, payload.size(), crc32(payload.data(), payload.size()));
  sealed.reserve(sealed.size() + payload.size());
  sealed.append(payload);
  return sealed;
}

namespace {

struct EnvelopeHeader {
  std::uint64_t payload_size = 0;
  std::uint32_t crc = 0;
};

/// Reads and checks magic, version and the size bound; returns the size
/// and CRC fields.
EnvelopeHeader read_envelope_header(std::istream& in, const EnvelopeSpec& spec,
                                    const std::string& name) {
  const char* what = name.c_str();
  const std::string kind = spec.kind;
  std::array<char, 8> magic{};
  io::read_bytes(in, magic.data(), magic.size(), what);
  if (std::memcmp(magic.data(), spec.magic.data(), magic.size()) != 0) {
    throw IoError(name + ": not a " + kind + " (bad magic)");
  }
  const std::uint32_t version = io::read_u32(in, what);
  if (version != spec.version) {
    throw IoError(name + ": unsupported " + kind + " version " + std::to_string(version));
  }
  EnvelopeHeader header;
  header.payload_size = io::read_u64(in, what);
  if (header.payload_size > spec.max_payload) {
    throw IoError(name + ": implausible " + kind + " payload size " +
                  std::to_string(header.payload_size));
  }
  header.crc = io::read_u32(in, what);
  return header;
}

void check_crc(std::uint32_t actual, const EnvelopeHeader& header, const EnvelopeSpec& spec,
               const std::string& name) {
  if (actual != header.crc) {
    throw IoError(name + ": " + spec.kind + " CRC mismatch (file corrupt or torn)");
  }
}

/// For whole-file envelopes, bytes after the sealed payload mean the size
/// field and the file disagree (forged header or dirty append).
void check_at_eof(std::istream& in, const EnvelopeSpec& spec, const std::string& name) {
  if (in.peek() != std::char_traits<char>::eof()) {
    throw IoError(name + ": trailing bytes after " + spec.kind + " payload");
  }
}

std::string open_envelope_impl(std::istream& in, const EnvelopeSpec& spec,
                               const std::string& name, bool require_eof) {
  const EnvelopeHeader header = read_envelope_header(in, spec, name);
  std::string payload(static_cast<std::size_t>(header.payload_size), '\0');
  if (!payload.empty()) io::read_bytes(in, payload.data(), payload.size(), name.c_str());
  // Integrity before interpretation: no payload field is parsed until the
  // whole payload checks out, so a torn write can never yield partial state.
  check_crc(crc32(payload.data(), payload.size()), header, spec, name);
  // Prefix opens skip the EOF check: framed records legitimately follow.
  if (require_eof) check_at_eof(in, spec, name);
  return payload;
}

}  // namespace

std::string open_envelope(std::istream& in, const EnvelopeSpec& spec,
                          const std::string& name) {
  return open_envelope_impl(in, spec, name, /*require_eof=*/true);
}

std::string open_envelope_prefix(std::istream& in, const EnvelopeSpec& spec,
                                 const std::string& name) {
  return open_envelope_impl(in, spec, name, /*require_eof=*/false);
}

std::uint64_t verify_envelope(std::istream& in, const EnvelopeSpec& spec,
                              const std::string& name) {
  const EnvelopeHeader header = read_envelope_header(in, spec, name);
  const std::istream::pos_type payload_start = in.tellg();
  std::string piece(std::min<std::uint64_t>(header.payload_size, kVerifyPieceBytes), '\0');
  std::uint32_t crc = 0;
  for (std::uint64_t left = header.payload_size; left > 0;) {
    const auto size = static_cast<std::size_t>(std::min<std::uint64_t>(left, piece.size()));
    io::read_bytes(in, piece.data(), size, name.c_str());
    crc = crc32(piece.data(), size, crc);
    left -= size;
  }
  check_crc(crc, header, spec, name);
  check_at_eof(in, spec, name);
  in.clear();
  in.seekg(payload_start);
  if (!in) throw IoError(name + ": cannot rewind to the " + spec.kind + " payload");
  return header.payload_size;
}

std::string seal_record(std::string_view payload) {
  std::string sealed;
  sealed.reserve(kRecordFrameBytes + payload.size());
  append_raw(sealed, std::uint64_t{payload.size()});
  append_raw(sealed, crc32(payload.data(), payload.size()));
  sealed.append(payload);
  return sealed;
}

RecordRead read_record(std::istream& in, std::uint64_t max_payload,
                       std::string& payload) {
  payload.clear();
  char header[kRecordFrameBytes];
  in.read(header, sizeof header);
  const std::streamsize got = in.gcount();
  if (got == 0) return RecordRead::kEndOfStream;
  if (got < static_cast<std::streamsize>(sizeof header)) {
    return RecordRead::kTornTail;
  }
  std::uint64_t size = 0;
  std::uint32_t expected_crc = 0;
  std::memcpy(&size, header, sizeof size);
  std::memcpy(&expected_crc, header + sizeof size, sizeof expected_crc);
  // An implausible size field is indistinguishable from a frame header torn
  // mid-write; both truncate the tail rather than reject the whole log.
  if (size > max_payload) return RecordRead::kTornTail;
  payload.resize(static_cast<std::size_t>(size));
  if (!payload.empty()) {
    in.read(payload.data(), static_cast<std::streamsize>(payload.size()));
    if (in.gcount() != static_cast<std::streamsize>(payload.size())) {
      payload.clear();
      return RecordRead::kTornTail;
    }
  }
  if (crc32(payload.data(), payload.size()) != expected_crc) {
    payload.clear();
    return RecordRead::kTornTail;
  }
  return RecordRead::kRecord;
}

}  // namespace vbr::run
