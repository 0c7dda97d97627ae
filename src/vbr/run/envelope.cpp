#include "vbr/run/envelope.hpp"

#include <cstring>
#include <istream>
#include <string>

#include "vbr/common/checksum.hpp"
#include "vbr/common/error.hpp"
#include "vbr/common/serialize.hpp"

namespace vbr::run {

namespace {

/// Append a header field in host byte order, as io::write_u32/u64 emit it.
template <typename T>
void append_raw(std::string& out, T value) {
  out.append(reinterpret_cast<const char*>(&value), sizeof value);
}

}  // namespace

std::string seal_envelope(const EnvelopeSpec& spec, std::string_view payload) {
  // Built in place so the payload is copied once; service checkpoints
  // approach 100 MB.
  std::string sealed;
  sealed.reserve(spec.magic.size() + 16 + payload.size());  // + version, size, CRC
  sealed.append(spec.magic.data(), spec.magic.size());
  append_raw(sealed, spec.version);
  append_raw(sealed, std::uint64_t{payload.size()});
  append_raw(sealed, crc32(payload.data(), payload.size()));
  sealed.append(payload);
  return sealed;
}

void seal_envelope_in_place(const EnvelopeSpec& spec, std::string& buffer) {
  VBR_ENSURE(buffer.size() >= kEnvelopeHeaderBytes, "envelope buffer lacks header room");
  const std::string_view payload(buffer.data() + kEnvelopeHeaderBytes,
                                 buffer.size() - kEnvelopeHeaderBytes);
  std::string header(spec.magic.data(), spec.magic.size());
  append_raw(header, spec.version);
  append_raw(header, std::uint64_t{payload.size()});
  append_raw(header, crc32(payload.data(), payload.size()));
  std::memcpy(buffer.data(), header.data(), kEnvelopeHeaderBytes);
}

namespace {

std::string open_envelope_impl(std::istream& in, const EnvelopeSpec& spec,
                               const std::string& name, bool require_eof) {
  const char* what = name.c_str();
  const std::string kind = spec.kind;

  std::array<char, 8> magic{};
  io::read_bytes(in, magic.data(), magic.size(), what);
  if (std::memcmp(magic.data(), spec.magic.data(), magic.size()) != 0) {
    throw IoError(name + ": not a " + kind + " (bad magic)");
  }
  const std::uint32_t version = io::read_u32(in, what);
  if (version != spec.version) {
    throw IoError(name + ": unsupported " + kind + " version " +
                  std::to_string(version));
  }
  const std::uint64_t payload_size = io::read_u64(in, what);
  if (payload_size > spec.max_payload) {
    throw IoError(name + ": implausible " + kind + " payload size " +
                  std::to_string(payload_size));
  }
  const std::uint32_t expected_crc = io::read_u32(in, what);
  std::string payload(static_cast<std::size_t>(payload_size), '\0');
  if (!payload.empty()) io::read_bytes(in, payload.data(), payload.size(), what);
  // Integrity before interpretation: no payload field is parsed until the
  // whole payload checks out, so a torn write can never yield partial state.
  if (crc32(payload.data(), payload.size()) != expected_crc) {
    throw IoError(name + ": " + kind + " CRC mismatch (file corrupt or torn)");
  }
  // For whole-file envelopes, bytes after the sealed payload mean the size
  // field and the file disagree (forged header or dirty append). Prefix
  // opens skip this: framed records legitimately follow.
  if (require_eof && in.peek() != std::char_traits<char>::eof()) {
    throw IoError(name + ": trailing bytes after " + kind + " payload");
  }
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
