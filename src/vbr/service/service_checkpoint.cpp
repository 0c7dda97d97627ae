#include "vbr/service/service_checkpoint.hpp"

#include <cstdint>
#include <fstream>
#include <sstream>

#include "vbr/common/atomic_file.hpp"
#include "vbr/common/checksum.hpp"
#include "vbr/common/error.hpp"
#include "vbr/common/serialize.hpp"

namespace vbr::service {

run::EnvelopeSpec service_checkpoint_envelope() {
  // The payload bound allows a million hosking streams at a generous
  // horizon (a few hundred bytes each) while keeping a forged size field
  // from driving a multi-GB allocation under the fuzzer's RSS limit.
  return {kServiceCheckpointMagic, kServiceCheckpointVersion, std::uint64_t{1} << 31,
          "service checkpoint"};
}

void save_service_checkpoint(const std::string& path, const TrafficService& service,
                             const OverloadGovernor* governor) {
  std::ostringstream tail(std::ios::binary);
  io::write_u8(tail, governor != nullptr ? 1 : 0);
  if (governor != nullptr) governor->save_state(tail);
  // The payload streams into the file behind room for the header, which is
  // written last: its size and CRC are known only once the payload is out.
  write_file_atomic(
      path,
      [&](std::ostream& out) {
        const std::string room(run::kEnvelopeHeaderBytes, '\0');
        io::write_bytes(out, room.data(), room.size());
        std::uint32_t crc = service.save_state(out);
        io::write_bytes(out, tail.view().data(), tail.view().size());
        crc = crc32(tail.view().data(), tail.view().size(), crc);
        const auto payload_size =
            static_cast<std::uint64_t>(out.tellp()) - run::kEnvelopeHeaderBytes;
        const std::string header =
            run::envelope_header(service_checkpoint_envelope(), payload_size, crc);
        out.seekp(0);
        io::write_bytes(out, header.data(), header.size());
      },
      /*durable=*/true);
}

void load_service_checkpoint(const std::string& path, TrafficService& service,
                             OverloadGovernor* governor) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw IoError("cannot open service checkpoint: " + path);
  // Two passes over one open file: the whole payload is verified before a
  // field is parsed, then parsed from the same stream. Checkpoints are only
  // ever replaced by rename, never rewritten in place, so the bytes cannot
  // change between the passes.
  run::verify_envelope(in, service_checkpoint_envelope(), path);
  service.restore_state(in);
  const std::uint8_t has_governor = io::read_u8(in, "load_service_checkpoint");
  if (has_governor > 1) throw IoError("service checkpoint: corrupt governor flag");
  if ((has_governor == 1) != (governor != nullptr)) {
    throw IoError(has_governor == 1
                      ? "service checkpoint carries governor state but this run is ungoverned"
                      : "service checkpoint has no governor state but this run is governed");
  }
  if (governor != nullptr) governor->restore_state(in);
}

}  // namespace vbr::service
