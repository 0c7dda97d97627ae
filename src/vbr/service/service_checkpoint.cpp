#include "vbr/service/service_checkpoint.hpp"

#include <fstream>
#include <sstream>
#include <utility>

#include "vbr/common/atomic_file.hpp"
#include "vbr/common/serialize.hpp"
#include "vbr/common/error.hpp"

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
  std::ostringstream payload(std::ios::binary);
  service.save_state(payload);
  io::write_u8(payload, governor != nullptr ? 1 : 0);
  if (governor != nullptr) governor->save_state(payload);
  // Moving the buffer out of the stream leaves seal_envelope's append as
  // the only copy of the payload.
  write_file_atomic(path,
                    run::seal_envelope(service_checkpoint_envelope(), std::move(payload).str()),
                    /*durable=*/true);
}

void load_service_checkpoint(const std::string& path, TrafficService& service,
                             OverloadGovernor* governor) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw IoError("cannot open service checkpoint: " + path);
  const std::string body = run::open_envelope(in, service_checkpoint_envelope(), path);
  std::istringstream payload(body, std::ios::binary);
  service.restore_state(payload);
  const std::uint8_t has_governor = io::read_u8(payload, "load_service_checkpoint");
  if (has_governor > 1) throw IoError("service checkpoint: corrupt governor flag");
  if ((has_governor == 1) != (governor != nullptr)) {
    throw IoError(has_governor == 1
                      ? "service checkpoint carries governor state but this run is ungoverned"
                      : "service checkpoint has no governor state but this run is governed");
  }
  if (governor != nullptr) governor->restore_state(payload);
}

}  // namespace vbr::service
