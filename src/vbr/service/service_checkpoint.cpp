#include "vbr/service/service_checkpoint.hpp"

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>
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
  std::ostringstream tail(std::ios::binary);
  io::write_u8(tail, governor != nullptr ? 1 : 0);
  if (governor != nullptr) governor->save_state(tail);
  // One buffer becomes the file: header room, the service state, the
  // governor tail, then the header sealed in place, so the fleet's records
  // are never copied into a second payload-sized string. The previous save
  // at `path` sizes it: a fleet's checkpoint barely changes size between
  // saves, so the buffer rarely regrows.
  const run::EnvelopeSpec spec = service_checkpoint_envelope();
  std::string file(run::kEnvelopeHeaderBytes, '\0');
  std::error_code no_previous;
  const std::uintmax_t previous = std::filesystem::file_size(path, no_previous);
  if (!no_previous) {
    file.reserve(static_cast<std::size_t>(
        std::min<std::uintmax_t>(previous, run::kEnvelopeHeaderBytes + spec.max_payload)));
  }
  service.append_state(file);
  file.append(tail.view());
  run::seal_envelope_in_place(spec, file);
  write_file_atomic(path, file, /*durable=*/true);
}

void load_service_checkpoint(const std::string& path, TrafficService& service,
                             OverloadGovernor* governor) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw IoError("cannot open service checkpoint: " + path);
  // The stream takes the payload over (C++20), so it is not copied twice.
  std::string body = run::open_envelope(in, service_checkpoint_envelope(), path);
  std::istringstream payload(std::move(body), std::ios::binary);
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
