// Fuzz harness: the VBRSRVC1 service checkpoint parser.
//
// Three paths per input, mirroring fuzz_checkpoint's dual-path pattern plus
// a splice stage. First the raw bytes go straight through the envelope
// check (magic, version, size bound, CRC), both whole (open_envelope) and
// through the streamed load (verify_envelope, then restore_state from the
// same stream), which must agree on every input. Because a random mutation almost
// never survives the CRC, the input is then re-sealed as the *payload* of a
// valid envelope so TrafficService::restore_state's field validation — the
// config fingerprint, stream statuses, per-stream state tags, heap
// invariants — is reached on every exec. Finally the input is XOR-spliced
// into a pristine checkpoint payload and re-sealed, so mutations land deep
// inside otherwise-valid per-stream state instead of dying at the
// fingerprint.
//
// The invariant under test: any input either restores a service that keeps
// serving, or throws vbr::IoError. Anything else — a crash, a sanitizer
// report, an abort from a VBR_ENSURE — is a bug (hostile checkpoints must
// be a clean rejection path, never a contract violation).
#include <cstdint>
#include <cstdlib>
#include <sstream>
#include <string>

#include "vbr/common/error.hpp"
#include "vbr/run/envelope.hpp"
#include "vbr/service/service_checkpoint.hpp"
#include "vbr/service/traffic_service.hpp"

namespace {

vbr::service::ServiceConfig harness_config() {
  // Must match the config scripts/make_service_fuzz_corpus.py seeds the
  // corpus with (serve_traffic's defaults at 4 streams).
  vbr::service::ServiceConfig config;
  config.num_streams = 4;
  config.seed = 42;
  config.variant = vbr::model::ModelVariant::kGaussianFarima;
  config.backend = vbr::model::GeneratorBackend::kHosking;
  config.params.hurst = 0.8;
  config.params.marginal.mu_gamma = 27791.0;
  config.params.marginal.sigma_gamma = 6254.0;
  config.params.marginal.tail_slope = 12.0;
  return config;
}

/// A pristine two-round checkpoint payload, built once: the splice target.
const std::string& pristine_payload() {
  static const std::string payload = [] {
    vbr::service::TrafficService service(harness_config());
    service.advance_round(16);
    service.advance_round(16);
    std::ostringstream out(std::ios::binary);
    service.save_state(out);
    return out.str();
  }();
  return payload;
}

void try_restore(const std::string& bytes) {
  std::istringstream in(bytes, std::ios::binary);
  try {
    const std::string payload =
        vbr::run::open_envelope(in, vbr::service::service_checkpoint_envelope(), "fuzz");
    vbr::service::TrafficService service(harness_config());
    std::istringstream payload_in(payload, std::ios::binary);
    service.restore_state(payload_in);
    // A checkpoint that parses must leave a service that can serve.
    service.advance_round(8);
    (void)service.results_hash();
  } catch (const vbr::IoError&) {
    // Malformed checkpoint: the documented rejection path.
  }
}

/// The streamed load: verify_envelope over the raw bytes, then restore_state
/// from the same stream. It must accept exactly the files open_envelope
/// accepts, and a restore it admits must again serve or throw vbr::IoError.
void try_verified_restore(const std::string& bytes) {
  const vbr::run::EnvelopeSpec spec = vbr::service::service_checkpoint_envelope();
  bool opened = true;
  try {
    std::istringstream in(bytes, std::ios::binary);
    (void)vbr::run::open_envelope(in, spec, "fuzz");
  } catch (const vbr::IoError&) {
    opened = false;
  }
  std::istringstream in(bytes, std::ios::binary);
  try {
    (void)vbr::run::verify_envelope(in, spec, "fuzz");
  } catch (const vbr::IoError&) {
    if (opened) std::abort();  // verify_envelope rejected a valid envelope
    return;
  }
  if (!opened) std::abort();  // verify_envelope admitted a defective envelope
  try {
    vbr::service::TrafficService service(harness_config());
    service.restore_state(in);
    service.advance_round(8);
    (void)service.results_hash();
  } catch (const vbr::IoError&) {
    // Malformed payload behind a valid envelope: the documented rejection.
  }
}

std::string sealed(const std::string& payload) {
  return vbr::run::seal_envelope(vbr::service::service_checkpoint_envelope(), payload);
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  const std::string raw(reinterpret_cast<const char*>(data), size);

  // Path 1: the input is the whole file, envelope included, opened whole
  // and through the streamed two-pass load.
  try_restore(raw);
  try_verified_restore(raw);

  // Path 2: the input is the payload of a correctly sealed envelope.
  try_restore(sealed(raw));

  // Path 3: the input is XOR-spliced into a pristine payload (offset from
  // its first two bytes), then sealed — deep-state mutations with a valid
  // fingerprint prefix.
  if (size >= 3) {
    std::string payload = pristine_payload();
    const std::size_t offset =
        (static_cast<std::size_t>(data[0]) | (static_cast<std::size_t>(data[1]) << 8)) %
        payload.size();
    for (std::size_t i = 2; i < size && offset + (i - 2) < payload.size(); ++i) {
      payload[offset + (i - 2)] = static_cast<char>(payload[offset + (i - 2)] ^ data[i]);
    }
    try_restore(sealed(payload));
  }

  return 0;
}
