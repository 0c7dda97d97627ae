// Crash-safe on-disk persistence for a TrafficService: the service payload
// (TrafficService::save_state) wrapped in the same CRC-guarded envelope
// format the campaign checkpoint uses (run/envelope.hpp), under its own
// magic:
//
//   8 bytes  magic  "VBRSRVC1"
//   u32      version (currently 2)
//   u64      payload size
//   u32      CRC-32 of the payload
//   payload  TrafficService state (config fingerprint + counters + hash +
//            queue + sink + every live stream), then a u8 governor flag
//            and, when set, the OverloadGovernor state (ladder position,
//            shed set, failure records, remaining fault schedule) so a
//            checkpoint taken mid-degradation resumes bit-identically
//
// Version 2 added the governor flag; version-1 files are rejected at the
// envelope (no deployed checkpoints outlive a run, so no migration path).
//
// Saves stream into write_file_atomic's temp file: 24 bytes of header room,
// the service state a chunk of streams per worker (TrafficService::
// save_state returns its CRC), the governor tail, then the header written
// last. A SIGKILL mid-save leaves the previous complete checkpoint in
// place. Loads run two passes over one open file: run::verify_envelope
// checks magic, version, size bound, CRC (read in 1 MiB pieces) and that
// nothing trails the payload before a single payload byte is parsed, then
// the payload is parsed from the same stream; the parse validates the
// config fingerprint and every count against the live service. Neither
// direction holds a payload-sized buffer, so a checkpoint costs the fleet's
// memory once, not twice. scripts/crash_soak.sh --service kills
// serve_traffic at random instants and asserts the resumed results_hash is
// bit-identical to an uninterrupted run.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "vbr/run/envelope.hpp"
#include "vbr/service/governor.hpp"
#include "vbr/service/traffic_service.hpp"

namespace vbr::service {

inline constexpr std::array<char, 8> kServiceCheckpointMagic = {'V', 'B', 'R', 'S',
                                                                'R', 'V', 'C', '1'};
inline constexpr std::uint32_t kServiceCheckpointVersion = 2;

/// Envelope identity; exposed so the fuzz harness can seal hostile payloads
/// with a valid CRC (the dual-path corpus pattern).
run::EnvelopeSpec service_checkpoint_envelope();

/// Atomically write the complete service state to `path`, with the
/// governing OverloadGovernor's state when one is attached.
void save_service_checkpoint(const std::string& path, const TrafficService& service,
                             const OverloadGovernor* governor = nullptr);

/// Load a checkpoint into a service built from the same config (and a
/// governor built from the same GovernorConfig, when the run is governed).
/// Throws vbr::IoError on any envelope or payload defect — including a
/// governed checkpoint loaded without a governor or vice versa. An envelope
/// defect or a config mismatch leaves the service unchanged; a payload that
/// passes the CRC but fails the parse (say a forged count at stream k) may
/// leave partial state, and the service must be discarded (the CLI
/// rebuilds).
void load_service_checkpoint(const std::string& path, TrafficService& service,
                             OverloadGovernor* governor = nullptr);

}  // namespace vbr::service
