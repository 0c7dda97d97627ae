// Fuzz harness: the VBRSWPL1 result-log scanner.
//
// Three paths per input. First the raw bytes go straight into
// scan_result_log(), exercising the sealed-header envelope (magic, version,
// size, CRC) and the header field validation. Because a random mutation
// almost never survives the header CRC, the input is then replayed as the
// *record stream* behind a freshly sealed valid header — so the frame
// scanner (torn headers, forged sizes, CRC mismatches, interleaved whole
// records) runs on every exec. Finally the input is wrapped as the payload
// of one correctly framed record behind that header, driving the
// record-level validation (out-of-range indexes, bogus status/kind tags,
// oversized strings, trailing payload bytes) directly.
//
// The invariant under test: any input either throws vbr::IoError, or
// returns a ResultLogScan whose records are strictly ascending inside the
// header's shard range and whose valid/torn byte split tiles the stream
// exactly. Anything else — a crash, a sanitizer report, an out-of-range
// record surviving the scan — is a bug.
#include <cstdint>
#include <cstdlib>
#include <sstream>
#include <string>

#include "vbr/common/error.hpp"
#include "vbr/run/envelope.hpp"
#include "vbr/sweep/result_log.hpp"

namespace {

vbr::sweep::ResultLogHeader fuzz_header() {
  vbr::sweep::ResultLogHeader header;
  header.sweep_fingerprint = 0x5157454550313934ULL;
  header.shard_fingerprint = 0x53484152443031ULL;
  header.total_cells = 64;
  header.shard_count = 4;
  header.shard_index = 1;
  header.first_cell = 16;
  header.end_cell = 32;
  return header;
}

void check_invariants(const vbr::sweep::ResultLogScan& scan, std::size_t input_size) {
  if (scan.valid_bytes < vbr::sweep::kLogHeaderSealedBytes) std::abort();
  if (scan.valid_bytes + scan.torn_bytes != input_size) std::abort();
  std::uint64_t previous = 0;
  bool first = true;
  for (const vbr::sweep::CellRecord& record : scan.records) {
    if (record.cell_index < scan.header.first_cell ||
        record.cell_index >= scan.header.end_cell) {
      std::abort();
    }
    if (!first && record.cell_index <= previous) std::abort();
    previous = record.cell_index;
    first = false;
    if (record.status != vbr::sweep::CellStatus::kDone &&
        record.status != vbr::sweep::CellStatus::kQuarantined) {
      std::abort();
    }
  }
}

void try_scan(const std::string& bytes, const vbr::sweep::ResultLogHeader* expected) {
  std::istringstream in(bytes, std::ios::binary);
  try {
    check_invariants(vbr::sweep::scan_result_log(in, "fuzz", expected), bytes.size());
  } catch (const vbr::IoError&) {
    // Malformed log: the documented rejection path.
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  const std::string raw(reinterpret_cast<const char*>(data), size);
  const vbr::sweep::ResultLogHeader header = fuzz_header();

  // Path 1: the input is the whole log, sealed header included.
  try_scan(raw, nullptr);

  // Path 2: the input is the record stream behind a valid sealed header.
  const std::string sealed = vbr::sweep::encode_log_header(header);
  try_scan(sealed + raw, &header);

  // Path 3: the input is the payload of one correctly framed record.
  try_scan(sealed + vbr::run::seal_record(raw), &header);

  return 0;
}
