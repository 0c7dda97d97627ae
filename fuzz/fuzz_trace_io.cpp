// Fuzz harness: whole-trace parsing through read_trace (ASCII and binary).
//
// Byte 0 is skipped (the committed corpus still carries the byte that once
// picked a parser); the rest is fed to read_trace through a stringstream,
// and the reader sniffs the format itself. A successful parse must yield a
// series that obeys the format's contract — finite, non-negative samples
// and a positive dt — anything else means the validation let corruption
// through. vbr::IoError (a vbr::Error) is the documented rejection path.
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <sstream>
#include <string>

#include "vbr/common/error.hpp"
#include "vbr/trace/trace_io.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  if (size < 1) return 0;
  std::istringstream in(std::string(reinterpret_cast<const char*>(data + 1), size - 1));

  try {
    const auto series = vbr::trace::read_trace(in, "fuzz");
    if (!(series.dt_seconds() > 0.0) || !std::isfinite(series.dt_seconds())) std::abort();
    for (std::size_t i = 0; i < series.size(); ++i) {
      if (!std::isfinite(series[i]) || series[i] < 0.0) std::abort();
    }
  } catch (const vbr::Error&) {
    // Malformed trace: the documented path.
  }
  return 0;
}
