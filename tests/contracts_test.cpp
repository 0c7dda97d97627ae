// Tests for the numeric-contract layer in vbr/common/error.hpp: that each
// macro tier throws the documented exception with a useful message, that the
// instrumented library entry points reject poisoned input, and that
// VBR_DCHECK really compiles out of Release builds.
#include <cmath>
#include <limits>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "vbr/common/error.hpp"
#include "vbr/common/rng.hpp"
#include "vbr/model/davies_harte.hpp"
#include "vbr/net/fluid_queue.hpp"
#include "vbr/stats/whittle.hpp"
#include "vbr/trace/trace_stream.hpp"

namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

// VBR_DCHECK_ENABLED must track the build mode exactly: on in Debug, on
// whenever a sanitizer preset forces it, off in a plain Release build.
#if defined(VBR_FORCE_DCHECKS)
static_assert(VBR_DCHECK_ENABLED == 1, "VBR_FORCE_DCHECKS must enable VBR_DCHECK");
#elif defined(NDEBUG)
static_assert(VBR_DCHECK_ENABLED == 0, "Release without VBR_FORCE_DCHECKS must compile VBR_DCHECK out");
#else
static_assert(VBR_DCHECK_ENABLED == 1, "Debug builds must keep VBR_DCHECK live");
#endif

TEST(ContractMacros, EnsureThrowsInvalidArgument) {
  EXPECT_NO_THROW(VBR_ENSURE(1 + 1 == 2, "arithmetic works"));
  EXPECT_THROW(VBR_ENSURE(false, "boundary violated"), vbr::InvalidArgument);
  try {
    VBR_ENSURE(false, "boundary violated");
  } catch (const vbr::InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("boundary violated"), std::string::npos);
  }
}

TEST(ContractMacros, CheckFiniteThrowsNumericalErrorWithValue) {
  const double ok = 3.5;
  EXPECT_NO_THROW(VBR_CHECK_FINITE(ok, "sample"));
  const double bad = kNan;
  EXPECT_THROW(VBR_CHECK_FINITE(bad, "sample"), vbr::NumericalError);
  const double inf = kInf;
  try {
    VBR_CHECK_FINITE(inf, "sample");
    FAIL() << "VBR_CHECK_FINITE(inf) did not throw";
  } catch (const vbr::NumericalError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("sample"), std::string::npos);
    EXPECT_NE(what.find("inf"), std::string::npos) << what;
  }
}

TEST(ContractMacros, CheckProbRejectsOutOfUnitInterval) {
  const double half = 0.5;
  EXPECT_NO_THROW(VBR_CHECK_PROB(half, "loss fraction"));
  const double zero = 0.0;
  const double one = 1.0;
  EXPECT_NO_THROW(VBR_CHECK_PROB(zero, "loss fraction"));
  EXPECT_NO_THROW(VBR_CHECK_PROB(one, "loss fraction"));
  const double over = 1.0 + 1e-9;
  EXPECT_THROW(VBR_CHECK_PROB(over, "loss fraction"), vbr::NumericalError);
  const double negative = -0.25;
  EXPECT_THROW(VBR_CHECK_PROB(negative, "loss fraction"), vbr::NumericalError);
  const double nan = kNan;
  EXPECT_THROW(VBR_CHECK_PROB(nan, "loss fraction"), vbr::NumericalError);
}

TEST(ContractMacros, CheckRangeIsInclusive) {
  const double mid = 0.7;
  EXPECT_NO_THROW(VBR_CHECK_RANGE(mid, 0.0, 1.0, "H"));
  const double lo = 0.0;
  const double hi = 1.0;
  EXPECT_NO_THROW(VBR_CHECK_RANGE(lo, 0.0, 1.0, "H"));
  EXPECT_NO_THROW(VBR_CHECK_RANGE(hi, 0.0, 1.0, "H"));
  const double below = -0.1;
  const double above = 1.5;
  EXPECT_THROW(VBR_CHECK_RANGE(below, 0.0, 1.0, "H"), vbr::NumericalError);
  EXPECT_THROW(VBR_CHECK_RANGE(above, 0.0, 1.0, "H"), vbr::NumericalError);
}

TEST(ContractMacros, CheckFiniteSeriesReportsOffendingIndex) {
  std::vector<double> data(16, 1.0);
  EXPECT_NO_THROW(vbr::check_finite_series(data, "series"));
  data[7] = kNan;
  try {
    vbr::check_finite_series(data, "series");
    FAIL() << "check_finite_series accepted a NaN";
  } catch (const vbr::NumericalError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("series"), std::string::npos);
    EXPECT_NE(what.find('7'), std::string::npos) << what;
  }
}

// The disabled form must not evaluate its argument: a side effect inside
// the condition is the observable difference between "checked and passed"
// and "compiled out".
TEST(ContractMacros, DcheckEvaluationMatchesBuildMode) {
  int evaluations = 0;
  try {
    VBR_DCHECK((++evaluations, true), "condition with a side effect");
  } catch (const vbr::Error&) {
  }
#if VBR_DCHECK_ENABLED
  EXPECT_EQ(evaluations, 1);
  EXPECT_THROW(VBR_DCHECK(false, "must fire when enabled"), vbr::InvalidArgument);
#else
  EXPECT_EQ(evaluations, 0);
  EXPECT_NO_THROW(VBR_DCHECK(false, "must be compiled out"));
#endif
}

// --- instrumented library boundaries ---

TEST(InstrumentedBoundaries, WhittleRejectsNonFiniteSeries) {
  vbr::Rng rng(42);
  std::vector<double> data(512);
  for (auto& v : data) v = rng.normal();
  EXPECT_NO_THROW(vbr::stats::whittle_estimate(data));
  data[100] = kNan;
  EXPECT_THROW(vbr::stats::whittle_estimate(data), vbr::NumericalError);
  data[100] = kInf;
  EXPECT_THROW(vbr::stats::local_whittle_estimate(data), vbr::NumericalError);
}

TEST(InstrumentedBoundaries, DaviesHarteRejectsHurstOutsideOpenUnitInterval) {
  vbr::Rng rng(7);
  vbr::model::DaviesHarteOptions options;
  options.hurst = 1.0;
  EXPECT_THROW(vbr::model::davies_harte(64, options, rng), vbr::InvalidArgument);
  options.hurst = 0.0;
  EXPECT_THROW(vbr::model::davies_harte(64, options, rng), vbr::InvalidArgument);
  options.hurst = 0.8;
  EXPECT_NO_THROW(vbr::model::davies_harte(64, options, rng));
}

TEST(InstrumentedBoundaries, FluidQueueRejectsBadConstruction) {
  EXPECT_THROW(vbr::net::FluidQueue(-1.0, 100.0), vbr::InvalidArgument);
  EXPECT_THROW(vbr::net::FluidQueue(0.0, 100.0), vbr::InvalidArgument);
  EXPECT_THROW(vbr::net::FluidQueue(100.0, -1.0), vbr::InvalidArgument);
  EXPECT_THROW(vbr::net::FluidQueue(kInf, 100.0), vbr::NumericalError);
  EXPECT_THROW(vbr::net::FluidQueue(100.0, kNan), vbr::NumericalError);
  vbr::net::FluidQueue queue(100.0, 50.0);
  EXPECT_THROW(queue.offer(-1.0, 1.0), vbr::InvalidArgument);
  EXPECT_THROW(queue.offer(10.0, 0.0), vbr::InvalidArgument);
}

// --- hardened trace parsing (the reader over an in-memory stream) ---

/// Parses all of `in` as the trace reader does a file.
void parse_trace(std::istream& in, const std::string& name) {
  vbr::trace::ChunkedTraceReader reader(in, name);
  std::vector<double> chunk(64);
  while (reader.read(chunk) != 0) {
  }
}

TEST(TraceStreamParsing, AsciiRejectsNegativeAndNonFiniteSamples) {
  std::istringstream negative("# dt_seconds 0.04\n100\n-5\n");
  EXPECT_THROW(parse_trace(negative, "test"), vbr::IoError);
  std::istringstream nan("# dt_seconds 0.04\n100\nnan\n");
  EXPECT_THROW(parse_trace(nan, "test"), vbr::IoError);
  std::istringstream bad_dt("# dt_seconds banana\n100\n");
  EXPECT_THROW(parse_trace(bad_dt, "test"), vbr::IoError);
  std::istringstream zero_dt("# dt_seconds 0\n100\n");
  EXPECT_THROW(parse_trace(zero_dt, "test"), vbr::IoError);
}

TEST(TraceStreamParsing, BinaryRejectsForgedSampleCountWithoutAllocating) {
  // Header claims 2^40 samples but only two follow: must throw IoError on
  // the first short read, never attempt an 8 TiB allocation.
  std::ostringstream out;
  out.write("VBRTRC01", 8);
  const double dt = 1.0 / 24.0;
  out.write(reinterpret_cast<const char*>(&dt), sizeof dt);
  const std::uint32_t unit_len = 5;
  out.write(reinterpret_cast<const char*>(&unit_len), sizeof unit_len);
  out.write("bytes", 5);
  const std::uint64_t forged_n = std::uint64_t{1} << 40;
  out.write(reinterpret_cast<const char*>(&forged_n), sizeof forged_n);
  const double sample = 1.0;
  out.write(reinterpret_cast<const char*>(&sample), sizeof sample);
  out.write(reinterpret_cast<const char*>(&sample), sizeof sample);

  std::istringstream in(out.str());
  try {
    parse_trace(in, "forged");
    FAIL() << "forged sample count accepted";
  } catch (const vbr::IoError& e) {
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos) << e.what();
  }
}

TEST(TraceStreamParsing, BinaryRejectsNegativeSampleAndBadMagic) {
  std::ostringstream out;
  out.write("VBRTRC01", 8);
  const double dt = 0.04;
  out.write(reinterpret_cast<const char*>(&dt), sizeof dt);
  const std::uint32_t unit_len = 0;
  out.write(reinterpret_cast<const char*>(&unit_len), sizeof unit_len);
  const std::uint64_t n = 1;
  out.write(reinterpret_cast<const char*>(&n), sizeof n);
  const double negative = -12.0;
  out.write(reinterpret_cast<const char*>(&negative), sizeof negative);
  std::istringstream in(out.str());
  EXPECT_THROW(parse_trace(in, "neg"), vbr::IoError);

  std::istringstream garbage("GARBAGE!rest");
  EXPECT_THROW(parse_trace(garbage, "magic"), vbr::IoError);
}

}  // namespace
