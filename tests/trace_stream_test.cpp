// Tests for the chunked (streaming) trace reader/writer: format sniffing,
// equivalence with read_trace, bounded-block reading at odd sizes,
// the writer's declared-count contract, and the IoError surface on
// truncated or forged input.
#include "vbr/trace/trace_stream.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "vbr/common/error.hpp"
#include "vbr/trace/trace_io.hpp"

namespace vbr::trace {
namespace {

std::filesystem::path temp_file(const std::string& name) {
  return std::filesystem::temp_directory_path() / ("vbr_trace_stream_test_" + name);
}

std::vector<double> ramp(std::size_t n) {
  std::vector<double> values;
  values.reserve(n);
  for (std::size_t i = 0; i < n; ++i) values.push_back(100.0 + static_cast<double>(i));
  return values;
}

std::vector<double> drain(ChunkedTraceReader& reader, std::size_t block) {
  std::vector<double> out;
  std::vector<double> buf(block);
  while (true) {
    const std::size_t got = reader.read(buf);
    if (got == 0) break;
    out.insert(out.end(), buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(got));
  }
  return out;
}

/// A trace in the library's binary format, written by its one binary writer.
void write_chunked(const TimeSeries& series, const std::filesystem::path& path) {
  ChunkedTraceWriter writer(path, series.size(), series.dt_seconds(), series.unit());
  writer.append(series.values());
  writer.finish();
}

std::string file_bytes(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(ChunkedTraceReaderTest, ReadsBinaryTracesWrittenByBatchWriter) {
  const auto path = temp_file("bin_roundtrip");
  const TimeSeries series(ramp(1000), 0.04, "cells");
  write_chunked(series, path);

  for (const std::size_t block : {1u, 7u, 64u, 1000u, 4096u}) {
    ChunkedTraceReader reader(path);
    EXPECT_TRUE(reader.info().binary);
    EXPECT_DOUBLE_EQ(reader.info().dt_seconds, 0.04);
    EXPECT_EQ(reader.info().unit, "cells");
    EXPECT_EQ(reader.info().declared_samples, 1000u);
    EXPECT_EQ(drain(reader, block), series.values()) << "block " << block;
    EXPECT_EQ(reader.samples_read(), 1000u);
  }
  std::filesystem::remove(path);
}

TEST(ChunkedTraceReaderTest, ReadsAsciiTracesWrittenByBatchWriter) {
  const auto path = temp_file("ascii_roundtrip");
  const TimeSeries series(ramp(257), 0.125, "bytes");
  write_ascii(series, path);

  ChunkedTraceReader reader(path);
  EXPECT_FALSE(reader.info().binary);
  EXPECT_DOUBLE_EQ(reader.info().dt_seconds, 0.125);
  EXPECT_EQ(reader.info().unit, "bytes");
  EXPECT_EQ(drain(reader, 100), series.values());
  std::filesystem::remove(path);
}

TEST(ChunkedTraceReaderTest, HeaderlessAsciiGetsDefaults) {
  std::istringstream in("1\n2\n3\n");
  ChunkedTraceReader reader(in, "inline");
  EXPECT_FALSE(reader.info().binary);
  EXPECT_NEAR(reader.info().dt_seconds, 1.0 / 24.0, 1e-12);
  EXPECT_EQ(drain(reader, 2), (std::vector<double>{1.0, 2.0, 3.0}));
}

TEST(ChunkedTraceReaderTest, HeaderKeysAfterDataAreCommentsForBothReaders) {
  // Header keys count only in the leading '#' block; read_trace drains the
  // same reader, so the two cannot disagree.
  const std::string text = "1\n2\n# dt_seconds 0.5\n# unit cells\n3\n";
  std::istringstream chunked_in(text);
  ChunkedTraceReader reader(chunked_in, "late");
  const std::vector<double> chunked = drain(reader, 2);
  const auto path = temp_file("late_header");
  std::ofstream(path) << text;
  const TimeSeries series = read_trace(path);
  std::filesystem::remove(path);

  EXPECT_EQ(chunked, (std::vector<double>{1.0, 2.0, 3.0}));
  EXPECT_EQ(series.values(), chunked);
  EXPECT_NEAR(reader.info().dt_seconds, 1.0 / 24.0, 1e-15);
  EXPECT_EQ(series.dt_seconds(), reader.info().dt_seconds);
  EXPECT_EQ(reader.info().unit, "bytes/frame");
  EXPECT_EQ(series.unit(), reader.info().unit);
}

TEST(ChunkedTraceReaderTest, WriterOutputMatchesBatchReader) {
  const auto path = temp_file("writer_roundtrip");
  const auto values = ramp(500);
  {
    ChunkedTraceWriter writer(path, values.size(), 1.0 / 30.0, "bytes/frame");
    // Deliberately uneven appends.
    writer.append(std::span<const double>(values.data(), 123));
    writer.append(std::span<const double>(values.data() + 123, 377));
    EXPECT_EQ(writer.written(), 500u);
    writer.finish();
  }
  const auto series = read_trace(path);
  EXPECT_EQ(series.values(), values);
  EXPECT_DOUBLE_EQ(series.dt_seconds(), 1.0 / 30.0);
  EXPECT_EQ(series.unit(), "bytes/frame");

  ChunkedTraceReader reader(path);
  EXPECT_EQ(drain(reader, 99), values);
  std::filesystem::remove(path);
}

TEST(ChunkedTraceWriterTest, EnforcesTheDeclaredCount) {
  const auto path = temp_file("writer_contract");
  const auto values = ramp(10);
  {
    ChunkedTraceWriter writer(path, 10, 1.0);
    writer.append(std::span<const double>(values.data(), 4));
    // finish() before the declared total: refuse.
    EXPECT_THROW(writer.finish(), IoError);
    writer.append(std::span<const double>(values.data() + 4, 6));
    // Appending past the declared total: refuse.
    EXPECT_THROW(writer.append(std::span<const double>(values.data(), 1)), IoError);
    writer.finish();
    writer.finish();  // idempotent
    EXPECT_THROW(writer.append(std::span<const double>(values.data(), 1)), IoError);
  }
  EXPECT_EQ(read_trace(path).values(), values);
  std::filesystem::remove(path);
}

TEST(ChunkedTraceWriterTest, RejectsInvalidSamplesAndHeader) {
  const auto path = temp_file("writer_validate");
  EXPECT_THROW(ChunkedTraceWriter(path, 1, 0.0), IoError);
  EXPECT_THROW(ChunkedTraceWriter(path, 1, -1.0), IoError);
  {
    ChunkedTraceWriter writer(path, 2, 1.0);
    const double bad[] = {1.0, -5.0};
    EXPECT_THROW(writer.append(bad), IoError);
  }
  std::filesystem::remove(path);
}

TEST(ChunkedTraceReaderTest, TruncatedBinaryThrowsIoError) {
  const auto path = temp_file("truncated");
  const TimeSeries series(ramp(100), 1.0, "bytes");
  write_chunked(series, path);
  std::string bytes = file_bytes(path);
  bytes.resize(bytes.size() - 160);  // lose the last 20 samples

  std::istringstream in(bytes);
  ChunkedTraceReader reader(in, "truncated");
  std::vector<double> buf(64);
  EXPECT_EQ(reader.read(buf), 64u);
  EXPECT_THROW(
      {
        while (reader.read(buf) > 0) {
        }
      },
      IoError);
  std::filesystem::remove(path);
}

TEST(ChunkedTraceReaderTest, ForgedSampleCountThrowsIoError) {
  // Header claims 2^60 samples backed by 8 bytes of data: the reader must
  // fail with IoError on the first short read, not attempt the allocation.
  std::string bytes;
  bytes += "VBRTRC01";
  const double dt = 1.0;
  bytes.append(reinterpret_cast<const char*>(&dt), sizeof dt);
  const std::uint32_t unit_len = 0;
  bytes.append(reinterpret_cast<const char*>(&unit_len), sizeof unit_len);
  const std::uint64_t forged = std::uint64_t{1} << 60;
  bytes.append(reinterpret_cast<const char*>(&forged), sizeof forged);
  const double sample = 1.0;
  bytes.append(reinterpret_cast<const char*>(&sample), sizeof sample);

  std::istringstream in(bytes);
  ChunkedTraceReader reader(in, "forged");
  EXPECT_EQ(reader.info().declared_samples, forged);
  std::vector<double> buf(1024);
  EXPECT_THROW(
      {
        while (reader.read(buf) > 0) {
        }
      },
      IoError);
}

TEST(ChunkedTraceReaderTest, NegativeOrNonNumericSamplesThrowIoError) {
  {
    std::istringstream in("1\n-2\n3\n");
    ChunkedTraceReader reader(in, "negative");
    std::vector<double> buf(8);
    EXPECT_THROW(reader.read(buf), IoError);
  }
  {
    std::istringstream in("1\nbogus\n");
    ChunkedTraceReader reader(in, "bogus");
    std::vector<double> buf(8);
    EXPECT_THROW(reader.read(buf), IoError);
  }
}

TEST(ChunkedTraceReaderTest, CorruptBinaryHeaderThrowsIoError) {
  {
    // Bad dt.
    std::string bytes = "VBRTRC01";
    const double dt = -1.0;
    bytes.append(reinterpret_cast<const char*>(&dt), sizeof dt);
    const std::uint32_t unit_len = 0;
    bytes.append(reinterpret_cast<const char*>(&unit_len), sizeof unit_len);
    const std::uint64_t n = 0;
    bytes.append(reinterpret_cast<const char*>(&n), sizeof n);
    std::istringstream in(bytes);
    EXPECT_THROW(ChunkedTraceReader(in, "bad_dt"), IoError);
  }
  {
    // Oversized unit length.
    std::string bytes = "VBRTRC01";
    const double dt = 1.0;
    bytes.append(reinterpret_cast<const char*>(&dt), sizeof dt);
    const std::uint32_t unit_len = 1u << 30;
    bytes.append(reinterpret_cast<const char*>(&unit_len), sizeof unit_len);
    std::istringstream in(bytes);
    EXPECT_THROW(ChunkedTraceReader(in, "bad_unit"), IoError);
  }
}

TEST(ChunkedTraceReaderTest, MissingFileThrowsIoErrorNamingThePath) {
  const auto path = temp_file("does_not_exist");
  try {
    ChunkedTraceReader reader(path);
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find(path.filename().string()), std::string::npos);
  }
}

}  // namespace
}  // namespace vbr::trace
