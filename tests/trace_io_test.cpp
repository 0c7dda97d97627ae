// Unit tests for trace file I/O: round trips, header handling, bare-number
// compatibility with the classic Bellcore trace format, and corruption
// detection.
#include "vbr/trace/trace_io.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>

#include "vbr/common/error.hpp"
#include "file_size_limit.hpp"

namespace vbr::trace {
namespace {

class TraceIoTest : public ::testing::Test {
 protected:
  std::filesystem::path temp_path(const std::string& name) {
    const auto dir = std::filesystem::temp_directory_path() / "vbr_trace_io_test";
    std::filesystem::create_directories(dir);
    return dir / name;
  }

  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(std::filesystem::temp_directory_path() / "vbr_trace_io_test",
                                ec);
  }
};

TEST_F(TraceIoTest, AsciiRoundTrip) {
  TimeSeries original({27791.5, 8622.0, 78459.25}, 1.0 / 24.0, "bytes/frame");
  const auto path = temp_path("roundtrip.txt");
  write_ascii(original, path);
  const auto loaded = read_trace(path);
  ASSERT_EQ(loaded.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_DOUBLE_EQ(loaded[i], original[i]);
  }
  EXPECT_DOUBLE_EQ(loaded.dt_seconds(), original.dt_seconds());
  EXPECT_EQ(loaded.unit(), original.unit());
}

TEST_F(TraceIoTest, BareNumbersGetPaperDefaults) {
  // The classic Bellcore distribution format: one frame size per line.
  const auto path = temp_path("bare.txt");
  {
    std::ofstream out(path);
    out << "27791\n8622\n# a comment\n78459\n\n";
  }
  const auto loaded = read_trace(path);
  ASSERT_EQ(loaded.size(), 3u);
  EXPECT_DOUBLE_EQ(loaded[0], 27791.0);
  EXPECT_NEAR(loaded.dt_seconds(), 1.0 / 24.0, 1e-15);
  EXPECT_EQ(loaded.unit(), "bytes/frame");
}

TEST_F(TraceIoTest, AsciiRejectsGarbageLine) {
  const auto path = temp_path("garbage.txt");
  {
    std::ofstream out(path);
    out << "123\nnot-a-number\n";
  }
  EXPECT_THROW(read_trace(path), IoError);
}

TEST_F(TraceIoTest, MissingFileThrows) {
  EXPECT_THROW(read_trace(temp_path("does_not_exist.txt")), IoError);
  EXPECT_THROW(read_trace(temp_path("does_not_exist.bin")), IoError);
}

TEST_F(TraceIoTest, BinaryRoundTripPreservesBitExactValues) {
  std::vector<double> values;
  for (int i = 0; i < 1000; ++i) values.push_back(27791.0 + 0.1 * i * i - 3.0 / (i + 1));
  TimeSeries original(values, 1.389e-3, "bytes/slice");
  const auto path = temp_path("roundtrip.bin");
  write_binary(original, path);
  const auto loaded = read_trace(path);
  ASSERT_EQ(loaded.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(loaded[i], original[i]);  // bit-exact
  }
  EXPECT_EQ(loaded.unit(), "bytes/slice");
  EXPECT_DOUBLE_EQ(loaded.dt_seconds(), 1.389e-3);
}

TEST_F(TraceIoTest, BinaryRejectsBadMagic) {
  const auto path = temp_path("bad_magic.bin");
  {
    std::ofstream out(path, std::ios::binary);
    out << "NOTATRACEFILE_____________";
  }
  EXPECT_THROW(read_trace(path), IoError);
}

TEST_F(TraceIoTest, BinaryRejectsTruncatedData) {
  TimeSeries original(std::vector<double>(100, 1.0), 1.0);
  const auto path = temp_path("trunc.bin");
  write_binary(original, path);
  // Chop the file.
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size / 2);
  EXPECT_THROW(read_trace(path), IoError);
}

TEST_F(TraceIoTest, AsciiRejectsNegativeFrameSize) {
  const auto path = temp_path("negative.txt");
  {
    std::ofstream out(path);
    out << "123\n-456\n789\n";
  }
  EXPECT_THROW(read_trace(path), IoError);
}

TEST_F(TraceIoTest, AsciiRejectsNonFiniteFrameSize) {
  const auto path = temp_path("nonfinite.txt");
  {
    std::ofstream out(path);
    out << "123\ninf\n";
  }
  EXPECT_THROW(read_trace(path), IoError);
}

TEST_F(TraceIoTest, AsciiRejectsBadDtHeader) {
  for (const char* header : {"# dt_seconds oops\n1\n", "# dt_seconds -0.04\n1\n",
                             "# dt_seconds 0\n1\n", "# dt_seconds inf\n1\n"}) {
    const auto path = temp_path("bad_dt.txt");
    {
      std::ofstream out(path);
      out << header;
    }
    EXPECT_THROW(read_trace(path), IoError) << header;
  }
}

TEST_F(TraceIoTest, BinaryRejectsNegativeSample) {
  // A negative frame size can only be produced by corruption (the writer
  // never emits one), so the reader must refuse it.
  TimeSeries original({100.0, 200.0}, 1.0);
  const auto path = temp_path("neg_sample.bin");
  write_binary(original, path);
  {
    std::fstream patch(path, std::ios::binary | std::ios::in | std::ios::out);
    patch.seekp(-2 * static_cast<std::streamoff>(sizeof(double)), std::ios::end);
    const double bad = -200.0;
    patch.write(reinterpret_cast<const char*>(&bad), sizeof bad);
  }
  EXPECT_THROW(read_trace(path), IoError);
}

TEST_F(TraceIoTest, BinaryRejectsOverflowingSampleCount) {
  // Forge the 8-byte sample count to 2^62: the reader must fail on the
  // short read rather than trying to allocate 32 EiB.
  TimeSeries original({100.0, 200.0, 300.0}, 1.0);
  const auto path = temp_path("forged_n.bin");
  write_binary(original, path);
  {
    std::fstream patch(path, std::ios::binary | std::ios::in | std::ios::out);
    patch.seekp(-3 * static_cast<std::streamoff>(sizeof(double)) -
                    static_cast<std::streamoff>(sizeof(std::uint64_t)),
                std::ios::end);
    const std::uint64_t forged = std::uint64_t{1} << 62;
    patch.write(reinterpret_cast<const char*>(&forged), sizeof forged);
  }
  EXPECT_THROW(read_trace(path), IoError);
}

TEST_F(TraceIoTest, BinaryRejectsOversizedUnitLength) {
  const auto path = temp_path("big_unit.bin");
  {
    std::ofstream out(path, std::ios::binary);
    out.write("VBRTRC01", 8);
    const double dt = 0.04;
    out.write(reinterpret_cast<const char*>(&dt), sizeof dt);
    const std::uint32_t unit_len = 1u << 20;  // claims a 1 MiB unit string
    out.write(reinterpret_cast<const char*>(&unit_len), sizeof unit_len);
  }
  EXPECT_THROW(read_trace(path), IoError);
}

TEST_F(TraceIoTest, AsciiWriteFailureThrowsAndKeepsThePreviousFile) {
  // A file-size limit far below the new trace's text: the write fails with
  // EFBIG, which write_ascii must report, leaving no temp file and the
  // previous trace intact.
  const auto path = temp_path("limited.txt");
  write_ascii(TimeSeries({1.0, 2.0}, 0.04, "bytes"), path);
  const auto read_bytes = [&] {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
  };
  const std::string before = read_bytes();
  std::optional<std::string> error;
  {
    test::FileSizeLimit limit(256);
    try {
      write_ascii(TimeSeries(std::vector<double>(1000, 27791.5), 0.04, "bytes"), path);
    } catch (const IoError& e) {
      error = e.what();
    }
  }
  ASSERT_TRUE(error.has_value()) << "write_ascii past the file-size limit succeeded";
  EXPECT_FALSE(std::filesystem::exists(path.string() + ".tmp"));
  EXPECT_EQ(read_bytes(), before);
  EXPECT_EQ(read_trace(path).values(), (std::vector<double>{1.0, 2.0}));
}

TEST_F(TraceIoTest, EmptySeriesRoundTrips) {
  TimeSeries empty(std::vector<double>{}, 1.0, "bytes");
  const auto apath = temp_path("empty.txt");
  const auto bpath = temp_path("empty.bin");
  write_ascii(empty, apath);
  write_binary(empty, bpath);
  EXPECT_EQ(read_trace(apath).size(), 0u);
  EXPECT_EQ(read_trace(bpath).size(), 0u);
}

}  // namespace
}  // namespace vbr::trace
