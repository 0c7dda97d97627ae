#include "vbr/trace/trace_io.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <istream>
#include <limits>
#include <sstream>
#include <string>

#include "vbr/common/error.hpp"
#include "vbr/trace/trace_format.hpp"
#include "vbr/trace/trace_stream.hpp"

namespace vbr::trace {
namespace {

// Format constants and per-sample validation are shared with the chunked
// streaming reader/writer (trace_stream) through trace_format.hpp.
constexpr const std::array<char, 8>& kMagic = detail::kBinaryMagic;
constexpr double kDefaultFrameDt = detail::kDefaultFrameDt;
using detail::validate_sample;

}  // namespace

void write_ascii(const TimeSeries& series, const std::filesystem::path& path) {
  std::ofstream out(path);
  if (!out) throw IoError("cannot open for writing: " + path.string());
  out.precision(17);
  out << "# vbr trace v1\n";
  out << "# dt_seconds " << series.dt_seconds() << "\n";
  out << "# unit " << series.unit() << "\n";
  for (double v : series.values()) out << v << "\n";
  if (!out) throw IoError("write failed: " + path.string());
}

TimeSeries read_ascii(std::istream& in, const std::string& name) {
  double dt = kDefaultFrameDt;
  std::string unit = "bytes/frame";
  std::vector<double> values;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    if (line[0] == '#') {
      std::istringstream header(line.substr(1));
      std::string key;
      header >> key;
      if (key == "dt_seconds") {
        if (!(header >> dt)) {
          throw IoError(name + ":" + std::to_string(line_no) + ": unreadable dt_seconds header");
        }
      } else if (key == "unit") {
        header >> unit;
      }
      continue;
    }
    std::istringstream row(line);
    double v = 0.0;
    if (!(row >> v)) {
      throw IoError(name + ":" + std::to_string(line_no) + ": not a number: " + line);
    }
    validate_sample(v, name, values.size());
    values.push_back(v);
  }
  if (!(dt > 0.0) || !std::isfinite(dt)) {
    throw IoError(name + ": non-positive dt_seconds header");
  }
  return TimeSeries(std::move(values), dt, unit);
}

TimeSeries read_ascii(const std::filesystem::path& path) {
  std::ifstream in(path);
  if (!in) throw IoError("cannot open for reading: " + path.string());
  return read_ascii(in, path.string());
}

void write_binary(const TimeSeries& series, const std::filesystem::path& path) {
  ChunkedTraceWriter writer(path, series.size(), series.dt_seconds(), series.unit());
  writer.append(series.values());
  writer.finish();
}

TimeSeries read_binary(std::istream& in, const std::string& name) {
  std::array<char, 8> magic{};
  in.read(magic.data(), magic.size());
  if (!in || std::memcmp(magic.data(), kMagic.data(), kMagic.size()) != 0) {
    throw IoError(name + ": not a vbr binary trace (bad magic)");
  }
  double dt = 0.0;
  in.read(reinterpret_cast<char*>(&dt), sizeof dt);
  std::uint32_t unit_len = 0;
  in.read(reinterpret_cast<char*>(&unit_len), sizeof unit_len);
  if (!in || unit_len > detail::kMaxUnitLength) {
    throw IoError(name + ": corrupt unit length");
  }
  std::string unit(unit_len, '\0');
  in.read(unit.data(), unit_len);
  std::uint64_t n = 0;
  in.read(reinterpret_cast<char*>(&n), sizeof n);
  if (!in || !std::isfinite(dt) || dt <= 0.0) throw IoError(name + ": corrupt header");

  // The sample count is untrusted: read in bounded chunks so a forged header
  // claiming 2^60 samples fails with IoError on the first short read instead
  // of attempting an n * 8-byte allocation.
  constexpr std::size_t kChunkSamples = std::size_t{1} << 16;
  std::vector<double> values;
  values.reserve(static_cast<std::size_t>(std::min<std::uint64_t>(n, kChunkSamples)));
  std::vector<double> chunk;
  std::uint64_t remaining = n;
  while (remaining > 0) {
    const auto take = static_cast<std::size_t>(std::min<std::uint64_t>(remaining, kChunkSamples));
    chunk.resize(take);
    in.read(reinterpret_cast<char*>(chunk.data()),
            static_cast<std::streamsize>(take * sizeof(double)));
    if (!in) throw IoError(name + ": truncated sample data");
    for (std::size_t i = 0; i < take; ++i) {
      validate_sample(chunk[i], name, values.size() + i);
    }
    values.insert(values.end(), chunk.begin(), chunk.end());
    remaining -= take;
  }
  return TimeSeries(std::move(values), dt, unit);
}

TimeSeries read_binary(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw IoError("cannot open for reading: " + path.string());
  return read_binary(in, path.string());
}

}  // namespace vbr::trace
