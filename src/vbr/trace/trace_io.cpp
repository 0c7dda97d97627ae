#include "vbr/trace/trace_io.hpp"

#include <algorithm>
#include <sstream>

#include "vbr/common/atomic_file.hpp"
#include "vbr/trace/trace_stream.hpp"

namespace vbr::trace {
namespace {

// The binary header's sample count is untrusted: the series grows one
// bounded chunk at a time, so a forged count fails on the first short read
// instead of as one n * 8-byte allocation.
constexpr std::size_t kChunkSamples = std::size_t{1} << 16;

TimeSeries drain(ChunkedTraceReader& reader) {
  std::vector<double> values;
  values.reserve(static_cast<std::size_t>(
      std::min<std::uint64_t>(reader.info().declared_samples, kChunkSamples)));
  std::vector<double> chunk(kChunkSamples);
  while (const std::size_t got = reader.read(chunk)) {
    values.insert(values.end(), chunk.begin(), chunk.begin() + static_cast<std::ptrdiff_t>(got));
  }
  return TimeSeries(std::move(values), reader.info().dt_seconds, reader.info().unit);
}

}  // namespace

void write_ascii(const TimeSeries& series, const std::filesystem::path& path) {
  std::ostringstream out;
  out.precision(17);
  out << "# vbr trace v1\n";
  out << "# dt_seconds " << series.dt_seconds() << "\n";
  out << "# unit " << series.unit() << "\n";
  for (double v : series.values()) out << v << "\n";
  write_file_atomic(path, out.str());
}

void write_binary(const TimeSeries& series, const std::filesystem::path& path) {
  ChunkedTraceWriter writer(path, series.size(), series.dt_seconds(), series.unit());
  writer.append(series.values());
  writer.finish();
}

TimeSeries read_trace(const std::filesystem::path& path) {
  ChunkedTraceReader reader(path);
  return drain(reader);
}

TimeSeries read_trace(std::istream& in, const std::string& name) {
  ChunkedTraceReader reader(in, name);
  return drain(reader);
}

}  // namespace vbr::trace
