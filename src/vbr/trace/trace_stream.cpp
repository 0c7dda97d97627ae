#include "vbr/trace/trace_stream.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <istream>
#include <sstream>

#include "vbr/common/atomic_file.hpp"
#include "vbr/common/error.hpp"

namespace vbr::trace {
namespace {

/// Magic bytes opening a binary trace file.
constexpr std::array<char, 8> kBinaryMagic = {'V', 'B', 'R', 'T', 'R', 'C', '0', '1'};

/// dt assumed for bare ASCII traces (the paper's 24 frames/sec).
constexpr double kDefaultFrameDt = 1.0 / 24.0;

/// Longest unit string a binary header may claim.
constexpr std::size_t kMaxUnitLength = 4096;

// Frame/slice sizes are byte counts: finite and non-negative by definition.
// Anything else in a trace file is corruption, not data.
void validate_sample(double v, const std::string& name, std::uint64_t index) {
  if (!std::isfinite(v)) {
    throw IoError(name + ": non-finite frame size at sample " + std::to_string(index));
  }
  if (v < 0.0) {
    throw IoError(name + ": negative frame size at sample " + std::to_string(index));
  }
}

}  // namespace

ChunkedTraceReader::ChunkedTraceReader(const std::filesystem::path& path)
    : file_(std::make_unique<std::ifstream>(path, std::ios::binary)),
      in_(file_.get()),
      name_(path.string()) {
  if (!*file_) throw IoError("cannot open for reading: " + name_);
  init();
}

ChunkedTraceReader::ChunkedTraceReader(std::istream& in, std::string name)
    : in_(&in), name_(std::move(name)) {
  init();
}

void ChunkedTraceReader::init() {
  info_.dt_seconds = kDefaultFrameDt;
  info_.unit = "bytes/frame";

  // Sniff the format: a binary trace opens with the 8 magic bytes.
  std::array<char, 8> head{};
  in_->read(head.data(), head.size());
  const auto got = in_->gcount();
  if (got == static_cast<std::streamsize>(head.size()) &&
      std::memcmp(head.data(), kBinaryMagic.data(), head.size()) == 0) {
    info_.binary = true;
    double dt = 0.0;
    in_->read(reinterpret_cast<char*>(&dt), sizeof dt);
    std::uint32_t unit_len = 0;
    in_->read(reinterpret_cast<char*>(&unit_len), sizeof unit_len);
    if (!*in_ || unit_len > kMaxUnitLength) {
      throw IoError(name_ + ": corrupt unit length");
    }
    std::string unit(unit_len, '\0');
    in_->read(unit.data(), unit_len);
    std::uint64_t n = 0;
    in_->read(reinterpret_cast<char*>(&n), sizeof n);
    if (!*in_ || !std::isfinite(dt) || dt <= 0.0) throw IoError(name_ + ": corrupt header");
    info_.dt_seconds = dt;
    info_.unit = std::move(unit);
    info_.declared_samples = n;
    info_.header_bytes = head.size() + sizeof dt + sizeof unit_len +
                         static_cast<std::uint64_t>(unit_len) + sizeof n;
    remaining_ = n;
    return;
  }

  // ASCII: rewind and consume the leading header/comment block so info() is
  // complete before the first read(). Data lines stay unconsumed.
  in_->clear();
  in_->seekg(0);
  if (!*in_) throw IoError(name_ + ": stream is not seekable (cannot sniff format)");
  for (;;) {
    const int c = in_->peek();
    if (c == std::char_traits<char>::eof()) break;
    if (c == '\n' || c == '\r') {
      in_->get();
      if (c == '\n') ++line_no_;
      continue;
    }
    if (c != '#') break;
    std::string line;
    std::getline(*in_, line);
    ++line_no_;
    std::istringstream header(line.substr(1));
    std::string key;
    header >> key;
    if (key == "dt_seconds") {
      double dt = 0.0;
      if (!(header >> dt)) {
        throw IoError(name_ + ":" + std::to_string(line_no_) +
                      ": unreadable dt_seconds header");
      }
      if (!(dt > 0.0) || !std::isfinite(dt)) {
        throw IoError(name_ + ": non-positive dt_seconds header");
      }
      info_.dt_seconds = dt;
    } else if (key == "unit") {
      std::string unit;
      if (header >> unit) info_.unit = unit;
    }
  }
}

std::size_t ChunkedTraceReader::read_binary_chunk(std::span<double> out) {
  const auto take = static_cast<std::size_t>(
      std::min<std::uint64_t>(remaining_, out.size()));
  if (take == 0) return 0;
  in_->read(reinterpret_cast<char*>(out.data()),
            static_cast<std::streamsize>(take * sizeof(double)));
  if (!*in_) throw IoError(name_ + ": truncated sample data");
  for (std::size_t i = 0; i < take; ++i) {
    validate_sample(out[i], name_, samples_read_ + i);
  }
  remaining_ -= take;
  return take;
}

std::size_t ChunkedTraceReader::read_ascii_chunk(std::span<double> out) {
  std::size_t filled = 0;
  std::string line;
  while (filled < out.size() && std::getline(*in_, line)) {
    ++line_no_;
    if (line.empty()) continue;
    if (line[0] == '#') continue;  // headers after data are treated as comments
    std::istringstream row(line);
    double v = 0.0;
    if (!(row >> v)) {
      throw IoError(name_ + ":" + std::to_string(line_no_) + ": not a number: " + line);
    }
    validate_sample(v, name_, samples_read_ + filled);
    out[filled++] = v;
  }
  return filled;
}

std::size_t ChunkedTraceReader::read(std::span<double> out) {
  if (done_ || out.empty()) return 0;
  const std::size_t got =
      info_.binary ? read_binary_chunk(out) : read_ascii_chunk(out);
  samples_read_ += got;
  if (got == 0) done_ = true;
  return got;
}

void ChunkedTraceWriter::put(const void* data, std::size_t size) {
  file_.write({static_cast<const char*>(data), size});
}

void ChunkedTraceWriter::write_header(double dt_seconds, const std::string& unit) {
  if (!(dt_seconds > 0.0) || !std::isfinite(dt_seconds)) {
    throw IoError(path_ + ": refusing to write non-positive dt_seconds");
  }
  if (unit.size() > kMaxUnitLength) {
    throw IoError(path_ + ": unit string too long");
  }
  const auto unit_len = static_cast<std::uint32_t>(unit.size());
  put(kBinaryMagic.data(), kBinaryMagic.size());
  put(&dt_seconds, sizeof dt_seconds);
  put(&unit_len, sizeof unit_len);
  put(unit.data(), unit_len);
  put(&declared_, sizeof declared_);
  header_bytes_ = kBinaryMagic.size() + sizeof dt_seconds + sizeof unit_len +
                  unit.size() + sizeof declared_;
}

ChunkedTraceWriter::ChunkedTraceWriter(const std::filesystem::path& path,
                                       std::uint64_t total_samples, double dt_seconds,
                                       const std::string& unit,
                                       const TraceWriterOptions& options)
    : file_(path, OutputFile::Mode::kTruncate),
      path_(path.string()),
      options_(options),
      declared_(total_samples) {
  // The new entry must outlive a power loss too, or a checkpoint in another
  // directory could claim samples of a trace that no longer exists.
  if (options_.durable) fsync_parent_directory(path);
  write_header(dt_seconds, unit);
  next_sync_ = options_.sync_every_samples;
}

ChunkedTraceWriter::ChunkedTraceWriter(ResumeTag, const std::filesystem::path& path,
                                       std::uint64_t total_samples,
                                       std::uint64_t samples_written,
                                       const TraceWriterOptions& options)
    : path_(path.string()), options_(options), declared_(total_samples) {
  // Validate the surviving header with the reader (untrusted-input rules
  // apply: a crash can leave anything on disk) before touching the file.
  TraceStreamInfo info;
  {
    ChunkedTraceReader reader(path);
    info = reader.info();
  }
  if (!info.binary) throw IoError(path_ + ": cannot resume an ASCII trace");
  if (info.declared_samples != total_samples) {
    throw IoError(path_ + ": header declares " +
                  std::to_string(info.declared_samples) +
                  " samples but the checkpoint expects " +
                  std::to_string(total_samples));
  }
  if (samples_written > total_samples) {
    throw IoError(path_ + ": checkpoint claims more samples than declared");
  }
  const std::uint64_t keep = info.header_bytes + 8 * samples_written;
  file_ = OutputFile(path, OutputFile::Mode::kExisting);  // opened at its end
  const std::streamoff size = file_.pubseekoff(0, std::ios_base::cur, std::ios_base::out);
  if (static_cast<std::uint64_t>(size) < keep) {
    throw IoError(path_ + ": file holds " + std::to_string(size) +
                  " bytes, fewer than the " + std::to_string(keep) +
                  " the checkpoint recorded as durable");
  }
  // Discard the torn tail a mid-append crash may have left; appends then
  // continue from the last checkpointed sample at the file's end.
  if (static_cast<std::uint64_t>(size) > keep) file_.truncate(keep);
  written_ = samples_written;
  header_bytes_ = info.header_bytes;
  next_sync_ = written_ + options_.sync_every_samples;
}

ChunkedTraceWriter ChunkedTraceWriter::resume(const std::filesystem::path& path,
                                              std::uint64_t total_samples,
                                              std::uint64_t samples_written,
                                              const TraceWriterOptions& options) {
  return ChunkedTraceWriter(ResumeTag{}, path, total_samples, samples_written, options);
}

void ChunkedTraceWriter::maybe_sync() {
  if (!options_.durable || written_ < next_sync_) return;
  file_.sync_file();
  while (next_sync_ <= written_) next_sync_ += options_.sync_every_samples;
}

void ChunkedTraceWriter::append(std::span<const double> samples) {
  if (finished_) throw IoError(path_ + ": append after finish");
  if (written_ + samples.size() > declared_) {
    throw IoError(path_ + ": more samples appended than the header declares");
  }
  for (std::size_t i = 0; i < samples.size(); ++i) {
    validate_sample(samples[i], path_, written_ + i);
  }
  put(samples.data(), samples.size() * sizeof(double));
  written_ += samples.size();
  maybe_sync();
}

void ChunkedTraceWriter::flush() {
  if (finished_ || !options_.durable) return;
  file_.sync_file();
}

void ChunkedTraceWriter::finish() {
  if (finished_) return;
  if (written_ != declared_) {
    throw IoError(path_ + ": finish() after " + std::to_string(written_) +
                  " of " + std::to_string(declared_) + " declared samples");
  }
  flush();
  // Every write was checked, so the offset always equals what this writer
  // put there; the file's real size also catches a trace shortened (or
  // appended to) behind the writer.
  const auto size = file_.pubseekoff(0, std::ios_base::end, std::ios_base::out);
  const auto expected = static_cast<std::streamoff>(header_bytes_ + 8 * declared_);
  if (size != expected) {
    throw IoError(path_ + ": file holds " + std::to_string(size) +
                  " bytes, expected " + std::to_string(expected));
  }
  file_.close();
  finished_ = true;
}

}  // namespace vbr::trace
