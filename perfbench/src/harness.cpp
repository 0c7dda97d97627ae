#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

#include "vbr/common/checksum.hpp"
#include "vbr/common/error.hpp"

namespace perfbench {

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return std::nan("");
  std::sort(samples.begin(), samples.end());
  const double rank = p / 100.0 * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + frac * (samples[hi] - samples[lo]);
}

Tracer::Scope Tracer::span(const char* name) {
  if (!enabled_) return Scope(nullptr, -1);
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_).count();
  spans_.push_back(std::move(s));
  const int index = static_cast<int>(spans_.size() - 1);
  open_.push_back(index);
  return Scope(this, index);
}

void Tracer::close(int index) {
  spans_[static_cast<std::size_t>(index)].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_).count();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

void Tracer::write(const std::filesystem::path& path) const {
  // Children of one span never overlap (one driving thread), so the part of
  // the parent's interval they cover is the sum of their durations.
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
  }
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw vbr::IoError("cannot write spans: " + path.string());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"self_ns\":" << s.end_ns - s.start_ns - child_ns[i]
        << ",\"parent\":" << s.parent << "}\n";
  }
  out.flush();
  if (!out) throw vbr::IoError("cannot write spans: " + path.string());
}

namespace {

Metric make_metric(const std::string& name, double value, const std::string& unit,
                   std::size_t samples) {
  Metric m;
  m.name = name;
  m.unit = unit;
  m.samples = samples;
  if (std::isfinite(value)) {
    m.value = value;
  } else {
    m.reason = "not finite";
  }
  return m;
}

}  // namespace

void Result::metric(const std::string& name, double value, const std::string& unit,
                    std::size_t samples) {
  metrics.push_back(make_metric(name, value, unit, samples));
}

void Result::reported(const std::string& name, double value, const std::string& unit,
                      std::size_t samples) {
  report.push_back(make_metric(name, value, unit, samples));
}

void Result::layer(const std::string& name, double value, const std::string& unit,
                   std::size_t samples) {
  layers.push_back(make_metric(name, value, unit, samples));
}

void Result::layer_null(const std::string& name, const std::string& unit,
                        const std::string& reason) {
  Metric m;
  m.name = name;
  m.unit = unit;
  m.reason = reason;
  layers.push_back(std::move(m));
}

void Result::check(const std::string& name, bool ok, const std::string& detail) {
  checks.push_back({name, ok, detail});
}

void Result::pin(const std::string& name, std::uint64_t digest) {
  pins.emplace_back(name, hex64(digest));
}

double peak_rss_mib() {
  rusage self{};
  rusage children{};
  ::getrusage(RUSAGE_SELF, &self);
  ::getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) / 1024.0;
}

double current_rss_bytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) * 1024.0;
  }
  return std::nan("");
}

std::string hex64(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(value));
  return buf;
}

std::uint64_t fnv_bytes(const std::string& bytes) {
  vbr::Fnv1a h;
  h.update(bytes.data(), bytes.size());
  return h.digest();
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw vbr::IoError("cannot read " + path.string());
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

bool can_measure_scaling() { return std::thread::hardware_concurrency() >= 2; }

}  // namespace perfbench
