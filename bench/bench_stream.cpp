// bench_stream: throughput of the one-pass streaming estimators, emitted as
// JSON for dashboards/CI.
//
// Pushes a generated model trace through each streaming sink alone and then
// through the full five-sink chain, in engine-sized blocks, and reports
// samples/second. The chain number is the per-sample cost a caller pays for
// tapping the generation engine. StreamingAcf is the one sink whose cost
// grows with a parameter (O(max_lag) per sample, register-blocked over
// eight samples), so its lag window is a parameter here; block 1 is the
// worst case for it (one window set-up per sample).
//
// Usage:
//   ./bench_stream [samples] [block] [acf_max_lag]
#include <algorithm>
#include <chrono>
#include <cstdarg>
#include <cstddef>
#include <cstdio>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bench_support.hpp"
#include "vbr/stream/acf.hpp"
#include "vbr/stream/moments.hpp"
#include "vbr/stream/quantiles.hpp"
#include "vbr/stream/sink.hpp"
#include "vbr/stream/variance_time.hpp"
#include "vbr/stream/welch.hpp"

namespace {

void appendf(std::string& out, const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  const int len = std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  if (len > 0) out.append(buf, std::min(static_cast<std::size_t>(len), sizeof buf - 1));
}

double time_push(vbr::stream::Sink& sink, std::span<const double> data,
                 std::size_t block) {
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < data.size(); i += block) {
    sink.push(data.subspan(i, std::min(block, data.size() - i)));
  }
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t samples = (argc > 1) ? std::stoul(argv[1]) : (std::size_t{1} << 21);
  const std::size_t block = (argc > 2) ? std::stoul(argv[2]) : (std::size_t{1} << 16);
  const std::size_t max_lag = (argc > 3) ? std::stoul(argv[3]) : 128;

  const auto& trace = vbrbench::full_trace();
  std::vector<double> data;
  data.reserve(samples);
  const auto& src = trace.frames.values();
  for (std::size_t i = 0; i < samples; ++i) data.push_back(src[i % src.size()]);

  vbr::stream::StreamingMoments moments;
  vbr::stream::StreamingQuantiles quantiles;
  vbr::stream::StreamingAcf acf(max_lag);
  vbr::stream::StreamingVarianceTime vt;
  vbr::stream::StreamingWelchPeriodogram welch;

  std::string json;
  appendf(json, "{\n");
  appendf(json, "  \"benchmark\": \"stream_throughput\",\n");
  appendf(json, "  \"samples\": %zu,\n", samples);
  appendf(json, "  \"block\": %zu,\n", block);
  appendf(json, "  \"acf_max_lag\": %zu,\n", max_lag);
  appendf(json, "  \"hardware_concurrency\": %u,\n", std::thread::hardware_concurrency());
  appendf(json, "  \"contracts\": \"%s\",\n", vbrbench::contracts_state());
  appendf(json, "  \"results\": [\n");

  struct Row {
    const char* name;
    vbr::stream::Sink* sink;
  };
  vbr::stream::SinkChain full =
      vbr::stream::chain(moments, quantiles, acf, vt, welch);
  const std::vector<Row> rows = {
      {"moments", &moments}, {"quantiles", &quantiles}, {"acf", &acf},
      {"variance_time", &vt}, {"welch", &welch},        {"chain_all", &full},
  };
  for (std::size_t i = 0; i < rows.size(); ++i) {
    // chain_all reuses the five already-filled sinks; their results are not
    // read here, so double-filling is harmless and keeps one data pass each.
    vbr::stream::Sink& sink = *rows[i].sink;
    const double seconds = time_push(sink, data, block);
    const double rate = seconds > 0.0 ? static_cast<double>(samples) / seconds : 0.0;
    appendf(json,
            "    {\"sink\": \"%s\", \"wall_seconds\": %.6f, "
            "\"samples_per_second\": %.0f}%s\n",
            rows[i].name, seconds, rate, i + 1 < rows.size() ? "," : "");
    std::fprintf(stderr, "[stream] %-14s %10.3g samples/s\n", rows[i].name, rate);
  }

  appendf(json, "  ]\n");
  appendf(json, "}\n");
  std::fputs(json.c_str(), stdout);
  vbrbench::emit_bench_json("stream", json);
  return 0;
}
