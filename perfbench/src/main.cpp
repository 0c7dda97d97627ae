// perfbench_workload: runs one workload of the repo benchmark in this process
// and prints the run's result document as the last line of stdout.
//
//   perfbench_workload --workload serve|sweep|campaign --seed N --seconds S
//                    --trace 0|1 --work-dir DIR [--spans FILE]
//
// --trace 0 measures the workload end to end (no spans). --trace 1 runs the
// per-layer suites of all three workloads, recording spans in memory and
// writing them to --spans at exit. perfbench/run.py builds this program,
// runs it, checks the document and prints the benchmark's summary line.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>

#include <sched.h>

#include "harness.hpp"
#include "vbr/common/error.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using perfbench::Metric;

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_metrics(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (i > 0) out += ",";
    out += json_string(m.name) + ":{\"value\":";
    out += m.value ? json_number(*m.value) : "null";
    out += ",\"unit\":" + json_string(m.unit);
    out += ",\"samples\":" + std::to_string(m.samples);
    if (!m.reason.empty()) out += ",\"reason\":" + json_string(m.reason);
    out += "}";
  }
  return out + "}";
}

std::size_t affinity_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof set, &set) != 0) return 0;
  return static_cast<std::size_t>(CPU_COUNT(&set));
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_workload: %s\n"
               "usage: perfbench_workload --workload serve|sweep|campaign --seed N "
               "--seconds S --trace 0|1 --work-dir DIR [--spans FILE]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  std::filesystem::path spans_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') usage("--seed must be a whole number");
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(options.seconds > 0.0)) {
        usage("--seconds must be a positive number");
      }
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") usage("--trace must be 0 or 1");
      options.trace = value == "1";
    } else if (arg == "--work-dir") {
      options.work_dir = value;
    } else if (arg == "--spans") {
      spans_path = value;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (options.workload != "serve" && options.workload != "sweep" &&
      options.workload != "campaign") {
    usage("--workload must be serve, sweep or campaign");
  }
  if (options.work_dir.empty()) usage("--work-dir is required");
  std::filesystem::create_directories(options.work_dir);

  perfbench::Tracer tracer(options.trace);
  perfbench::Result result;
  try {
    if (!options.trace) {
      if (options.workload == "serve") perfbench::run_serve(options, tracer, result);
      if (options.workload == "sweep") perfbench::run_sweep(options, tracer, result);
      if (options.workload == "campaign") perfbench::run_campaign(options, tracer, result);
    } else {
      perfbench::layers_serve(options, tracer, result, options.workload == "serve");
      perfbench::layers_sweep(options, tracer, result, options.workload == "sweep");
      perfbench::layers_campaign(options, tracer, result, options.workload == "campaign");
      if (!spans_path.empty()) tracer.write(spans_path);
    }
  } catch (const std::exception& e) {
    result.check("workload completed", false, e.what());
  }
  result.metric("peak_rss_mib", perfbench::peak_rss_mib(), "MiB");

  std::string doc = "{\"workload\":" + json_string(options.workload);
  doc += ",\"seed\":" + std::to_string(options.seed);
  doc += ",\"trace\":" + std::string(options.trace ? "1" : "0");
  doc += ",\"env\":{\"hardware_concurrency\":" +
         std::to_string(std::thread::hardware_concurrency());
  doc += ",\"nproc\":" + std::to_string(affinity_cpus());
  doc += ",\"threads\":" + std::to_string(perfbench::kThreads);
  doc += ",\"pools\":" + std::to_string(perfbench::kPools);
  doc += ",\"build_type\":" + json_string(PERFBENCH_BUILD_TYPE);
  doc += ",\"contracts\":" + json_string(VBR_DCHECK_ENABLED ? "on" : "off");
  doc += "},\"attempted\":" + std::to_string(result.attempted);
  doc += ",\"failed\":" + std::to_string(result.failed);
  doc += ",\"metrics\":" + json_metrics(result.metrics);
  doc += ",\"report\":" + json_metrics(result.report);
  doc += ",\"layers\":" + json_metrics(result.layers);
  doc += ",\"checks\":[";
  for (std::size_t i = 0; i < result.checks.size(); ++i) {
    const perfbench::Check& c = result.checks[i];
    if (i > 0) doc += ",";
    doc += "{\"name\":" + json_string(c.name) + ",\"ok\":" + (c.ok ? "true" : "false") +
           ",\"detail\":" + json_string(c.detail) + "}";
  }
  doc += "],\"pins\":{";
  for (std::size_t i = 0; i < result.pins.size(); ++i) {
    if (i > 0) doc += ",";
    doc += json_string(result.pins[i].first) + ":" + json_string(result.pins[i].second);
  }
  doc += "}}";
  std::printf("%s\n", doc.c_str());
  std::fflush(stdout);
  return 0;
}
