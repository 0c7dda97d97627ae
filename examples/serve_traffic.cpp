// serve_traffic: the ROADMAP item 3 shape — one long-lived driver serving
// endless VBR traffic from N lightweight streaming sources, with crash-safe
// checkpointing, a self-enforced RSS ceiling, and (PR 10) an overload
// governor: budgeted admission, per-stream fault isolation, and a
// deterministic graceful-degradation ladder.
//
//   serve_traffic [options]
//       --streams N          concurrent streams              (default 4)
//       --samples N          samples to serve per stream     (default 4096)
//       --block N            samples per stream per round    (default 64)
//       --seed S             master seed                     (default 42)
//       --generator NAME     hosking | paxson | onoff        (default hosking)
//       --variant NAME       full | gaussian | iid           (default gaussian)
//       --hurst H            Hurst parameter                 (default 0.8)
//       --mean X             marginal mean (bytes/frame)     (default 27791)
//       --stddev X           marginal stddev                 (default 6254)
//       --tail-slope X       Pareto tail slope m_T           (default 12)
//       --hosking-horizon N  hosking predictor horizon       (default 64)
//       --paxson-window N    paxson synthesis window         (default 4096)
//       --paxson-overlap N   paxson stitch overlap           (default 512)
//       --threads N          worker threads (0 = auto; never affects output)
//       --queue-capacity X   multiplexer service rate, bytes/sec (0 = no queue)
//       --queue-buffer X     multiplexer buffer, bytes
//       --checkpoint FILE    VBRSRVC1 checkpoint path (written atomically)
//       --checkpoint-every N rounds between checkpoint saves (default 1)
//       --resume             continue from FILE if it exists
//       --max-rss-mib M      RSS ceiling: breach checkpoints, then exits 3
//       --hash-out FILE      write results_hash (hex) atomically
//       --json               print the summary as one JSON object
//
//   Overload governor (any of these flags attaches the governor; a governed
//   resume must repeat the same governor flags):
//       --memory-budget-mib M   admission gate: refuse the fleet (exit 5)
//                               if the projected stream state exceeds M MiB
//       --cpu-budget-sps X      admission gate on projected samples/sec
//       --stream-fault SPEC     seeded per-stream fault, repeatable;
//                               SPEC = STREAM@SAMPLE:transient|permanent[:TIMES]
//       --pressure SPEC         seeded pressure transition, repeatable;
//                               SPEC = EPOCH:LEVEL (levels 0..3)
//       --shed-fraction F       fraction of streams shed at level 1 (default 0.25)
//       --degraded-block N      block cap at level 2 (default: half the block)
//       --retry-attempts N      TransientError retry budget (default 3)
//       --retry-backoff S       base backoff seconds (default 0)
//       --snapshot-every-round  snapshot all streams (retries cover
//                               unscheduled transients too)
//       --rss-probe             drive the ladder from live RSS against
//                               --max-rss-mib (70/80/90% thresholds);
//                               mutually exclusive with --pressure
//       --inject-io-fault N     throw vbr::IoError after round N (drills the
//                               checkpoint-then-exit-4 path; test hook)
//
// Exit codes: 0 success, 1 runtime error (clean vbr::Error — hostile inputs
// never abort; a round that throws part-way writes no checkpoint), 2 usage
// error, 3 RSS ceiling exceeded (state checkpointed first when --checkpoint
// is set, so --resume always works), 4 mid-run failure between rounds with
// state checkpointed (resume with --resume), 5 admission rejected
// (structured decision printed, nothing built).
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "vbr/common/atomic_file.hpp"
#include "vbr/common/error.hpp"
#include "vbr/model/fgn_generator.hpp"
#include "vbr/service/governor.hpp"
#include "vbr/service/service_checkpoint.hpp"
#include "vbr/service/traffic_service.hpp"

namespace {

std::uint64_t parse_u64(const char* text, const char* flag) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') {
    std::fprintf(stderr, "serve_traffic: bad value for %s: %s\n", flag, text);
    std::exit(2);
  }
  return static_cast<std::uint64_t>(v);
}

double parse_f64(const char* text, const char* flag) {
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0') {
    std::fprintf(stderr, "serve_traffic: bad value for %s: %s\n", flag, text);
    std::exit(2);
  }
  return v;
}

/// Peak resident set (VmHWM) in MiB from /proc/self/status; 0 if unreadable.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// Current resident set (VmRSS) in MiB — the live pressure-probe reading.
double current_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// STREAM@SAMPLE:transient|permanent[:TIMES]
vbr::service::ScheduledStreamFault parse_stream_fault(const std::string& spec) {
  const auto at = spec.find('@');
  const auto colon = spec.find(':', at == std::string::npos ? 0 : at);
  if (at == std::string::npos || colon == std::string::npos) {
    std::fprintf(stderr, "serve_traffic: bad --stream-fault spec: %s\n", spec.c_str());
    std::exit(2);
  }
  vbr::service::ScheduledStreamFault fault;
  fault.stream =
      static_cast<std::size_t>(parse_u64(spec.substr(0, at).c_str(), "--stream-fault"));
  fault.at_sample = parse_u64(spec.substr(at + 1, colon - at - 1).c_str(), "--stream-fault");
  std::string kind = spec.substr(colon + 1);
  const auto times_colon = kind.find(':');
  if (times_colon != std::string::npos) {
    fault.times = parse_u64(kind.substr(times_colon + 1).c_str(), "--stream-fault");
    kind.resize(times_colon);
  }
  if (kind == "transient") {
    fault.kind = vbr::run::FaultKind::kTransient;
  } else if (kind == "permanent") {
    fault.kind = vbr::run::FaultKind::kPermanent;
  } else {
    std::fprintf(stderr, "serve_traffic: fault kind must be transient or permanent: %s\n",
                 spec.c_str());
    std::exit(2);
  }
  return fault;
}

/// EPOCH:LEVEL
vbr::service::PressureEvent parse_pressure(const std::string& spec) {
  const auto colon = spec.find(':');
  if (colon == std::string::npos) {
    std::fprintf(stderr, "serve_traffic: bad --pressure spec: %s\n", spec.c_str());
    std::exit(2);
  }
  vbr::service::PressureEvent event;
  event.at_epoch = parse_u64(spec.substr(0, colon).c_str(), "--pressure");
  event.level = static_cast<int>(parse_u64(spec.substr(colon + 1).c_str(), "--pressure"));
  return event;
}

/// Unwinds the serve loop at a consistent round boundary when the RSS
/// ceiling is breached, so the shared rescue path below can checkpoint.
struct RssCeilingBreach final : std::exception {
  const char* what() const noexcept override { return "rss ceiling exceeded"; }
};

/// JSON string payload hygiene for error messages we print.
std::string json_safe(std::string s) {
  for (char& c : s) {
    if (c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20) c = ' ';
  }
  return s;
}

void report_failures(const vbr::service::OverloadGovernor& governor) {
  for (const vbr::service::StreamFailure& failure : governor.failures()) {
    std::fprintf(stderr,
                 "serve_traffic: stream %zu quarantined (%s) at sample %" PRIu64
                 " after %u attempt(s): %s\n",
                 failure.stream, failure.transient ? "transient, retries exhausted" : "permanent",
                 failure.position, failure.attempts, failure.error.c_str());
  }
}

void print_admission(const vbr::service::AdmissionDecision& decision, bool json) {
  if (json) {
    std::printf("{\"admission\": {\"outcome\": \"%s\", \"requested_streams\": %zu, "
                "\"projected_memory_bytes\": %" PRIu64 ", \"memory_budget_bytes\": %" PRIu64
                ", \"projected_samples_per_second\": %.17g, "
                "\"cpu_budget_samples_per_second\": %.17g, \"reason\": \"%s\"}}\n",
                vbr::service::admission_outcome_name(decision.outcome), decision.requested_streams,
                decision.projected_memory_bytes, decision.memory_budget_bytes,
                decision.projected_samples_per_second, decision.cpu_budget_samples_per_second,
                json_safe(decision.reason).c_str());
  } else {
    std::fprintf(stderr, "serve_traffic: admission %s: %s\n",
                 vbr::service::admission_outcome_name(decision.outcome), decision.reason.c_str());
  }
}

int usage() {
  std::fprintf(stderr,
               "usage: serve_traffic [--streams N] [--samples N] [--block N] [--seed S]\n"
               "                     [--generator hosking|paxson|onoff]\n"
               "                     [--variant full|gaussian|iid] [--hurst H]\n"
               "                     [--mean X] [--stddev X] [--tail-slope X]\n"
               "                     [--hosking-horizon N] [--paxson-window N]\n"
               "                     [--paxson-overlap N] [--threads N]\n"
               "                     [--queue-capacity X] [--queue-buffer X]\n"
               "                     [--checkpoint FILE] [--checkpoint-every N] [--resume]\n"
               "                     [--max-rss-mib M] [--hash-out FILE] [--json]\n"
               "                     [--memory-budget-mib M] [--cpu-budget-sps X]\n"
               "                     [--stream-fault S@P:transient|permanent[:T]]...\n"
               "                     [--pressure EPOCH:LEVEL]... [--shed-fraction F]\n"
               "                     [--degraded-block N] [--retry-attempts N]\n"
               "                     [--retry-backoff S] [--snapshot-every-round]\n"
               "                     [--rss-probe] [--inject-io-fault N]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  vbr::service::ServiceConfig config;
  config.num_streams = 4;
  config.seed = 42;
  config.variant = vbr::model::ModelVariant::kGaussianFarima;
  config.backend = vbr::model::GeneratorBackend::kHosking;
  config.params.hurst = 0.8;
  config.params.marginal.mu_gamma = 27791.0;
  config.params.marginal.sigma_gamma = 6254.0;
  config.params.marginal.tail_slope = 12.0;

  std::uint64_t samples = 4096;
  std::uint64_t block = 64;
  std::uint64_t checkpoint_every = 1;
  std::string checkpoint_path;
  std::string hash_out;
  bool resume = false;
  bool json = false;
  double max_rss_mib = 0.0;

  vbr::service::GovernorConfig gov_config;
  bool governed = false;
  bool rss_probe = false;
  std::uint64_t inject_io_fault_round = 0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "serve_traffic: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--streams") {
      config.num_streams = static_cast<std::size_t>(parse_u64(next(), "--streams"));
    } else if (arg == "--samples") {
      samples = parse_u64(next(), "--samples");
    } else if (arg == "--block") {
      block = parse_u64(next(), "--block");
    } else if (arg == "--seed") {
      config.seed = parse_u64(next(), "--seed");
    } else if (arg == "--generator") {
      try {
        config.backend = vbr::model::generator_backend_from_name(next());
      } catch (const vbr::Error& e) {
        std::fprintf(stderr, "serve_traffic: %s\n", e.what());
        return 2;
      }
    } else if (arg == "--variant") {
      const std::string name = next();
      if (name == "full") {
        config.variant = vbr::model::ModelVariant::kFull;
      } else if (name == "gaussian") {
        config.variant = vbr::model::ModelVariant::kGaussianFarima;
      } else if (name == "iid") {
        config.variant = vbr::model::ModelVariant::kIidGammaPareto;
      } else {
        std::fprintf(stderr, "serve_traffic: unknown variant: %s\n", name.c_str());
        return 2;
      }
    } else if (arg == "--hurst") {
      config.params.hurst = parse_f64(next(), "--hurst");
    } else if (arg == "--mean") {
      config.params.marginal.mu_gamma = parse_f64(next(), "--mean");
    } else if (arg == "--stddev") {
      config.params.marginal.sigma_gamma = parse_f64(next(), "--stddev");
    } else if (arg == "--tail-slope") {
      config.params.marginal.tail_slope = parse_f64(next(), "--tail-slope");
    } else if (arg == "--hosking-horizon") {
      config.tuning.hosking_horizon =
          static_cast<std::size_t>(parse_u64(next(), "--hosking-horizon"));
    } else if (arg == "--paxson-window") {
      config.tuning.paxson_window =
          static_cast<std::size_t>(parse_u64(next(), "--paxson-window"));
    } else if (arg == "--paxson-overlap") {
      config.tuning.paxson_overlap =
          static_cast<std::size_t>(parse_u64(next(), "--paxson-overlap"));
    } else if (arg == "--threads") {
      config.threads = static_cast<std::size_t>(parse_u64(next(), "--threads"));
    } else if (arg == "--queue-capacity") {
      config.queue_capacity_bytes_per_sec = parse_f64(next(), "--queue-capacity");
    } else if (arg == "--queue-buffer") {
      config.queue_buffer_bytes = parse_f64(next(), "--queue-buffer");
    } else if (arg == "--checkpoint") {
      checkpoint_path = next();
    } else if (arg == "--checkpoint-every") {
      checkpoint_every = parse_u64(next(), "--checkpoint-every");
    } else if (arg == "--resume") {
      resume = true;
    } else if (arg == "--max-rss-mib") {
      max_rss_mib = parse_f64(next(), "--max-rss-mib");
    } else if (arg == "--hash-out") {
      hash_out = next();
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--memory-budget-mib") {
      gov_config.budget.memory_bytes =
          static_cast<std::uint64_t>(parse_f64(next(), "--memory-budget-mib") * 1024.0 * 1024.0);
      governed = true;
    } else if (arg == "--cpu-budget-sps") {
      gov_config.budget.cpu_samples_per_second = parse_f64(next(), "--cpu-budget-sps");
      governed = true;
    } else if (arg == "--stream-fault") {
      gov_config.stream_faults.push_back(parse_stream_fault(next()));
      governed = true;
    } else if (arg == "--pressure") {
      gov_config.pressure_schedule.push_back(parse_pressure(next()));
      governed = true;
    } else if (arg == "--shed-fraction") {
      gov_config.shed_fraction = parse_f64(next(), "--shed-fraction");
      governed = true;
    } else if (arg == "--degraded-block") {
      gov_config.degraded_block = static_cast<std::size_t>(parse_u64(next(), "--degraded-block"));
      governed = true;
    } else if (arg == "--retry-attempts") {
      gov_config.policy.max_attempts = static_cast<std::size_t>(parse_u64(next(), "--retry-attempts"));
      governed = true;
    } else if (arg == "--retry-backoff") {
      gov_config.policy.backoff_seconds = parse_f64(next(), "--retry-backoff");
      governed = true;
    } else if (arg == "--snapshot-every-round") {
      gov_config.snapshot_every_round = true;
      governed = true;
    } else if (arg == "--rss-probe") {
      rss_probe = true;
      governed = true;
    } else if (arg == "--inject-io-fault") {
      inject_io_fault_round = parse_u64(next(), "--inject-io-fault");
    } else {
      std::fprintf(stderr, "serve_traffic: unknown option: %s\n", arg.c_str());
      return usage();
    }
  }
  if (block == 0 || samples == 0 || checkpoint_every == 0) {
    std::fprintf(stderr, "serve_traffic: --samples, --block, --checkpoint-every must be > 0\n");
    return 2;
  }
  if (rss_probe && !gov_config.pressure_schedule.empty()) {
    std::fprintf(stderr, "serve_traffic: --rss-probe and --pressure are mutually exclusive\n");
    return 2;
  }
  if (rss_probe && max_rss_mib <= 0.0) {
    std::fprintf(stderr, "serve_traffic: --rss-probe needs --max-rss-mib\n");
    return 2;
  }

  // Budgeted admission: refuse the fleet *before* the memory-proportional
  // build, as a structured decision rather than an exception or an OOM.
  if (governed) {
    try {
      const vbr::service::AdmissionDecision decision =
          vbr::service::admit_fleet(config, gov_config.budget);
      if (!decision.admitted()) {
        print_admission(decision, json);
        return 5;
      }
    } catch (const vbr::Error& e) {
      std::fprintf(stderr, "serve_traffic: %s\n", e.what());
      return 1;
    }
  }

  std::unique_ptr<vbr::service::TrafficService> service;
  std::unique_ptr<vbr::service::OverloadGovernor> governor;
  try {
    service = std::make_unique<vbr::service::TrafficService>(config);
    if (governed) {
      if (rss_probe) {
        const double ceiling = max_rss_mib;
        gov_config.pressure_probe = [ceiling]() {
          const double rss = current_rss_mib();
          if (rss >= 0.9 * ceiling) return 3;
          if (rss >= 0.8 * ceiling) return 2;
          if (rss >= 0.7 * ceiling) return 1;
          return 0;
        };
      }
      governor = std::make_unique<vbr::service::OverloadGovernor>(*service, gov_config);
    }
    if (resume && !checkpoint_path.empty() && std::filesystem::exists(checkpoint_path)) {
      vbr::service::load_service_checkpoint(checkpoint_path, *service, governor.get());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "serve_traffic: %s\n", e.what());
    return 1;
  }

  // Serve. A failure between rounds leaves a consistent round boundary
  // behind, so the rescue path checkpoints before exiting — a breached RSS
  // ceiling or a mid-run I/O fault is always resumable, never a dead run. A
  // round that throws leaves its streams partly advanced, so the rescue
  // path writes nothing then and the last periodic checkpoint stays the
  // resume point.
  bool in_round = false;
  try {
    if (governor != nullptr) {
      // Governed runs count progress in governed epochs (the checkpoint
      // persists the cursor, so a resumed run continues exactly).
      std::uint64_t iteration = 0;
      while (governor->epoch() < samples) {
        const std::uint64_t step = std::min<std::uint64_t>(block, samples - governor->epoch());
        in_round = true;
        governor->advance_round(static_cast<std::size_t>(step));
        in_round = false;
        ++iteration;
        if (inject_io_fault_round != 0 && iteration == inject_io_fault_round) {
          throw vbr::IoError("injected sink I/O fault after round " + std::to_string(iteration));
        }
        const bool checkpoint_due =
            iteration % checkpoint_every == 0 || governor->epoch() >= samples;
        if (!checkpoint_path.empty() && (checkpoint_due || governor->checkpoint_requested())) {
          vbr::service::save_service_checkpoint(checkpoint_path, *service, governor.get());
          governor->acknowledge_checkpoint();
        }
        if (max_rss_mib > 0.0 && !rss_probe && peak_rss_mib() > max_rss_mib) {
          throw RssCeilingBreach();
        }
      }
    } else {
      // Ungoverned: samples-per-stream is rounds * block, exactly as before.
      const auto target_rounds = static_cast<std::uint64_t>((samples + block - 1) / block);
      while (service->rounds() < target_rounds) {
        in_round = true;
        service->advance_round(static_cast<std::size_t>(block));
        in_round = false;
        if (inject_io_fault_round != 0 && service->rounds() == inject_io_fault_round) {
          throw vbr::IoError("injected sink I/O fault after round " +
                             std::to_string(service->rounds()));
        }
        if (!checkpoint_path.empty() && (service->rounds() % checkpoint_every == 0 ||
                                         service->rounds() == target_rounds)) {
          vbr::service::save_service_checkpoint(checkpoint_path, *service);
        }
        if (max_rss_mib > 0.0 && peak_rss_mib() > max_rss_mib) {
          throw RssCeilingBreach();
        }
      }
    }
  } catch (const std::exception& e) {
    const bool rss_breach = dynamic_cast<const RssCeilingBreach*>(&e) != nullptr;
    int exit_code = 1;
    if (rss_breach) {
      std::fprintf(stderr, "serve_traffic: peak RSS %.1f MiB exceeds ceiling %.1f MiB\n",
                   peak_rss_mib(), max_rss_mib);
      exit_code = 3;
    } else {
      std::fprintf(stderr, "serve_traffic: %s\n", e.what());
    }
    if (governor != nullptr) report_failures(*governor);
    if (in_round) {
      std::fprintf(stderr, "serve_traffic: the round failed part-way; no checkpoint written\n");
    } else if (!checkpoint_path.empty()) {
      try {
        vbr::service::save_service_checkpoint(checkpoint_path, *service, governor.get());
        std::fprintf(stderr, "serve_traffic: state checkpointed to %s; rerun with --resume\n",
                     checkpoint_path.c_str());
        if (!rss_breach) exit_code = 4;
      } catch (const std::exception& save_error) {
        // The rescue save is best-effort: report, keep the original exit code.
        std::fprintf(stderr, "serve_traffic: rescue checkpoint failed: %s\n", save_error.what());
      }
    }
    return exit_code;
  }

  // Summary.
  try {
    const double rss = peak_rss_mib();
    if (!hash_out.empty()) {
      char line[32];
      std::snprintf(line, sizeof line, "%016" PRIx64 "\n", service->results_hash());
      vbr::write_file_atomic(hash_out, line);
    }

    if (governor != nullptr) report_failures(*governor);
    if (json) {
      std::printf("{\"streams\": %zu, \"samples_per_stream\": %" PRIu64 ", \"rounds\": %" PRIu64
                  ", \"total_samples\": %" PRIu64 ", \"results_hash\": \"%016" PRIx64
                  "\", \"total_bytes\": %.17g, \"peak_rss_mib\": %.1f",
                  config.num_streams, samples, service->rounds(), service->total_samples(),
                  service->results_hash(), service->total_bytes(), rss);
      if (governor != nullptr) {
        std::printf(", \"governed\": true, \"level\": %d, \"shed_streams\": %zu"
                    ", \"quarantined_streams\": %zu, \"transient_retries\": %" PRIu64
                    ", \"stream_failures\": [",
                    governor->level(), governor->shed_streams(), governor->quarantined_streams(),
                    governor->transient_retries());
        bool first = true;
        for (const vbr::service::StreamFailure& failure : governor->failures()) {
          std::printf("%s{\"stream\": %zu, \"kind\": \"%s\", \"position\": %" PRIu64
                      ", \"attempts\": %u, \"error\": \"%s\"}",
                      first ? "" : ", ", failure.stream,
                      failure.transient ? "transient" : "permanent", failure.position,
                      failure.attempts, json_safe(failure.error).c_str());
          first = false;
        }
        std::printf("]");
      }
      std::printf("}\n");
    } else {
      std::printf("streams        %zu\n", config.num_streams);
      std::printf("samples/stream %" PRIu64 "\n", samples);
      std::printf("rounds         %" PRIu64 "\n", service->rounds());
      std::printf("total_samples  %" PRIu64 "\n", service->total_samples());
      std::printf("total_bytes    %.6g\n", service->total_bytes());
      std::printf("results_hash   %016" PRIx64 "\n", service->results_hash());
      if (service->queue() != nullptr) {
        std::printf("queue_lost     %.6g\n", service->queue()->lost_bytes());
        std::printf("queue_max      %.6g\n", service->queue()->max_queue_bytes());
      }
      if (governor != nullptr) {
        std::printf("governed       level=%d shed=%zu quarantined=%zu retries=%" PRIu64 "\n",
                    governor->level(), governor->shed_streams(), governor->quarantined_streams(),
                    governor->transient_retries());
      }
      std::printf("peak_rss_mib   %.1f\n", rss);
    }

    if (max_rss_mib > 0.0 && rss > max_rss_mib) {
      std::fprintf(stderr, "serve_traffic: peak RSS %.1f MiB exceeds ceiling %.1f MiB\n", rss,
                   max_rss_mib);
      if (!checkpoint_path.empty()) {
        vbr::service::save_service_checkpoint(checkpoint_path, *service, governor.get());
        std::fprintf(stderr, "serve_traffic: state checkpointed to %s\n", checkpoint_path.c_str());
      }
      return 3;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "serve_traffic: %s\n", e.what());
    return 1;
  }
  return 0;
}
