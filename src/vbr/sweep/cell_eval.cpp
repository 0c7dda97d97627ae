#include "vbr/sweep/cell_eval.hpp"

#include <istream>
#include <ostream>

#include "vbr/common/error.hpp"
#include "vbr/common/math_util.hpp"
#include "vbr/common/rng.hpp"
#include "vbr/common/serialize.hpp"
#include "vbr/engine/engine.hpp"
#include "vbr/net/cell_queue.hpp"
#include "vbr/net/fbm_queue.hpp"
#include "vbr/net/fluid_queue.hpp"

namespace vbr::sweep {

namespace {

/// Frame interval of the paper's 24 fps material.
constexpr double kDtSeconds = 1.0 / 24.0;

/// Target overflow probability for the fBm required-capacity field (the
/// epsilon regime of the paper's QOS targets).
constexpr double kFbmEpsilon = 1e-6;

/// Bounds for untrusted diagnostic strings in a settled record.
constexpr std::uint64_t kMaxMessage = 4096;
constexpr std::uint64_t kMaxStderrTail = 8192;

}  // namespace

stats::GammaParetoParams cell_marginal() {
  return {.mu_gamma = 27791.0, .sigma_gamma = 6254.0, .tail_slope = 12.0};
}

CellResult evaluate_cell(const CellSpec& spec) {
  VBR_ENSURE(spec.num_sources >= 1, "cell needs at least one source");
  VBR_ENSURE(spec.frames_per_source >= 2, "cell needs at least two frames");
  VBR_CHECK_FINITE(spec.utilization, "cell utilization");
  VBR_ENSURE(spec.utilization > 0.0, "cell utilization must be positive");
  VBR_ENSURE(spec.buffer_delay_ms >= 0.0, "cell buffer delay must be non-negative");

  // Workers are forked children: generation stays single-threaded so a cell
  // never depends on thread scheduling and never spawns threads post-fork.
  engine::GenerationPlan plan;
  plan.num_sources = spec.num_sources;
  plan.frames_per_source = spec.frames_per_source;
  plan.seed = spec.seed;
  plan.params = {.marginal = cell_marginal(), .hurst = spec.hurst};
  plan.threads = 1;
  const engine::MultiSourceTrace trace = engine::generate_sources(plan);
  const std::vector<double> aggregate = trace.aggregate();
  check_finite_series(aggregate, "sweep cell aggregate traffic");

  CellResult result;
  const double mean_bytes = sample_mean(aggregate);
  VBR_ENSURE(mean_bytes > 0.0, "cell traffic has zero mean rate");
  const double capacity_bytes_per_sec = mean_bytes / kDtSeconds / spec.utilization;
  result.mean_rate_bps = mean_bytes * 8.0 / kDtSeconds;
  result.capacity_bps = capacity_bytes_per_sec * 8.0;
  result.buffer_bytes = spec.buffer_delay_ms * 1e-3 * capacity_bytes_per_sec;

  switch (spec.queue) {
    case QueueKind::kFluid: {
      const net::FluidQueueResult fluid = net::run_fluid_queue(
          aggregate, kDtSeconds, capacity_bytes_per_sec, result.buffer_bytes);
      result.loss_rate = fluid.loss_rate();
      result.mean_queue_bytes = fluid.mean_queue_bytes;
      result.max_queue_bytes = fluid.max_queue_bytes;
      break;
    }
    case QueueKind::kCell: {
      // Uniform spacing keeps the discrete queue deterministic; the Rng is
      // still threaded through for the random-spacing variant's signature.
      Rng rng(spec.seed);
      const net::CellQueueResult cells = net::run_cell_queue(
          aggregate, kDtSeconds, capacity_bytes_per_sec, result.buffer_bytes,
          net::CellSpacing::kUniform, rng);
      result.loss_rate = cells.loss_rate();
      break;
    }
    case QueueKind::kFbm: {
      const net::FbmTrafficParams traffic = net::fit_fbm_traffic(aggregate, spec.hurst);
      const double capacity_per_interval = capacity_bytes_per_sec * kDtSeconds;
      result.overflow_probability = net::fbm_overflow_probability(
          traffic, capacity_per_interval, result.buffer_bytes);
      result.loss_rate = result.overflow_probability;
      // The closed form needs b > 0 and c > m; report 0 (not applicable)
      // for a zero buffer or an overloaded cell instead of throwing.
      if (result.buffer_bytes > 0.0 && spec.utilization < 1.0) {
        result.required_capacity_bps =
            net::fbm_required_capacity(traffic, result.buffer_bytes, kFbmEpsilon) *
            8.0 / kDtSeconds;
      }
      break;
    }
  }

  VBR_CHECK_FINITE(result.loss_rate, "cell loss rate");
  VBR_CHECK_PROB(result.loss_rate, "cell loss rate");
  VBR_CHECK_FINITE(result.mean_queue_bytes, "cell mean queue");
  VBR_CHECK_FINITE(result.max_queue_bytes, "cell max queue");
  VBR_CHECK_FINITE(result.required_capacity_bps, "cell required capacity");
  return result;
}

void write_cell_result(std::ostream& out, const CellResult& result) {
  io::write_f64(out, result.mean_rate_bps);
  io::write_f64(out, result.capacity_bps);
  io::write_f64(out, result.buffer_bytes);
  io::write_f64(out, result.loss_rate);
  io::write_f64(out, result.mean_queue_bytes);
  io::write_f64(out, result.max_queue_bytes);
  io::write_f64(out, result.overflow_probability);
  io::write_f64(out, result.required_capacity_bps);
}

CellResult read_cell_result(std::istream& in, const char* what) {
  CellResult result;
  result.mean_rate_bps = io::read_f64(in, what);
  result.capacity_bps = io::read_f64(in, what);
  result.buffer_bytes = io::read_f64(in, what);
  result.loss_rate = io::read_f64(in, what);
  result.mean_queue_bytes = io::read_f64(in, what);
  result.max_queue_bytes = io::read_f64(in, what);
  result.overflow_probability = io::read_f64(in, what);
  result.required_capacity_bps = io::read_f64(in, what);
  return result;
}

const char* failure_kind_name(FailureKind kind) {
  switch (kind) {
    case FailureKind::kCrash: return "crash";
    case FailureKind::kHang: return "hang";
    case FailureKind::kOom: return "oom";
    case FailureKind::kError: return "error";
  }
  return "unknown";
}

void write_cell_record(std::ostream& out, const CellRecord& record) {
  io::write_u64(out, record.cell_index);
  io::write_u8(out, static_cast<std::uint8_t>(record.status));
  if (record.status == CellStatus::kDone) {
    write_cell_result(out, record.result);
  } else {
    const CellFailure& f = record.failure;
    io::write_u32(out, static_cast<std::uint32_t>(f.kind));
    io::write_u32(out, static_cast<std::uint32_t>(f.exit_code));
    io::write_u32(out, static_cast<std::uint32_t>(f.term_signal));
    io::write_u64(out, f.attempts);
    io::write_u64(out, f.max_rss_kib);
    io::write_f64(out, f.wall_seconds);
    io::write_string(out, f.message);
    io::write_string(out, f.stderr_tail);
  }
}

CellRecord read_cell_record(std::istream& in, std::uint64_t total_cells,
                            const std::string& name) {
  const char* what = name.c_str();
  CellRecord record;
  record.cell_index = io::read_u64(in, what);
  if (record.cell_index >= total_cells) {
    throw IoError(name + ": sweep cell index out of range");
  }
  const std::uint8_t status = io::read_u8(in, what);
  if (status == static_cast<std::uint8_t>(CellStatus::kDone)) {
    record.status = CellStatus::kDone;
    record.result = read_cell_result(in, what);
  } else if (status == static_cast<std::uint8_t>(CellStatus::kQuarantined)) {
    record.status = CellStatus::kQuarantined;
    CellFailure& f = record.failure;
    const std::uint32_t kind = io::read_u32(in, what);
    if (kind < static_cast<std::uint32_t>(FailureKind::kCrash) ||
        kind > static_cast<std::uint32_t>(FailureKind::kError)) {
      throw IoError(name + ": sweep failure kind out of range");
    }
    f.kind = static_cast<FailureKind>(kind);
    f.exit_code = static_cast<std::int32_t>(io::read_u32(in, what));
    f.term_signal = static_cast<std::int32_t>(io::read_u32(in, what));
    f.attempts = io::read_u64(in, what);
    f.max_rss_kib = io::read_u64(in, what);
    f.wall_seconds = io::read_f64(in, what);
    f.message = io::read_string(in, kMaxMessage, what);
    f.stderr_tail = io::read_string(in, kMaxStderrTail, what);
  } else {
    throw IoError(name + ": sweep cell status out of range");
  }
  return record;
}

}  // namespace vbr::sweep
