#include "vbr/service/governor.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <sstream>
#include <thread>
#include <utility>

#include "vbr/common/error.hpp"
#include "vbr/common/serialize.hpp"
#include "vbr/net/admission.hpp"
#include "vbr/service/streaming_hosking.hpp"
#include "vbr/stats/gamma_pareto.hpp"

namespace vbr::service {
namespace {

double elapsed_seconds(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - since).count();
}

/// Rewind a source to a previously serialized snapshot (the streaming
/// generalization of the engine's retry-from-a-copy-of-the-Rng: after the
/// rewind the source will emit exactly the samples it emitted last time).
void rewind_to_snapshot(StreamingSource& source, const std::string& snapshot) {
  std::istringstream in(snapshot, std::ios::binary);
  source.restore(in);
}

constexpr int kMaxLevel = 3;

}  // namespace

const char* admission_outcome_name(AdmissionOutcome outcome) {
  switch (outcome) {
    case AdmissionOutcome::kAdmitted: return "admitted";
    case AdmissionOutcome::kRejectedMemory: return "rejected-memory";
    case AdmissionOutcome::kRejectedCpu: return "rejected-cpu";
    case AdmissionOutcome::kRejectedLoss: return "rejected-loss";
  }
  return "unknown";
}

std::uint64_t stream_state_bytes(model::GeneratorBackend backend, const StreamingTuning& tuning) {
  // Fixed per-stream overhead: the source object (vtable, Rng, marginal
  // map), the service's pointer/status/digest slots, and allocator
  // rounding. Calibrated so hosking at the default horizon 64 lands on the
  // ~0.85 KiB/stream bench_service measured at 10^6 streams (843 MiB).
  constexpr std::uint64_t kFixedOverhead = 360;
  switch (backend) {
    case model::GeneratorBackend::kHosking:
      // m-sample prediction ring; the Durbin-Levinson tables are shared
      // through the per-(H, variance, m) cache, not per stream.
      return kFixedOverhead + 8ull * tuning.hosking_horizon;
    case model::GeneratorBackend::kPaxson:
      // One synthesis window plus the crossfade overlap carried between
      // blocks.
      return kFixedOverhead + 8ull * (tuning.paxson_window + tuning.paxson_overlap);
    case model::GeneratorBackend::kAggregatedOnOff:
      // Active-session end-time heap at its expected occupancy, plus slack
      // for the Poisson excursions above the mean.
      return kFixedOverhead +
             static_cast<std::uint64_t>(24.0 * std::max(1.0, tuning.onoff_mean_active_sessions));
    case model::GeneratorBackend::kDaviesHarte:
      break;  // no streaming form; the service constructor rejects it too
  }
  throw InvalidArgument("stream_state_bytes: backend has no streaming cost model");
}

AdmissionDecision admit_fleet(const ServiceConfig& config, const ResourceBudget& budget) {
  VBR_ENSURE(config.num_streams >= 1, "admission needs at least one requested stream");
  VBR_ENSURE(config.frame_seconds > 0.0, "admission needs a positive frame interval");
  const std::size_t fleet_streams = config.num_streams;
  AdmissionDecision decision;
  decision.requested_streams = fleet_streams;
  decision.projected_memory_bytes =
      static_cast<std::uint64_t>(fleet_streams) * stream_state_bytes(config.backend, config.tuning);
  decision.memory_budget_bytes = budget.memory_bytes;
  decision.projected_samples_per_second =
      static_cast<double>(fleet_streams) / config.frame_seconds;
  decision.cpu_budget_samples_per_second = budget.cpu_samples_per_second;

  if (budget.memory_bytes > 0 && decision.projected_memory_bytes > budget.memory_bytes) {
    decision.outcome = AdmissionOutcome::kRejectedMemory;
    decision.reason = "projected stream state " + std::to_string(decision.projected_memory_bytes) +
                      " B exceeds memory budget " + std::to_string(budget.memory_bytes) + " B";
    return decision;
  }
  if (budget.cpu_samples_per_second > 0.0 &&
      decision.projected_samples_per_second > budget.cpu_samples_per_second) {
    decision.outcome = AdmissionOutcome::kRejectedCpu;
    decision.reason = "projected rate " + std::to_string(decision.projected_samples_per_second) +
                      " samples/s exceeds CPU budget " +
                      std::to_string(budget.cpu_samples_per_second) + " samples/s";
    return decision;
  }
  if (budget.queue_loss_target > 0.0 && config.queue_capacity_bytes_per_sec > 0.0 &&
      fleet_streams <= kLossGateMaxStreams) {
    // The paper's Section 4.2 machinery at its engineering use: admit only
    // if the N-fold Gamma/Pareto convolution keeps the bufferless loss
    // fraction under target at the configured service rate.
    const stats::GammaParetoDistribution marginal(config.params.marginal);
    const net::BufferlessAdmission gate(marginal, config.frame_seconds);
    const double loss =
        gate.loss_fraction(fleet_streams, config.queue_capacity_bytes_per_sec * 8.0);
    if (loss > budget.queue_loss_target) {
      decision.outcome = AdmissionOutcome::kRejectedLoss;
      decision.reason = "analytic loss fraction " + std::to_string(loss) + " exceeds target " +
                        std::to_string(budget.queue_loss_target);
      return decision;
    }
  }
  decision.outcome = AdmissionOutcome::kAdmitted;
  decision.reason = "within budget";
  return decision;
}

OverloadGovernor::OverloadGovernor(TrafficService& service, GovernorConfig config)
    : service_(service), config_(std::move(config)) {
  VBR_ENSURE(config_.policy.max_attempts >= 1, "retry policy needs at least one attempt");
  VBR_ENSURE(config_.shed_fraction >= 0.0 && config_.shed_fraction <= 1.0,
             "shed fraction must lie in [0, 1]");
  VBR_ENSURE(!(config_.pressure_probe && !config_.pressure_schedule.empty()),
             "pressure probe and pressure schedule are mutually exclusive");
  const std::size_t num_streams = service_.config().num_streams;
  for (std::size_t i = 0; i < config_.stream_faults.size(); ++i) {
    const ScheduledStreamFault& fault = config_.stream_faults[i];
    VBR_ENSURE(fault.stream < num_streams, "scheduled fault names a stream out of range");
    VBR_ENSURE(fault.times >= 1, "a scheduled fault must fire at least once");
    fault_states_[fault.stream].entries.push_back(
        FaultEntry{fault.at_sample, fault.kind, fault.times, i});
  }
  for (auto& [stream, state] : fault_states_) {
    std::stable_sort(state.entries.begin(), state.entries.end(),
                     [](const FaultEntry& a, const FaultEntry& b) {
                       return a.at_sample < b.at_sample;
                     });
  }
  std::uint64_t last_epoch = 0;
  bool first = true;
  for (const PressureEvent& event : config_.pressure_schedule) {
    VBR_ENSURE(event.level >= 0 && event.level <= kMaxLevel,
               "pressure levels run 0 (nominal) to 3 (checkpoint)");
    VBR_ENSURE(first || event.at_epoch > last_epoch,
               "pressure schedule epochs must be strictly increasing");
    last_epoch = event.at_epoch;
    first = false;
  }
}

void OverloadGovernor::advance_round(std::size_t block) {
  VBR_ENSURE(block >= 1, "governed round block must be at least 1");
  if (config_.pressure_probe) {
    const int want = std::clamp(config_.pressure_probe(), 0, kMaxLevel);
    if (want != level_) apply_level(want);
  }
  std::size_t remaining = block;
  while (remaining > 0) {
    // Apply every transition due at the current epoch, then advance only up
    // to the next one: transitions land at exact per-stream positions, so
    // the emitted samples cannot depend on how the caller sliced rounds.
    while (next_event_ < config_.pressure_schedule.size() &&
           config_.pressure_schedule[next_event_].at_epoch <= epoch_) {
      apply_level(config_.pressure_schedule[next_event_].level);
      ++next_event_;
    }
    std::uint64_t step = remaining;
    if (next_event_ < config_.pressure_schedule.size()) {
      step = std::min<std::uint64_t>(step, config_.pressure_schedule[next_event_].at_epoch - epoch_);
    }
    if (level_ >= 2) {
      const std::size_t cap =
          config_.degraded_block != 0 ? config_.degraded_block : std::max<std::size_t>(1, block / 2);
      step = std::min<std::uint64_t>(step, cap);
    }
    service_.advance_round(static_cast<std::size_t>(step), this);
    epoch_ += step;
    remaining -= static_cast<std::size_t>(step);
  }
  // Surface a transition landing exactly on the final epoch now, so level()
  // and checkpoint_requested() reflect it without waiting for another round.
  while (next_event_ < config_.pressure_schedule.size() &&
         config_.pressure_schedule[next_event_].at_epoch <= epoch_) {
    apply_level(config_.pressure_schedule[next_event_].level);
    ++next_event_;
  }
}

void OverloadGovernor::apply_level(int level) {
  if (level >= 1 && shed_.empty() && config_.shed_fraction > 0.0) {
    // Shed the lowest-priority (highest-index: last admitted, first shed)
    // active streams. They are paused, not retired — recovery resumes each
    // one exactly where it froze.
    const std::size_t active = service_.active_streams();
    const std::size_t target =
        static_cast<std::size_t>(config_.shed_fraction * static_cast<double>(active));
    std::size_t i = service_.config().num_streams;
    while (i > 0 && shed_.size() < target) {
      --i;
      if (service_.status(i) == StreamStatus::kActive) {
        service_.pause(i);
        shed_.push_back(i);
      }
    }
  }
  if (level < 1 && !shed_.empty()) {
    for (const std::size_t stream : shed_) {
      if (service_.status(stream) == StreamStatus::kPaused) service_.resume(stream);
    }
    shed_.clear();
  }
  if (level >= kMaxLevel && level_ < kMaxLevel) checkpoint_requested_ = true;
  level_ = level;
}

OverloadGovernor::StreamFaultState* OverloadGovernor::fault_state(std::size_t stream) {
  // The map is built in the constructor and never resized afterwards, so
  // concurrent find() from worker threads is safe; each worker only
  // mutates entries of the stream it owns this round.
  const auto it = fault_states_.find(stream);
  return it == fault_states_.end() ? nullptr : &it->second;
}

bool OverloadGovernor::faults_pending(const StreamFaultState* state, std::uint64_t position,
                                      std::size_t block) const {
  if (state == nullptr) return false;
  const std::uint64_t end = position + block;
  for (const FaultEntry& entry : state->entries) {
    if (entry.remaining > 0 && entry.at_sample >= position && entry.at_sample < end) return true;
  }
  return false;
}

void OverloadGovernor::generate_with_plan(StreamingSource& source, std::size_t block,
                                          std::vector<double>& out, StreamFaultState& state,
                                          bool& threw_scheduled) {
  const std::uint64_t end = source.position() + block;
  for (FaultEntry& entry : state.entries) {
    if (entry.remaining == 0) continue;
    if (entry.at_sample < source.position() || entry.at_sample >= end) continue;
    // Emit exactly up to the fault position, then fire: the stream's
    // partial block is the same for any thread count or block slicing.
    source.next_block(static_cast<std::size_t>(entry.at_sample - source.position()), out);
    --entry.remaining;
    threw_scheduled = true;
    if (entry.kind == run::FaultKind::kTransient) {
      throw TransientError("scheduled transient fault at sample " +
                           std::to_string(entry.at_sample));
    }
    throw std::runtime_error("scheduled permanent fault at sample " +
                             std::to_string(entry.at_sample));
  }
  source.next_block(static_cast<std::size_t>(end - source.position()), out);
}

bool OverloadGovernor::generate(std::size_t stream, StreamingSource& source, std::size_t block,
                                std::vector<double>& out) {
  StreamFaultState* state = fault_state(stream);
  if (!config_.snapshot_every_round && !faults_pending(state, source.position(), block)) {
    // Fast path: no snapshot. An unscheduled throw here cannot be retried
    // bit-identically (there is no state to rewind to), so the stream
    // quarantines at the round boundary with its partial block discarded.
    const std::uint64_t start = source.position();
    try {
      source.next_block(block, out);
      return true;
    } catch (const TransientError& e) {
      out.clear();
      record_failure(StreamFailure{stream, true, start, 1,
                                   std::string(e.what()) + " (no snapshot; not retried)"});
      return false;
    } catch (const std::exception& e) {
      out.clear();
      record_failure(StreamFailure{stream, false, start, 1, e.what()});
      return false;
    }
  }
  return generate_guarded(stream, source, block, out, state);
}

void OverloadGovernor::generate_lanes(std::span<const std::size_t> streams,
                                      std::span<StreamingVbrSource* const> lanes,
                                      std::size_t block,
                                      std::span<std::vector<double>* const> outs,
                                      std::vector<double>& window,
                                      std::span<bool> quarantine) {
  std::array<StreamingVbrSource*, kLockstepLanes> group{};
  std::array<std::vector<double>*, kLockstepLanes> group_outs{};
  std::array<std::size_t, kLockstepLanes> lane_of{};  // group member -> lane
  std::size_t size = 0;
  for (std::size_t g = 0; g < lanes.size(); ++g) {
    if (faults_pending(fault_state(streams[g]), lanes[g]->position(), block)) {
      quarantine[g] = !generate(streams[g], *lanes[g], block, *outs[g]);
    } else {
      quarantine[g] = false;
      group[size] = lanes[g];
      group_outs[size] = outs[g];
      lane_of[size++] = g;
    }
  }
  if (size == 0) return;
  if (size == 1) {
    // A lone lane, perhaps a backend with no lockstep form: on its own.
    const std::size_t g = lane_of[0];
    quarantine[g] = !generate(streams[g], *lanes[g], block, *outs[g]);
    return;
  }
  try {
    StreamingVbrSource::next_block_lanes(std::span(group.data(), size), block,
                                         std::span(group_outs.data(), size), window);
  } catch (const std::exception&) {
    // The group advanced no lane, and which lane failed is unknown: each
    // reruns from the round's start on its own.
    for (std::size_t k = 0; k < size; ++k) {
      const std::size_t g = lane_of[k];
      outs[g]->clear();
      quarantine[g] = !generate(streams[g], *lanes[g], block, *outs[g]);
    }
  }
}

bool OverloadGovernor::generate_guarded(std::size_t stream, StreamingSource& source,
                                        std::size_t block, std::vector<double>& out,
                                        StreamFaultState* state) {
  const std::uint64_t start = source.position();
  std::ostringstream snapshot_out(std::ios::binary);
  source.save(snapshot_out);
  const std::string snapshot = snapshot_out.str();
  const auto attempt_clock = std::chrono::steady_clock::now();

  for (std::size_t attempt = 1;; ++attempt) {
    bool threw_scheduled = false;
    try {
      if (state != nullptr) {
        generate_with_plan(source, block, out, *state, threw_scheduled);
      } else {
        source.next_block(block, out);
      }
      return true;
    } catch (const TransientError& e) {
      const bool out_of_attempts = attempt >= config_.policy.max_attempts;
      const bool out_of_time =
          config_.policy.source_deadline_seconds > 0.0 &&
          elapsed_seconds(attempt_clock) > config_.policy.source_deadline_seconds;
      if (out_of_attempts || out_of_time) {
        // Quarantine. A scheduled fault froze the stream at its exact
        // at_sample with the deterministic partial block already in `out`;
        // an unscheduled one rewinds to the round boundary.
        if (!threw_scheduled) {
          out.clear();
          rewind_to_snapshot(source, snapshot);
        }
        record_failure(StreamFailure{stream, true,
                                     threw_scheduled ? source.position() : start,
                                     static_cast<std::uint32_t>(attempt), e.what()});
        return false;
      }
      // Retry from the snapshot: the rewound source re-emits exactly the
      // samples it emitted on the failed attempt (engine FailurePolicy
      // semantics, generalized from Rng copies to serialized stream state).
      out.clear();
      rewind_to_snapshot(source, snapshot);
      transient_retries_.fetch_add(1, std::memory_order_relaxed);
      if (config_.policy.backoff_seconds > 0.0) {
        const double sleep_seconds =
            config_.policy.backoff_seconds * std::pow(2.0, static_cast<double>(attempt - 1));
        std::this_thread::sleep_for(std::chrono::duration<double>(sleep_seconds));
      }
    } catch (const std::exception& e) {
      if (!threw_scheduled) {
        out.clear();
        rewind_to_snapshot(source, snapshot);
      }
      record_failure(StreamFailure{stream, false, threw_scheduled ? source.position() : start,
                                   static_cast<std::uint32_t>(attempt), e.what()});
      return false;
    }
  }
}

void OverloadGovernor::record_failure(StreamFailure failure) {
  const std::scoped_lock lock(failures_mutex_);
  failures_.emplace(failure.stream, std::move(failure));
}

std::vector<StreamFailure> OverloadGovernor::failures() const {
  const std::scoped_lock lock(failures_mutex_);
  std::vector<StreamFailure> out;
  out.reserve(failures_.size());
  for (const auto& [stream, failure] : failures_) out.push_back(failure);
  return out;
}

std::size_t OverloadGovernor::quarantined_streams() const {
  const std::scoped_lock lock(failures_mutex_);
  return failures_.size();
}

std::uint64_t OverloadGovernor::config_fingerprint() const {
  Fnv1a hash;
  const auto mix_u64 = [&hash](std::uint64_t v) { hash.update(&v, sizeof v); };
  const auto mix_f64 = [&hash](double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    hash.update(&bits, sizeof bits);
  };
  mix_u64(config_.budget.memory_bytes);
  mix_f64(config_.budget.cpu_samples_per_second);
  mix_f64(config_.budget.queue_loss_target);
  mix_u64(config_.policy.max_attempts);
  mix_f64(config_.policy.backoff_seconds);
  mix_f64(config_.policy.source_deadline_seconds);
  mix_f64(config_.shed_fraction);
  mix_u64(config_.degraded_block);
  mix_u64(config_.snapshot_every_round ? 1 : 0);
  mix_u64(config_.stream_faults.size());
  for (const ScheduledStreamFault& fault : config_.stream_faults) {
    mix_u64(fault.stream);
    mix_u64(fault.at_sample);
    mix_u64(static_cast<std::uint64_t>(fault.kind));
    mix_u64(fault.times);
  }
  mix_u64(config_.pressure_schedule.size());
  for (const PressureEvent& event : config_.pressure_schedule) {
    mix_u64(event.at_epoch);
    mix_u64(static_cast<std::uint64_t>(event.level));
  }
  return hash.digest();
}

void OverloadGovernor::save_state(std::ostream& out) const {
  io::write_string(out, "governor");
  io::write_u64(out, config_fingerprint());
  io::write_u64(out, epoch_);
  io::write_u8(out, static_cast<std::uint8_t>(level_));
  io::write_u64(out, next_event_);
  io::write_u8(out, checkpoint_requested_ ? 1 : 0);
  io::write_u64(out, transient_retries_.load(std::memory_order_relaxed));
  std::vector<std::uint64_t> shed(shed_.begin(), shed_.end());
  io::write_u64_vector(out, shed);
  // Remaining fire counts for the fault schedule, in GovernorConfig order.
  std::vector<std::uint64_t> remaining(config_.stream_faults.size(), 0);
  for (const auto& [stream, state] : fault_states_) {
    for (const FaultEntry& entry : state.entries) remaining[entry.config_index] = entry.remaining;
  }
  io::write_u64_vector(out, remaining);
  const std::scoped_lock lock(failures_mutex_);
  io::write_u64(out, failures_.size());
  for (const auto& [stream, failure] : failures_) {
    io::write_u64(out, failure.stream);
    io::write_u8(out, failure.transient ? 1 : 0);
    io::write_u64(out, failure.position);
    io::write_u64(out, failure.attempts);
    io::write_string(out, failure.error);
  }
}

void OverloadGovernor::restore_state(std::istream& in) {
  static constexpr const char* kWhat = "OverloadGovernor::restore";
  io::read_tag(in, "governor", kWhat);
  const std::uint64_t fingerprint = io::read_u64(in, kWhat);
  if (fingerprint != config_fingerprint()) {
    throw IoError("OverloadGovernor::restore: checkpoint belongs to a different governor config");
  }
  const std::uint64_t epoch = io::read_u64(in, kWhat);
  const std::uint8_t level = io::read_u8(in, kWhat);
  if (level > static_cast<std::uint8_t>(kMaxLevel)) {
    throw IoError("OverloadGovernor::restore: corrupt degradation level");
  }
  const std::uint64_t next_event = io::read_u64(in, kWhat);
  if (next_event > config_.pressure_schedule.size()) {
    throw IoError("OverloadGovernor::restore: schedule progress out of range");
  }
  const std::uint8_t checkpoint_requested = io::read_u8(in, kWhat);
  if (checkpoint_requested > 1) {
    throw IoError("OverloadGovernor::restore: corrupt checkpoint flag");
  }
  const std::uint64_t retries = io::read_u64(in, kWhat);
  const std::size_t num_streams = service_.config().num_streams;
  const std::vector<std::uint64_t> shed = io::read_u64_vector(in, num_streams, kWhat);
  for (const std::uint64_t stream : shed) {
    if (stream >= num_streams) throw IoError("OverloadGovernor::restore: shed stream out of range");
  }
  const std::vector<std::uint64_t> remaining =
      io::read_u64_vector(in, config_.stream_faults.size(), kWhat);
  if (remaining.size() != config_.stream_faults.size()) {
    throw IoError("OverloadGovernor::restore: fault schedule size mismatch");
  }
  for (std::size_t i = 0; i < remaining.size(); ++i) {
    if (remaining[i] > config_.stream_faults[i].times) {
      throw IoError("OverloadGovernor::restore: fault fire count exceeds schedule");
    }
  }
  const std::size_t failure_count =
      io::read_count(in, num_streams, "OverloadGovernor::restore failures");
  std::map<std::size_t, StreamFailure> failures;
  for (std::size_t i = 0; i < failure_count; ++i) {
    StreamFailure failure;
    failure.stream = io::read_u64(in, kWhat);
    if (failure.stream >= num_streams) {
      throw IoError("OverloadGovernor::restore: failed stream out of range");
    }
    const std::uint8_t transient = io::read_u8(in, kWhat);
    if (transient > 1) throw IoError("OverloadGovernor::restore: corrupt failure kind");
    failure.transient = transient == 1;
    failure.position = io::read_u64(in, kWhat);
    failure.attempts = static_cast<std::uint32_t>(io::read_u64(in, kWhat));
    failure.error = io::read_string(in, 4096, kWhat);
    failures.emplace(failure.stream, std::move(failure));
  }

  // All fields validated: commit.
  epoch_ = epoch;
  level_ = static_cast<int>(level);
  next_event_ = static_cast<std::size_t>(next_event);
  checkpoint_requested_ = checkpoint_requested == 1;
  transient_retries_.store(retries, std::memory_order_relaxed);
  shed_.assign(shed.begin(), shed.end());
  for (auto& [stream, state] : fault_states_) {
    for (FaultEntry& entry : state.entries) entry.remaining = remaining[entry.config_index];
  }
  {
    const std::scoped_lock lock(failures_mutex_);
    failures_ = std::move(failures);
  }
}

}  // namespace vbr::service
