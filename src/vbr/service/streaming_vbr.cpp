#include "vbr/service/streaming_vbr.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <utility>

#include "vbr/common/error.hpp"
#include "vbr/common/serialize.hpp"
#include "vbr/model/fgn_generator.hpp"
#include "vbr/service/streaming_hosking.hpp"
#include "vbr/service/streaming_onoff.hpp"
#include "vbr/service/streaming_paxson.hpp"

namespace vbr::service {

StreamingVbrSource::StreamingVbrSource(const model::VbrModelParams& params,
                                       model::ModelVariant variant,
                                       model::GeneratorBackend backend,
                                       const StreamingTuning& tuning, Rng& parent)
    : params_(params), variant_(variant), backend_(backend), rng_(parent) {
  VBR_ENSURE(params.hurst > 0.0 && params.hurst < 1.0, "H must be in (0, 1)");
  if (variant_ == model::ModelVariant::kIidGammaPareto) {
    marginal_ = std::make_unique<stats::GammaParetoDistribution>(params.marginal);
    return;
  }
  core_ = make_streaming_core(backend, params.hurst, 1.0, tuning, parent);
  if (variant_ == model::ModelVariant::kFull) map_ = model::shared_marginal_map(params.marginal);
}

std::uint64_t StreamingVbrSource::position() const {
  return core_ ? core_->position() : iid_position_;
}

void StreamingVbrSource::next_block(std::size_t n, std::vector<double>& out) {
  if (variant_ == model::ModelVariant::kIidGammaPareto) {
    out.reserve(out.size() + n);
    for (std::size_t i = 0; i < n; ++i) out.push_back(marginal_->sample(rng_));
    iid_position_ += n;
    return;
  }
  // Let the core append, then transform its tail in place — no scratch
  // buffer, so the wrapper adds nothing to the per-stream footprint.
  const std::size_t base = out.size();
  core_->next_block(n, out);
  apply_head(out, base);
}

void StreamingVbrSource::next_block_lanes(std::span<StreamingVbrSource* const> lanes,
                                          std::size_t n,
                                          std::span<std::vector<double>* const> outs,
                                          std::vector<double>& window) {
  if (lanes.size() == 1 && lanes[0]->lockstep_core() == nullptr) {
    lanes[0]->next_block(n, *outs[0]);
    return;
  }
  std::array<StreamingHosking*, kLockstepLanes> cores{};
  std::array<std::size_t, kLockstepLanes> base{};
  for (std::size_t g = 0; g < lanes.size(); ++g) {
    VBR_DCHECK(lanes[0]->lockstep_compatible(*lanes[g]), "lockstep lanes are incompatible");
    cores[g] = lanes[g]->lockstep_core();
    base[g] = outs[g]->size();
  }
  StreamingHosking::next_block_lanes(std::span(cores.data(), lanes.size()), n, outs, window);
  for (std::size_t g = 0; g < lanes.size(); ++g) lanes[g]->apply_head(*outs[g], base[g]);
}

bool StreamingVbrSource::lockstep_compatible(const StreamingVbrSource& other) const {
  const StreamingHosking* mine = lockstep_core();
  const StreamingHosking* theirs = other.lockstep_core();
  return mine != nullptr && theirs != nullptr && mine->lockstep_compatible(*theirs);
}

void StreamingVbrSource::prefetch(std::size_t hop) const {
  const auto two_lines = [](const void* object) {
    __builtin_prefetch(object);
    __builtin_prefetch(static_cast<const char*>(object) + 64);
  };
  if (hop == 0) {
    two_lines(this);
  } else if (hop == 1) {
    if (core_ != nullptr) two_lines(core_.get());
  } else if (const StreamingHosking* core = lockstep_core()) {
    core->prefetch_ring();
  }
}

StreamingHosking* StreamingVbrSource::lockstep_core() const {
  // make_streaming_core builds a StreamingHosking for the hosking backend.
  return core_ != nullptr && backend_ == model::GeneratorBackend::kHosking
             ? static_cast<StreamingHosking*>(core_.get())
             : nullptr;
}

void StreamingVbrSource::apply_head(std::vector<double>& out, std::size_t base) const {
  if (variant_ == model::ModelVariant::kGaussianFarima) {
    for (std::size_t i = base; i < out.size(); ++i) {
      VBR_DCHECK(std::isfinite(out[i]), "non-finite Gaussian core sample");
      out[i] = std::max(0.0, params_.marginal.mu_gamma +
                                 params_.marginal.sigma_gamma * out[i]);
    }
    return;
  }
  const model::TabulatedMarginalMap& map = map_->map;
  for (std::size_t i = base; i < out.size(); ++i) out[i] = map(out[i]);
}

void StreamingVbrSource::append_state(std::string& out) const {
  io::write_string(out, kind());
  io::write_u8(out, static_cast<std::uint8_t>(variant_));
  io::write_string(out, model::generator_backend_name(backend_));
  io::write_f64(out, params_.marginal.mu_gamma);
  io::write_f64(out, params_.marginal.sigma_gamma);
  io::write_f64(out, params_.marginal.tail_slope);
  io::write_f64(out, params_.hurst);
  if (variant_ == model::ModelVariant::kIidGammaPareto) {
    io::write_u64(out, iid_position_);
    rng_.save(out);
    return;
  }
  core_->append_state(out);
}

void StreamingVbrSource::restore(std::istream& in) {
  io::read_tag(in, kind(), "StreamingVbrSource::restore");
  const std::uint8_t variant = io::read_u8(in, "StreamingVbrSource::restore");
  const std::string backend = io::read_string(in, 64, "StreamingVbrSource::restore");
  const double mu = io::read_f64(in, "StreamingVbrSource::restore");
  const double sigma = io::read_f64(in, "StreamingVbrSource::restore");
  const double tail = io::read_f64(in, "StreamingVbrSource::restore");
  const double hurst = io::read_f64(in, "StreamingVbrSource::restore");
  if (variant != static_cast<std::uint8_t>(variant_) ||
      backend != model::generator_backend_name(backend_) ||
      mu != params_.marginal.mu_gamma || sigma != params_.marginal.sigma_gamma ||
      tail != params_.marginal.tail_slope || hurst != params_.hurst) {
    throw IoError("StreamingVbrSource::restore: configuration mismatch");
  }
  if (variant_ == model::ModelVariant::kIidGammaPareto) {
    const std::uint64_t position = io::read_u64(in, "StreamingVbrSource::restore");
    Rng rng;
    rng.restore(in);
    iid_position_ = position;
    rng_ = rng;
    return;
  }
  core_->restore(in);
}

std::unique_ptr<StreamingSource> make_streaming_core(model::GeneratorBackend backend,
                                                     double hurst, double variance,
                                                     const StreamingTuning& tuning,
                                                     Rng& parent) {
  switch (backend) {
    case model::GeneratorBackend::kHosking:
      return std::make_unique<StreamingHosking>(
          model::HoskingOptions{.hurst = hurst, .variance = variance},
          tuning.hosking_horizon, parent);
    case model::GeneratorBackend::kPaxson:
      return std::make_unique<StreamingPaxson>(
          model::PaxsonOptions{.hurst = hurst, .variance = variance},
          tuning.paxson_window, tuning.paxson_overlap, parent);
    case model::GeneratorBackend::kAggregatedOnOff:
      return std::make_unique<StreamingOnOff>(
          model::OnOffOptions{.hurst = hurst,
                              .mean_active_sessions = tuning.onoff_mean_active_sessions,
                              .min_session_frames = tuning.onoff_min_session_frames,
                              .variance = variance},
          parent);
    case model::GeneratorBackend::kDaviesHarte:
      throw InvalidArgument(
          "davies-harte has no streaming form (whole-trace circulant embedding); "
          "use hosking, paxson, or onoff");
  }
  throw InvalidArgument("unknown generator backend");
}

}  // namespace vbr::service
