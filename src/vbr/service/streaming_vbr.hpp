// Streaming form of the paper's complete VBR source: a streaming LRD core
// pushed through the model-variant head (Gamma/Pareto marginal map,
// Gaussian affine clip, or i.i.d. marginal sampling), sample by sample.
//
// The head is stateless per sample, so the stream inherits the core's
// block-size invariance and checkpoint exactness unchanged. The tabulated
// marginal map — the only heavy head object — depends solely on the
// marginal parameters, so every stream holds the one immutable table of
// model::shared_marginal_map, the process-wide cache batch generation
// also maps through; per-stream head state is nothing (kFull /
// kGaussianFarima) or one Rng (kIidGammaPareto).
//
// Rng consumption mirrors VbrVideoSourceModel::generate exactly: the iid
// variant draws straight from the handed per-stream Rng, the core variants
// hand it to the core (which takes one split(), the batch hosking_farima
// convention) — so an iid stream and a full-horizon hosking stream are
// bit-identical to their batch counterparts (pinned by service_test).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "vbr/common/rng.hpp"
#include "vbr/model/marginal_transform.hpp"
#include "vbr/service/streaming_source.hpp"
#include "vbr/stats/gamma_pareto.hpp"

namespace vbr::service {

class StreamingHosking;

class StreamingVbrSource final : public StreamingSource {
 public:
  /// The paper's model variants over a streaming core (kFull pushes the
  /// core through the shared Gamma/Pareto marginal map; kIidGammaPareto
  /// needs no core at all). Consumes `parent` exactly as the batch
  /// VbrVideoSourceModel::generate consumes its Rng, so full-horizon hosking
  /// streams and iid streams are bit-identical to their batch counterparts.
  /// Throws vbr::InvalidArgument for invalid model parameters or a backend
  /// with no streaming form (davies-harte).
  StreamingVbrSource(const model::VbrModelParams& params, model::ModelVariant variant,
                     model::GeneratorBackend backend, const StreamingTuning& tuning,
                     Rng& parent);

  using StreamingSource::next_block;
  void next_block(std::size_t n, std::vector<double>& out) override;

  /// Advance 1..lockstep_lanes() streams together: their Hosking cores run
  /// as lanes of StreamingHosking::next_block_lanes, then each lane's
  /// samples go through its own marginal head. Lanes must be pairwise
  /// lockstep_compatible; each appends exactly what its next_block(n) would.
  /// A single lane may be any stream. `window` is the kernel's scratch.
  static void next_block_lanes(std::span<StreamingVbrSource* const> lanes, std::size_t n,
                               std::span<std::vector<double>* const> outs,
                               std::vector<double>& window);

  /// True when both streams have Hosking cores that can share a lockstep
  /// group (StreamingHosking::lockstep_compatible); never for other backends
  /// or the i.i.d. variant.
  bool lockstep_compatible(const StreamingVbrSource& other) const;

  /// Pointer hops prefetch() takes to reach what a lockstep call reads.
  static constexpr std::size_t kPrefetchHops = 3;
  /// Prefetch hop 0 (this object), 1 (its core, through the core pointer
  /// hop 0 fetched) or 2 (a Hosking core's ring, through the ring pointer
  /// hop 1 fetched). Each hop should follow the previous one by enough work
  /// for its lines to arrive.
  void prefetch(std::size_t hop) const;

  std::uint64_t position() const override;
  const char* kind() const override { return "vbr-stream"; }
  void append_state(std::string& out) const override;
  void restore(std::istream& in) override;

 private:
  /// The Hosking core, or null for other backends and the i.i.d. variant.
  StreamingHosking* lockstep_core() const;
  /// Map core samples out[base..] through the variant's marginal head.
  void apply_head(std::vector<double>& out, std::size_t base) const;

  model::VbrModelParams params_;
  model::ModelVariant variant_;
  model::GeneratorBackend backend_;
  std::shared_ptr<const model::SharedMarginalMap> map_;  ///< kFull only
  std::unique_ptr<StreamingSource> core_;        ///< null for kIidGammaPareto
  std::unique_ptr<stats::GammaParetoDistribution> marginal_;  ///< kIidGammaPareto only
  Rng rng_;                                      ///< kIidGammaPareto only
  std::uint64_t iid_position_ = 0;
};

}  // namespace vbr::service
