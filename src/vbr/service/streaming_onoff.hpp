// Streaming M/G/infinity on/off source: the structurally-LRD generator is
// naturally endless — its whole state is the set of active-session end
// times plus the next Poisson arrival clock.
//
// The process law, calibration, and standardization are identical to
// model::onoff_aggregate (same equilibrium start, same lag-1 white-noise
// calibration), but the *draw order* differs: the batch generator draws all
// arrivals for the horizon up front and the calibration noise in one final
// pass, while the stream interleaves arrival/duration draws with per-frame
// noise as the clock advances. The two are therefore equal in distribution
// but not bit-for-bit; service_test pins the streaming version's fidelity
// with the same stats/lrd_fidelity judge the zoo uses.
//
// Expected state: Poisson(mean_active_sessions) live end times — the heap
// is stored as a plain vector (std::push_heap / std::pop_heap) so a
// checkpoint serializes the container verbatim and a restored stream pops
// in exactly the original order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "vbr/common/rng.hpp"
#include "vbr/model/onoff_source.hpp"
#include "vbr/service/streaming_source.hpp"

namespace vbr::service {

class StreamingOnOff final : public StreamingSource {
 public:
  /// Consumes one split() from `parent`; draws the equilibrium initial
  /// sessions immediately (batch draw phases 1-2, then the first arrival
  /// gap). Throws vbr::InvalidArgument for H outside (0.5, 1) or
  /// non-positive session mean/minimum/variance.
  StreamingOnOff(const model::OnOffOptions& options, Rng& parent);

  using StreamingSource::next_block;
  void next_block(std::size_t n, std::vector<double>& out) override;
  std::uint64_t position() const override { return position_; }
  const char* kind() const override { return "onoff-stream"; }
  void append_state(std::string& out) const override;
  void restore(std::istream& in) override;

  std::size_t active_sessions() const { return heap_.size(); }

 private:
  model::OnOffOptions options_;
  // Derived calibration constants (pure functions of options_).
  double alpha_ = 0.0;
  double k_ = 0.0;
  double lambda_ = 0.0;
  double mean_count_ = 0.0;  ///< lambda * mu = mean_active_sessions
  double noise_sd_ = 0.0;
  double scale_ = 0.0;
  Rng rng_;
  std::vector<double> heap_;  ///< min-heap of session end times
  double next_arrival_ = 0.0;
  std::uint64_t position_ = 0;

  double next_sample();
};

}  // namespace vbr::service
