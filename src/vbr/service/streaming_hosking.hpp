// Streaming Hosking: the paper's exact Durbin-Levinson recursion with the
// predictor capped at a configurable horizon m, so one endless fARIMA
// stream costs O(m) memory instead of the batch generator's O(n).
//
// For k < m the draw is arithmetically identical to model::HoskingGenerator
// (same Kahan-compensated sums, same invariance checks, same Rng draw
// order), which is what makes the full-state equivalence test bit-exact.
// From k >= m the predictor freezes at order m: the stream becomes an AR(m)
// process whose first m autocorrelations equal the fARIMA values exactly
// (Yule-Walker) and whose innovation variance carries the documented
// truncation bias ~ v_inf d^2 / m (streaming_source.hpp header note).
//
// The order-1..m coefficient table and innovation variances depend only on
// (H, variance, m), so all streams of one service share a single immutable
// table through a process-wide cache — per-stream state is just the
// m-sample ring, the Rng, and a position counter.
//
// Generation runs through one kernel, next_block_lockstep<G>, which
// advances G streams together one tap at a time: the lanes share the
// coefficient row, and each lane keeps its own Kahan accumulator and ring
// cursor, so G independent dependency chains overlap. Every lane adds its
// taps in exactly the width-1 order, so a stream's samples do not depend on
// which group (if any) it ran in. next_block is the kernel at G = 1.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "vbr/common/rng.hpp"
#include "vbr/model/hosking.hpp"
#include "vbr/service/streaming_source.hpp"

namespace vbr::service {

/// Lanes of the lockstep kernel the traffic service dispatches. On an
/// x86-64 Xeon at the default horizon (64 taps), one core: 1 lane ~165,
/// 4 lanes ~80, 8 lanes ~75 and 16 lanes ~110 ns/sample (16 lanes no
/// longer fit the accumulators in registers).
inline constexpr std::size_t kLockstepLanes = 8;

/// Immutable shared Durbin-Levinson state for one (H, variance, horizon).
struct HoskingCoeffTable {
  /// phi[k-1] holds the order-k predictor coefficients phi_{k,1..k}.
  std::vector<std::vector<double>> phi;
  /// v[k] is the innovation variance after step k, k = 0..horizon.
  std::vector<double> v;
};

class StreamingHosking final : public StreamingSource {
 public:
  /// Consumes one split() from `parent` (the hosking_farima convention).
  /// Throws vbr::InvalidArgument for H outside (0, 1), variance <= 0, or
  /// horizon == 0.
  StreamingHosking(const model::HoskingOptions& options, std::size_t horizon, Rng& parent);

  using StreamingSource::next_block;
  void next_block(std::size_t n, std::vector<double>& out) override;
  std::uint64_t position() const override { return position_; }
  const char* kind() const override { return "hosking-stream"; }
  void append_state(std::string& out) const override;
  void restore(std::istream& in) override;

  /// Advance each of the G `lanes` by n samples, appending lane g's samples
  /// to *outs[g]. The lanes must be pairwise lockstep_compatible. Each lane
  /// draws bit-for-bit what its own next_block(n) would.
  template <std::size_t G>
  static void next_block_lockstep(std::span<StreamingHosking* const, G> lanes, std::size_t n,
                                  std::span<std::vector<double>* const, G> outs);

  /// True when this stream and `other` can be lanes of one lockstep group:
  /// they share a coefficient table, and their predictor orders agree for
  /// every future sample (both past the horizon, or both at one position).
  bool lockstep_compatible(const StreamingHosking& other) const {
    return coeffs_ == other.coeffs_ &&
           (position_ == other.position_ ||
            (position_ >= horizon_ && other.position_ >= horizon_));
  }

  std::size_t horizon() const { return horizon_; }
  /// Innovation variance of the *next* draw (equals the batch generator's
  /// innovation_variance() while position <= horizon).
  double innovation_variance() const;

  /// Process-wide coefficient-table cache introspection (mirrors the
  /// Davies-Harte / Paxson cache helpers; caching never changes output).
  static std::size_t coeff_cache_size();
  static void coeff_cache_clear();

 private:
  model::HoskingOptions options_;
  std::size_t horizon_;
  std::shared_ptr<const HoskingCoeffTable> coeffs_;
  Rng rng_;
  std::vector<double> ring_;  ///< last min(position, horizon) samples
  std::uint64_t position_ = 0;
};

}  // namespace vbr::service
