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
// Generation runs through one kernel that advances 1..G streams together
// as lanes. It copies each lane's last m samples into a window laid out
// [time][lane], so tap j of every lane is one contiguous row; runs the
// m-tap Kahan dots of all lanes with GCC/Clang vector extensions; appends
// each new sample as the next row; and writes only the new samples back
// into each lane's ring. The kernel is compiled for AVX2 and for the
// baseline ISA, and AVX2 is picked once per process where the host runs
// it (common/isa.hpp). Every lane performs exactly the width-1 products and Kahan steps in
// width-1 order, so a stream's samples depend neither on its group nor on
// the ISA. next_block is the kernel at one lane, where the ring itself
// serves as the window.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "vbr/common/isa.hpp"
#include "vbr/common/rng.hpp"
#include "vbr/model/hosking.hpp"
#include "vbr/service/streaming_source.hpp"

namespace vbr::service {

/// Capacity of a lockstep group: the most lanes any ISA's kernel takes, for
/// sizing arrays. How many lanes a group actually holds is lockstep_lanes().
inline constexpr std::size_t kLockstepLanes = 16;

/// Lanes G of `isa`'s kernel: 16 for AVX2 (four 4-double vectors per
/// accumulator word), 8 for the baseline ISA, where 16 lanes no longer fit
/// the accumulators in registers.
std::size_t lockstep_lanes(KernelIsa isa = active_kernel_isa());

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

  /// Advance 1..lockstep_lanes() `lanes` by n samples each, appending lane
  /// g's samples to *outs[g]. The lanes must be pairwise
  /// lockstep_compatible. Each lane draws bit-for-bit what its own
  /// next_block(n) would. `window` is the kernel's scratch, (m + n) x G
  /// doubles, which a lone lane leaves untouched; reuse one across calls.
  /// Every allocation precedes the first draw and only a failed contract
  /// check can throw after it, so on a Release build a call that throws has
  /// advanced no lane. `isa` picks the kernel's instance (tests pin every
  /// ISA the host runs); throws vbr::InvalidArgument if the host lacks it or
  /// the lanes exceed lockstep_lanes(isa).
  static void next_block_lanes(std::span<StreamingHosking* const> lanes, std::size_t n,
                               std::span<std::vector<double>* const> outs,
                               std::vector<double>& window,
                               KernelIsa isa = active_kernel_isa());

  /// Prefetch the ring ahead of a kernel call.
  void prefetch_ring() const;

  /// True when this stream and `other` can be lanes of one lockstep group:
  /// they share a coefficient table, and their predictor orders agree for
  /// every future sample (both past the horizon, or both at one position).
  bool lockstep_compatible(const StreamingHosking& other) const {
    return coeffs_ == other.coeffs_ &&
           (position_ == other.position_ ||
            (position_ >= horizon_ && other.position_ >= horizon_));
  }

  std::size_t horizon() const { return horizon_; }

  /// Process-wide coefficient-table cache introspection (mirrors the
  /// Davies-Harte / Paxson cache helpers; caching never changes output).
  static std::size_t coeff_cache_size();
  static void coeff_cache_clear();

 private:
  struct Kernel;  ///< the kernel's per-ISA and one-lane instances

  model::HoskingOptions options_;
  std::size_t horizon_;
  std::shared_ptr<const HoskingCoeffTable> coeffs_;
  Rng rng_;
  std::vector<double> ring_;  ///< last min(position, horizon) samples
  std::uint64_t position_ = 0;
};

}  // namespace vbr::service
