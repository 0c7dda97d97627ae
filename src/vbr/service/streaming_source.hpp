// Unbounded-horizon streaming sources: the paper's generators, made endless.
//
// The batch generators in model/ produce a fixed-length realization and
// stop; a production traffic service (ROADMAP item 3) instead needs each
// source to emit samples *forever* in O(block + state) memory, where the
// per-stream state is small enough that millions of concurrent streams fit
// in RAM. A StreamingSource is exactly that: next_block(n) appends the next
// n samples of one endless realization, and the sample sequence depends
// only on the construction parameters and the Rng stream — never on how
// the caller slices it into blocks (block-size invariance, pinned by
// tests/service_test).
//
// Three block-incremental backends (factory below):
//
//   "hosking"  truncated Durbin-Levinson recursion. Warmup (k < horizon m)
//              is arithmetically identical to model::HoskingGenerator, so
//              at full state (m >= n) the stream is bit-for-bit the batch
//              realization; past the horizon the predictor freezes at
//              order m (an AR(m) tail). State: m-sample ring + Rng.
//   "paxson"   blockwise spectral synthesis: fixed power-of-two windows
//              stitched over an equal-power crossfade (cos/sin weights,
//              a^2 + b^2 = 1, so the blend of two independent unit-variance
//              Gaussians keeps unit variance). State: one window + one
//              composed segment.
//   "onoff"    the M/G/infinity session superposition, which is naturally
//              streaming: a heap of active-session end times plus the next
//              arrival clock. State: O(mean_active_sessions) expected.
//
// Determinism contract (the engine's): every backend consumes only the Rng
// stream it derives at construction (one split() from the caller's
// per-stream Rng, mirroring the batch hosking_farima convention), so the
// service's outputs are bit-identical for any thread count, and save() +
// restore() + continued blocks reproduce the uninterrupted stream exactly
// (0 ulp), including mid-normal-pair Rng states (Rng::save).
//
// Truncation-bias bound (hosking horizon m): fARIMA(0,d,0) has partial
// autocorrelation phi_kk = d / (k - d), so freezing at order m inflates
// the innovation variance by v_m - v_inf = v_inf (prod_{k>m} (1-phi_kk^2)^-1
// - 1) ~ v_inf d^2 / m, and the realized ACF matches the model *exactly*
// through lag m (Yule-Walker property of the order-m predictor) with only
// the hyperbolic tail beyond lag m flattened toward the AR(m) decay. The
// default m = 64 keeps the variance bias under 0.4% for every H < 0.95;
// DESIGN.md section 12 derives the bound.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "vbr/common/rng.hpp"
#include "vbr/common/serialize.hpp"
#include "vbr/model/vbr_source.hpp"

namespace vbr::service {

/// One endless sample stream in bounded memory.
class StreamingSource {
 public:
  virtual ~StreamingSource() = default;

  /// Append the next `n` samples of the stream to `out` (appending, so a
  /// caller can compose many streams into one buffer without copies).
  /// n == 0 is a no-op.
  virtual void next_block(std::size_t n, std::vector<double>& out) = 0;

  /// Convenience form returning a fresh vector.
  std::vector<double> next_block(std::size_t n) {
    std::vector<double> out;
    out.reserve(n);
    next_block(n, out);
    return out;
  }

  /// Samples emitted so far.
  virtual std::uint64_t position() const = 0;

  /// Stable identifier ("hosking-stream", ...) for errors and checkpoints.
  virtual const char* kind() const = 0;

  /// Append the complete stream state (kind tag + configuration + every
  /// state word) to `out` as one fixed-layout record. restore() on a source
  /// constructed with the same configuration reproduces the stream
  /// bit-for-bit: the restored source emits exactly the samples the
  /// original would have emitted next.
  virtual void append_state(std::string& out) const = 0;

  /// Write the record to `out` in one call.
  void save(std::ostream& out) const {
    std::string record;
    append_state(record);
    io::write_bytes(out, record.data(), record.size());
  }

  /// Inverse of save(): reads one append_state() record. Throws
  /// vbr::IoError on a kind/configuration mismatch, truncation, or forged
  /// lengths; on failure this source is left unchanged.
  virtual void restore(std::istream& in) = 0;
};

/// Backend-specific streaming knobs; the defaults suit a mass fleet
/// (small per-stream state) and every knob trades memory for tail fidelity.
struct StreamingTuning {
  /// Hosking predictor horizon m (ring size, samples). Larger horizons
  /// track the hyperbolic ACF tail further at m doubles per stream;
  /// m >= realization length reproduces batch Hosking bit-for-bit.
  std::size_t hosking_horizon = 64;
  /// Paxson synthesis window (power of two, samples per FFT).
  std::size_t paxson_window = 4096;
  /// Paxson stitch overlap V (1 <= V <= window / 2).
  std::size_t paxson_overlap = 512;
  /// On/off mean concurrent sessions (marginal Gaussianity knob).
  double onoff_mean_active_sessions = 256.0;
  /// On/off minimum session duration in frames.
  double onoff_min_session_frames = 1.0;
};

/// Construct the streaming Gaussian(-ish) LRD core for one backend.
/// Consumes one split() from `parent` (the caller's per-stream Rng).
/// Throws vbr::InvalidArgument for invalid H/variance/tuning, and for
/// kDaviesHarte, whose circulant embedding is inherently whole-trace — use
/// hosking (exact), paxson (fast), or onoff (structural) for streaming.
std::unique_ptr<StreamingSource> make_streaming_core(model::GeneratorBackend backend,
                                                     double hurst, double variance,
                                                     const StreamingTuning& tuning,
                                                     Rng& parent);

}  // namespace vbr::service
