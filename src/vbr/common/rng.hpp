// Seeded pseudo-random number generation for reproducible experiments.
//
// All stochastic components of the library (traffic generators, the synthetic
// movie, simulation lag draws) take an explicit Rng so that every experiment
// in bench/ is exactly reproducible from its seed. The core generator is
// xoshiro256**, seeded through splitmix64; independent streams for
// multi-source simulations are derived with split().
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>

namespace vbr {

/// xoshiro256** pseudo-random generator with distribution helpers.
///
/// Satisfies the C++ UniformRandomBitGenerator requirements, so it can also
/// be used with <random> distributions, but the built-in helpers below are
/// deterministic across standard-library implementations.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Construct from a 64-bit seed (expanded via splitmix64).
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~static_cast<result_type>(0); }

  /// Next raw 64-bit value.
  result_type operator()();

  /// Derive an independent child stream. Deterministic: the parent state
  /// advances, and the child is seeded from the drawn value.
  Rng split();

  /// Raw xoshiro256** state words, for checkpoint serialization. Only valid
  /// for streams with no cached normal pair (e.g. a fresh split()); taking
  /// the state of a stream mid-normal-pair throws vbr::InvalidArgument so a
  /// checkpoint can never silently drop half a draw.
  std::array<std::uint64_t, 4> state() const;

  /// Reconstruct a stream from state() words (never through the seed
  /// expansion). from_state(r.state()) produces the same draws as r.
  static Rng from_state(const std::array<std::uint64_t, 4>& state);

  /// Append the *complete* stream state — the four xoshiro words plus any
  /// cached Normal deviate — to a record buffer, so a stream can be
  /// checkpointed at an arbitrary instant, including mid-normal-pair where
  /// state() would throw. The streaming-source checkpoints
  /// (src/vbr/service/) need exactly this: restore() + continued draws
  /// reproduce the original stream bit-for-bit.
  void save(std::string& out) const;

  /// Inverse of save(). Throws vbr::IoError on truncation or a corrupt
  /// cached-normal flag; on failure this stream is left unchanged.
  void restore(std::istream& in);

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n) for n > 0.
  std::uint64_t uniform_index(std::uint64_t n);

  /// Standard Normal deviate (polar Marsaglia method, cached pair).
  double normal();

  /// Fill `out` with exactly the values successive normal() calls would
  /// return, consuming the same draws and leaving the same state (a cached
  /// half-pair included). Cheaper per value than normal(): the polar
  /// method's rejection loop runs branch-free over L1-sized chunks of
  /// `out`, and the log/sqrt pass follows on the accepted pairs.
  void fill_normal(std::span<double> out);

  /// Normal deviate with the given mean and standard deviation.
  double normal(double mean, double stddev);

  /// Exponential deviate with the given rate lambda > 0.
  double exponential(double lambda);

  /// Pareto deviate with minimum k > 0 and shape a > 0.
  double pareto(double k, double a);

  /// Gamma deviate with shape s > 0 and scale theta > 0
  /// (Marsaglia-Tsang method, with Johnk boost for s < 1).
  double gamma(double shape, double scale);

 private:
  std::array<std::uint64_t, 4> state_{};
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace vbr
