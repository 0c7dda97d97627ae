// The generator zoo: one interface over every Gaussian(-ish) LRD core the
// model can ride on, selectable by name.
//
// The paper's Section 4 model needs a zero-mean, unit-variance(-by-default)
// long-range-dependent core to push through the marginal transform; it does
// not need any particular *algorithm*. This file makes that substitutable:
//
//   name            algorithm                        covariance    cost/frame
//   "davies-harte"  exact circulant embedding        fARIMA(0,d,0) O(log n), 2 FFTs
//   "hosking"       exact Durbin-Levinson recursion  fARIMA(0,d,0) O(n)
//   "paxson"        approximate spectral synthesis   fGn           O(log n), 1 half FFT
//   "onoff"         Pareto-session M/G/inf count     fGn (calib.)  O(arrival rate)
//
// Exactness contract: exact() generators realize the advertised covariance
// sample-exactly; the others are *statistically* faithful (Hurst, marginal,
// ACF within the tolerances documented in DESIGN.md section 10 and enforced
// by generator_zoo_test / bench_generator_pareto). Every generator draws
// only from the Rng it is handed, so engine-level determinism (thread-count
// invariance, bit-identical retries) holds for all of them.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "vbr/common/rng.hpp"
#include "vbr/model/vbr_source.hpp"

namespace vbr::model {

/// Abstract Gaussian(-ish) LRD core generator with a fixed H.
class FgnGenerator {
 public:
  virtual ~FgnGenerator() = default;

  /// Generate n zero-mean points with the configured variance. Consumes
  /// only `rng`; deterministic given the Rng state.
  virtual std::vector<double> generate(std::size_t n, Rng& rng) const = 0;

  /// Registry name ("davies-harte", "hosking", "paxson", "onoff").
  virtual const char* name() const = 0;

  /// True when realizations carry the advertised covariance sample-exactly;
  /// false for the statistically-faithful approximations.
  virtual bool exact() const = 0;

  /// Covariance family the realizations target: true for fARIMA(0, d, 0)
  /// (the paper's Eq. 6 process), false for fGn. Fidelity judging must pair
  /// the matching spectral model and target ACF — a full-spectrum Whittle
  /// fit under the wrong family misreads H by up to ~0.08 even on an exact
  /// generator (stats/lrd_fidelity.hpp).
  virtual bool farima_covariance() const = 0;

  virtual double hurst() const = 0;
};

/// Construct a generator by backend enum. Throws vbr::InvalidArgument for H
/// outside (0, 1) (and, for kAggregatedOnOff, H outside (0.5, 1)).
/// `variance` scales the output; 1.0 is what VbrVideoSourceModel feeds the
/// marginal transform.
std::unique_ptr<FgnGenerator> make_fgn_generator(GeneratorBackend backend, double hurst,
                                                 double variance = 1.0);

/// Workspace form of make_fgn_generator(backend, hurst)->generate(n, rng)
/// with n = out.size(): the same bits at unit variance, written into `out`.
/// Davies-Harte and Paxson run in `workspace` and, once it has grown to the
/// shape, allocate nothing; the other backends allocate as their
/// generate() does and copy.
void generate_fgn(GeneratorBackend backend, double hurst, std::span<double> out, Rng& rng,
                  Workspace& workspace);

/// Construct by registry name. Throws vbr::InvalidArgument for an unknown
/// name or invalid H.
std::unique_ptr<FgnGenerator> make_fgn_generator(std::string_view name, double hurst,
                                                 double variance = 1.0);

/// Map a registry name to its backend enum; throws vbr::InvalidArgument for
/// unknown names.
GeneratorBackend generator_backend_from_name(std::string_view name);

/// Canonical registry name of a backend.
const char* generator_backend_name(GeneratorBackend backend);

/// Every registered generator name, in registry order.
std::vector<std::string> fgn_generator_names();

}  // namespace vbr::model
