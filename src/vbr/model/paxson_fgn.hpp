// Paxson's fast, approximate frequency-domain synthesis of fractional
// Gaussian noise (Paxson 1997, "Fast, Approximate Synthesis of Fractional
// Gaussian Noise for Generating Self-Similar Network Traffic").
//
// Instead of embedding the exact autocovariance in a circulant (Davies-
// Harte), the method samples a *periodogram* directly from the fGn spectral
// density. Paxson's paper draws each ordinate as an exponential with mean
// f(w_k; H) plus a uniform phase; this implementation draws the equivalent
// complex Gaussian coefficient a_k (Z1 + i Z2) / sqrt(2) instead — the
// squared modulus is the same exponential and the phase is the same uniform,
// but it costs two Normal draws in place of a log plus a sin/cos pair — and
// inverse-transforms with irfft at half Davies-Harte's FFT length. The
// result is not sample-exact (the covariance is only met in expectation,
// and adjacent output points share no circulant structure) but it is
// statistically faithful: Whittle recovers H, the sample ACF tracks the fGn
// target, and the marginal is exactly Gaussian (a linear map of normals;
// S_0 = 0 additionally pins the sample mean). bench_generator_pareto
// enforces a >= 2x cold-cache speedup over Davies-Harte at 2^17 frames:
// half the transform length and half the normal draws on the same irfft
// (DESIGN §10).
// Draw order (k ascending, real before imaginary) is part of the
// determinism contract pinned by the zoo tests.
//
// The spectral density uses Paxson's closed-form B-tilde_3 approximation of
// the aliasing sum sum_j |w + 2 pi j|^{-2H-1} (his Eqs. 4-6): three exact
// terms plus a trapezoid tail correction and an empirical bias polish,
// accurate to a few parts in 1e4 across H in (0, 1) — far below estimator
// noise (cross-checked against the exact truncated sum in the zoo tests).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "vbr/common/rng.hpp"
#include "vbr/model/workspace.hpp"

namespace vbr::model {

struct PaxsonOptions {
  double hurst = 0.8;
  double variance = 1.0;
};

/// Generate n points of zero-mean approximate fGn with the given H and
/// variance.
///
/// Padding rule: the synthesis FFT needs a power-of-two length, so a
/// non-power-of-two n is generated at m = next_power_of_two(n) and the
/// first n points are returned. The draw sequence depends only on m, so
/// paxson_fgn(n) is bit-identical to the n-point prefix of paxson_fgn(m)
/// under the same Rng state (pinned by a zoo test).
///
/// Throws vbr::InvalidArgument for H outside (0, 1) or variance <= 0. A thin
/// wrapper over the span form with a fresh workspace.
std::vector<double> paxson_fgn(std::size_t n, const PaxsonOptions& options, Rng& rng);

/// Generate out.size() points into `out`, bit-identical to the allocating
/// form; the spectrum lives in `workspace` and the inverse FFT runs in place
/// there, so with the amplitudes and the FFT unpack table cached a second
/// call of the same shape on the same workspace allocates nothing.
void paxson_fgn(std::span<double> out, const PaxsonOptions& options, Rng& rng,
                Workspace& workspace);

/// Paxson's aliasing correction B~3(lambda; H), lambda in [0, pi]: three
/// exact aliasing terms plus a trapezoid tail correction (Paxson Eq. 5),
/// then the empirical polish of Eq. 6. The synthesis spectrum is
/// 2 sin(pi H) Gamma(2H + 1) (1 - cos lambda) (lambda^(-2H-1) + B~3), with
/// B~3 interpolated from a grid of these values.
double paxson_b3_tilde(double lambda, double hurst);

/// Number of distinct (H, synthesis length) amplitude vectors in the
/// process-wide, thread-safe spectrum cache; caching never changes the output.
std::size_t paxson_spectrum_cache_size();

/// Drop every cached amplitude vector and every cached FFT unpack table
/// (the next generation runs cold and recomputes both).
void paxson_spectrum_cache_clear();

}  // namespace vbr::model
