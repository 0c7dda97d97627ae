#include "vbr/model/paxson_fgn.hpp"

#include <cmath>
#include <complex>
#include <map>
#include <memory>
#include <mutex>
#include <numbers>
#include <utility>

#include "vbr/common/error.hpp"
#include "vbr/common/fft.hpp"

namespace vbr::model {
namespace {

// Unit-variance spectral amplitudes a_k, k = 0..len/2 (a_0 = 0: the DC
// coefficient is pinned to zero so every realization has exactly zero mean
// over the synthesis window). Shared immutably between threads once built.
using Amplitudes = std::shared_ptr<const std::vector<double>>;

// Cache key: (H bit pattern via exact double compare, synthesis length).
// The amplitudes do not depend on options.variance — that is a plain output
// scale — so it is deliberately not part of the key.
using SpectrumKey = std::pair<double, std::size_t>;

struct SpectrumCache {
  std::mutex mutex;
  std::map<SpectrumKey, Amplitudes> entries;
};

SpectrumCache& spectrum_cache() {
  static SpectrumCache cache;
  return cache;
}

}  // namespace

// Eleven pow() calls per frequency. B~3 is smooth and slowly varying on
// [0, pi] (only the lambda^d term of the density is singular), so
// compute_amplitudes() evaluates it on a coarse grid and interpolates
// linearly; see kBtildeGrid.
double paxson_b3_tilde(double lambda, double hurst) {
  VBR_ENSURE(lambda >= 0.0 && lambda <= std::numbers::pi, "frequency must be in [0, pi]");
  VBR_ENSURE(hurst > 0.0 && hurst < 1.0, "H must be in (0, 1)");
  const double d = -2.0 * hurst - 1.0;
  const double dprime = -2.0 * hurst;
  const double two_pi = 2.0 * std::numbers::pi;
  double b3 = 0.0;
  for (int k = 1; k <= 3; ++k) {
    b3 += std::pow(two_pi * k + lambda, d) + std::pow(two_pi * k - lambda, d);
  }
  b3 += (std::pow(two_pi * 3.0 + lambda, dprime) + std::pow(two_pi * 3.0 - lambda, dprime) +
         std::pow(two_pi * 4.0 + lambda, dprime) + std::pow(two_pi * 4.0 - lambda, dprime)) /
        (8.0 * hurst * std::numbers::pi);
  return (1.0002 - 0.000134 * lambda) * (b3 - std::pow(2.0, -7.65 * hurst - 7.4));
}

namespace {

// Grid resolution for the B~3 interpolation. With 2048 intervals over
// [0, pi] the linear-interpolation error is bounded by (pi/2048)^2 / 8 times
// max |B~3''| (< 0.1 for H in (0, 1)), i.e. < 3e-8 absolute against a B~3
// of order 1e-2..1e-1 — orders of magnitude below the statistical
// tolerances the generator is judged by (header: fidelity contract).
constexpr std::size_t kBtildeGrid = 2048;

// a_k = sqrt(alpha f_k) with alpha chosen so the synthesized series has
// unit variance in expectation: Var(x_j) = (1/len^2) sum_k E|S_k|^2 over
// the full conjugate-symmetric spectrum, so
//   alpha = len^2 / (2 sum_{k=1}^{len/2-1} f_k + f_{len/2}).
// Deterministic in its inputs, so concurrent duplicate computations of the
// same key yield identical vectors.
//
// This is the cold-start cost of the generator, so the per-frequency loop is
// kept lean: B~3 comes from the interpolation grid, 1 - cos(lambda_k) from
// the Chebyshev three-term recurrence (error O(k) ulps, ~1e-11 at k = 2^20),
// and only the singular lambda^d factor pays a real pow().
Amplitudes compute_amplitudes(double hurst, std::size_t len) {
  const std::size_t half = len / 2;
  auto amps = std::make_shared<std::vector<double>>(half + 1, 0.0);

  std::vector<double> grid(kBtildeGrid + 1);
  for (std::size_t g = 0; g <= kBtildeGrid; ++g) {
    grid[g] = paxson_b3_tilde(
        std::numbers::pi * static_cast<double>(g) / static_cast<double>(kBtildeGrid), hurst);
  }

  const double d = -2.0 * hurst - 1.0;
  const double a0 = 2.0 * std::sin(std::numbers::pi * hurst) * std::tgamma(2.0 * hurst + 1.0);
  const double step = std::numbers::pi / static_cast<double>(half);  // lambda_k = k * step
  const double grid_scale = static_cast<double>(kBtildeGrid) / static_cast<double>(half);

  // lambda_k^d pays a pow() only at odd k: lambda_{2m}^d = 2^d lambda_m^d
  // (exact up to one rounding), halving the dominant per-frequency cost.
  std::vector<double> pow_d(half + 1);
  const double two_d = std::pow(2.0, d);
  for (std::size_t k = 1; k <= half; ++k) {
    pow_d[k] = (k % 2 == 0) ? two_d * pow_d[k / 2]
                            : std::pow(static_cast<double>(k) * step, d);
  }

  const double cos_step = std::cos(step);
  double cos_prev = 1.0;        // cos(0 * step)
  double cos_curr = cos_step;   // cos(1 * step)
  double total = 0.0;
  for (std::size_t k = 1; k <= half; ++k) {
    const double pos = static_cast<double>(k) * grid_scale;  // in [0, kBtildeGrid]
    const std::size_t cell = std::min(static_cast<std::size_t>(pos), kBtildeGrid - 1);
    const double frac = pos - static_cast<double>(cell);
    const double b3t = grid[cell] + frac * (grid[cell + 1] - grid[cell]);
    const double f = a0 * (1.0 - cos_curr) * (pow_d[k] + b3t);
    VBR_DCHECK(f > 0.0 && std::isfinite(f), "spectral density left (0, inf)");
    (*amps)[k] = f;
    total += (k < half) ? 2.0 * f : f;
    const double cos_next = 2.0 * cos_step * cos_curr - cos_prev;
    cos_prev = cos_curr;
    cos_curr = cos_next;
  }
  const double alpha = static_cast<double>(len) * static_cast<double>(len) / total;
  for (std::size_t k = 1; k <= half; ++k) {
    (*amps)[k] = std::sqrt(alpha * (*amps)[k]);
  }
  return amps;
}

Amplitudes cached_amplitudes(double hurst, std::size_t len) {
  const SpectrumKey key(hurst, len);
  auto& cache = spectrum_cache();
  {
    std::lock_guard<std::mutex> lock(cache.mutex);
    const auto it = cache.entries.find(key);
    if (it != cache.entries.end()) return it->second;
  }
  // Compute outside the lock so a cold cache does not serialize the
  // N-source fan-out; a racing duplicate computes the identical vector and
  // the first insert wins.
  auto computed = compute_amplitudes(hurst, len);
  std::lock_guard<std::mutex> lock(cache.mutex);
  return cache.entries.emplace(key, std::move(computed)).first->second;
}

}  // namespace

std::size_t paxson_spectrum_cache_size() {
  auto& cache = spectrum_cache();
  std::lock_guard<std::mutex> lock(cache.mutex);
  return cache.entries.size();
}

void paxson_spectrum_cache_clear() {
  {
    auto& cache = spectrum_cache();
    std::lock_guard<std::mutex> lock(cache.mutex);
    cache.entries.clear();
  }
  unpack_table_cache_clear();
}

std::vector<double> paxson_fgn(std::size_t n, const PaxsonOptions& options, Rng& rng) {
  // NOLINTNEXTLINE(vbr-contract-coverage): a thin wrapper; the span form validates n (n == 0 throws there).
  std::vector<double> out(n);
  Workspace workspace;
  paxson_fgn(out, options, rng, workspace);
  return out;
}

void paxson_fgn(std::span<double> out, const PaxsonOptions& options, Rng& rng,
                Workspace& workspace) {
  const std::size_t n = out.size();
  VBR_ENSURE(n >= 1, "cannot generate an empty realization");
  VBR_ENSURE(options.hurst > 0.0 && options.hurst < 1.0, "H must be in (0, 1)");
  VBR_ENSURE(options.variance > 0.0, "variance must be positive");
  const double sigma = std::sqrt(options.variance);
  if (n == 1) {
    out[0] = rng.normal(0.0, sigma);
    return;
  }

  // Padding rule (see header): synthesize at the next power of two and
  // keep the leading n points.
  const std::size_t len = next_power_of_two(n);
  const std::size_t half = len / 2;

  const auto amps = cached_amplitudes(options.hurst, len);

  // Sample the spectrum as complex Gaussian coefficients: S_k =
  // sigma a_k (Z1 + i Z2) / sqrt(2) with Z1, Z2 standard Normal. This is
  // exactly Paxson's periodogram sampling — |S_k|^2 = sigma^2 a_k^2 Exp(1)
  // and the phase is uniform — but costs two Normal draws instead of a
  // log + sincos per coefficient. The Nyquist coefficient is real Gaussian
  // with the full variance; S_0 = 0 pins the realization mean. Draw order
  // is part of the determinism contract: k ascending, real part before
  // imaginary part.
  const double inv_sqrt2 = 1.0 / std::numbers::sqrt2;
  auto& spectrum = workspace.spectrum;
  spectrum.resize(half + 1);
  spectrum[0] = 0.0;
  rng.fill_normal(
      std::span<double>(reinterpret_cast<double*>(spectrum.data() + 1), 2 * (half - 1)));
  for (std::size_t k = 1; k < half; ++k) {
    const double scale = sigma * (*amps)[k] * inv_sqrt2;
    spectrum[k] = {scale * spectrum[k].real(), scale * spectrum[k].imag()};
  }
  spectrum[half] = sigma * (*amps)[half] * rng.normal();

  // irfft() supplies the conjugate-mirrored upper half implicitly and
  // normalizes by 1/len — the amplitude normalization above already
  // accounts for it. It transforms in place in the workspace's spectrum.
  irfft(spectrum, len, out);
  for (const double v : out) VBR_DCHECK(std::isfinite(v), "non-finite Paxson sample");
}

}  // namespace vbr::model
