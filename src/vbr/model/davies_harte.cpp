#include "vbr/model/davies_harte.hpp"

#include <algorithm>
#include <cmath>
#include <complex>
#include <map>
#include <memory>
#include <mutex>
#include <tuple>

#include "vbr/common/error.hpp"
#include "vbr/common/fft.hpp"
#include "vbr/model/fgn_acf.hpp"

namespace vbr::model {
namespace {

// Square roots of the circulant eigenvalues for one embedding, indexed
// k = 0..m (the upper half follows by symmetry). Shared immutably between
// threads once computed.
using SqrtEigenvalues = std::shared_ptr<const std::vector<double>>;

// Cache key: (H bit pattern via exact double compare, embedding length 2m,
// covariance kind). The eigenvalues do not depend on options.variance —
// that is a plain output scale — so it is deliberately not part of the key.
using EigenKey = std::tuple<double, std::size_t, int>;

struct EigenCache {
  std::mutex mutex;
  std::map<EigenKey, SqrtEigenvalues> entries;
};

EigenCache& eigen_cache() {
  static EigenCache cache;
  return cache;
}

// Compute sqrt(lambda_k), k = 0..m, for the 2m-circulant embedding of the
// first m+1 autocovariances. Deterministic in its inputs, so concurrent
// duplicate computations of the same key yield identical vectors.
SqrtEigenvalues compute_sqrt_eigenvalues(double hurst, std::size_t m,
                                         CovarianceKind covariance) {
  const std::size_t two_m = 2 * m;
  const auto rho =
      (covariance == CovarianceKind::kFgn) ? fgn_acf(hurst, m) : farima_acf(hurst, m);

  // First row of the circulant: r_0..r_m, then mirrored r_{m-1}..r_1. The
  // row is real and even, so its DFT is real and even — rfft() gives the
  // m+1 distinct eigenvalues at half the cost of the full complex FFT.
  std::vector<double> row(two_m);
  for (std::size_t j = 0; j <= m; ++j) row[j] = rho[j];
  for (std::size_t j = 1; j < m; ++j) row[two_m - j] = rho[j];
  const auto spectrum = rfft(row);

  // The exact eigenvalues are non-negative for fGn/fARIMA; roundoff in the
  // length-2m FFT perturbs them by O(eps log2(2m) lambda_max) ~ 1e-14 *
  // lambda_max. A relative threshold of 1e-10 * lambda_max leaves four
  // orders of margin over that while still rejecting genuinely indefinite
  // embeddings — and since lambda_max <= 2m (|rho| <= 1), it is strictly
  // tighter than the old absolute 1e-8 * 2m rule, which at 2m = 2^18
  // would have silently zeroed eigenvalues as large as 2.6e-3.
  double lambda_max = 0.0;
  for (std::size_t k = 0; k <= m; ++k) {
    VBR_DCHECK(std::isfinite(spectrum[k].real()), "non-finite circulant eigenvalue");
    lambda_max = std::max(lambda_max, std::abs(spectrum[k].real()));
  }
  VBR_CHECK_FINITE(lambda_max, "largest circulant eigenvalue");
  const double tolerance = 1e-10 * std::max(1.0, lambda_max);

  auto sqrt_lambda = std::make_shared<std::vector<double>>(m + 1);
  for (std::size_t k = 0; k <= m; ++k) {
    const double val = spectrum[k].real();
    if (val < -tolerance) {
      throw NumericalError("circulant embedding is not non-negative definite");
    }
    (*sqrt_lambda)[k] = std::sqrt(std::max(0.0, val));
  }
  return sqrt_lambda;
}

SqrtEigenvalues cached_sqrt_eigenvalues(double hurst, std::size_t m,
                                        CovarianceKind covariance) {
  const EigenKey key(hurst, 2 * m, static_cast<int>(covariance));
  auto& cache = eigen_cache();
  {
    std::lock_guard<std::mutex> lock(cache.mutex);
    const auto it = cache.entries.find(key);
    if (it != cache.entries.end()) return it->second;
  }
  // Compute outside the lock so a cold cache does not serialize the
  // N-source fan-out; a racing duplicate computes the identical vector and
  // the first insert wins.
  auto computed = compute_sqrt_eigenvalues(hurst, m, covariance);
  std::lock_guard<std::mutex> lock(cache.mutex);
  return cache.entries.emplace(key, std::move(computed)).first->second;
}

}  // namespace

std::size_t davies_harte_cache_size() {
  auto& cache = eigen_cache();
  std::lock_guard<std::mutex> lock(cache.mutex);
  return cache.entries.size();
}

void davies_harte_cache_clear() {
  {
    auto& cache = eigen_cache();
    std::lock_guard<std::mutex> lock(cache.mutex);
    cache.entries.clear();
  }
  unpack_table_cache_clear();
}

std::vector<double> davies_harte(std::size_t n, const DaviesHarteOptions& options, Rng& rng) {
  // NOLINTNEXTLINE(vbr-contract-coverage): a thin wrapper; the span form validates n (n == 0 throws there).
  std::vector<double> out(n);
  Workspace workspace;
  davies_harte(out, options, rng, workspace);
  return out;
}

void davies_harte(std::span<double> out, const DaviesHarteOptions& options, Rng& rng,
                  Workspace& workspace) {
  const std::size_t n = out.size();
  VBR_ENSURE(n >= 1, "cannot generate an empty realization");
  VBR_ENSURE(options.hurst > 0.0 && options.hurst < 1.0, "H must be in (0, 1)");
  VBR_ENSURE(options.variance > 0.0, "variance must be positive");
  if (n == 1) {
    out[0] = rng.normal(0.0, std::sqrt(options.variance));
    return;
  }

  // Embedding length 2m with m a power of two >= n keeps the FFT fast.
  const std::size_t m = next_power_of_two(n);
  const std::size_t two_m = 2 * m;

  const auto sqrt_lambda = cached_sqrt_eigenvalues(options.hurst, m, options.covariance);

  // Color complex white noise. The full spectrum has W_0, W_m real and
  // conjugate symmetry W_{2m-k} = conj(W_k), so only the non-redundant half
  // W_0..W_m is ever materialized; irfft() supplies the mirrored half
  // implicitly. The Rng draw order is part of the pinned output: W_0, W_m,
  // then one pair per k = 1..m-1 whose first draw is Im W_k and whose
  // second is Re W_k. The pairs are drawn in place, as the doubles of
  // W_1..W_{m-1}, and colored there.
  auto& w = workspace.spectrum;
  w.resize(m + 1);
  w[0] = rng.normal() * (*sqrt_lambda)[0];
  w[m] = rng.normal() * (*sqrt_lambda)[m];
  rng.fill_normal(std::span<double>(reinterpret_cast<double*>(w.data() + 1), 2 * (m - 1)));
  const double inv_sqrt2 = 1.0 / std::sqrt(2.0);
  for (std::size_t k = 1; k < m; ++k) {
    const double first = w[k].real();
    const double second = w[k].imag();
    w[k] = std::complex<double>(second * inv_sqrt2 * (*sqrt_lambda)[k],
                                first * inv_sqrt2 * (*sqrt_lambda)[k]);
  }

  // X_j = (1/sqrt(2m)) sum_k sqrt(lambda_k) W_k e^{+2 pi i jk / 2m}:
  // irfft() includes a 1/(2m) factor, so it scales by sqrt(2m) after it.
  const double scale = std::sqrt(static_cast<double>(two_m) * options.variance);
  irfft(w, two_m, out, scale);
  for (const double v : out) VBR_DCHECK(std::isfinite(v), "non-finite Davies-Harte sample");
}

}  // namespace vbr::model
