// Davies-Harte circulant-embedding generator for stationary Gaussian
// processes with a prescribed autocovariance — here fGn or fARIMA(0,d,0).
//
// Hosking's recursion (Section 4.1) is exact but O(n^2) — the paper reports
// ~10 hours for 171,000 points on a 1990s workstation. Circulant embedding
// is also *exact* (for covariances whose circulant eigenvalues are
// non-negative, which holds for fGn) yet costs O(n log n): embed the n-term
// covariance in a 2m-periodic sequence, diagonalize with one FFT, color
// complex white noise with the eigenvalue square roots, and transform back.
//
// Per source, only the noise draws and one half-length inverse real FFT
// remain once the eigenvalues and the FFT's unpack table are cached; the
// span form runs that FFT in place in a caller-owned Workspace, so a worker
// that reuses its workspace faults in no fresh pages per source.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "vbr/common/rng.hpp"
#include "vbr/model/workspace.hpp"

namespace vbr::model {

enum class CovarianceKind {
  kFgn,     ///< fractional Gaussian noise (exactly self-similar)
  kFarima,  ///< fractional ARIMA(0, d, 0), the paper's Eq. (6)
};

struct DaviesHarteOptions {
  double hurst = 0.8;
  double variance = 1.0;
  CovarianceKind covariance = CovarianceKind::kFgn;
};

/// Generate n points of the zero-mean Gaussian process. Throws
/// NumericalError if the circulant embedding has a materially negative
/// eigenvalue (does not happen for fGn/fARIMA with 0 < H < 1). A thin
/// wrapper over the span form with a fresh workspace.
std::vector<double> davies_harte(std::size_t n, const DaviesHarteOptions& options, Rng& rng);

/// Generate out.size() points into `out`, bit-identical to the allocating
/// form. The half-spectrum lives in `workspace` and the inverse FFT runs in
/// place there, writing only the out.size() samples kept; with the
/// eigenvalues and the FFT unpack table cached, a second call of the same
/// shape on the same workspace allocates nothing.
void davies_harte(std::span<double> out, const DaviesHarteOptions& options, Rng& rng,
                  Workspace& workspace);

/// Number of distinct (H, embedding length, covariance) eigenvalue vectors
/// currently held by the process-wide, thread-safe cache. Caching never
/// changes the output: the eigenvalues are a function of the key.
std::size_t davies_harte_cache_size();

/// Drop every cached eigenvalue vector and every cached FFT unpack table
/// (frees memory; the next generation runs cold and recomputes both).
void davies_harte_cache_clear();

}  // namespace vbr::model
