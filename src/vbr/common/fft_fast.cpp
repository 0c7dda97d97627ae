#include "vbr/common/fft_fast.hpp"

#include <map>
#include <memory>
#include <mutex>
#include <numbers>
#include <utility>

#include "vbr/common/error.hpp"
#include "vbr/common/fft.hpp"

namespace vbr {
namespace {

using Complex = std::complex<double>;

// Twiddles for one transform size n. `unpack[k]` = exp(+2 pi i k / n) for
// k < n/2 feeds the real-unpacking step; `stages` holds the butterfly
// twiddles exp(+2 pi i j / len) for every stage len = 2, 4, ..., n/2
// concatenated (offset len/2 - 1, j < len/2) so each stage reads its table
// sequentially — the equivalent strided reads into `unpack` walk the whole
// table once per stage and miss cache badly. Only the first quarter circle
// is evaluated with std::polar; the rest comes from cos(pi - x) = -cos(x)
// and table copies, keeping the cold-start build cheap. Immutable once
// built, shared between threads.
struct TwiddlePlan {
  std::vector<Complex> unpack;  // size n/2
  std::vector<Complex> stages;  // size n/2 - 1
};

using Plan = std::shared_ptr<const TwiddlePlan>;

struct PlanCache {
  std::mutex mutex;
  std::map<std::size_t, Plan> entries;
};

PlanCache& plan_cache() {
  static PlanCache cache;
  return cache;
}

Plan compute_plan(std::size_t n) {
  const std::size_t half = n / 2;
  auto plan = std::make_shared<TwiddlePlan>();
  auto& w = plan->unpack;
  w.resize(half);
  const std::size_t quarter = half / 2;
  const std::size_t eighth = quarter / 2;
  for (std::size_t k = 0; k <= eighth; ++k) {
    const double angle =
        2.0 * std::numbers::pi * static_cast<double>(k) / static_cast<double>(n);
    w[k] = std::polar(1.0, angle);
  }
  for (std::size_t k = eighth + 1; k <= quarter; ++k) {
    const Complex& m = w[quarter - k];  // angle = pi/2 - mirror angle
    w[k] = Complex(m.imag(), m.real());
  }
  for (std::size_t k = quarter + 1; k < half; ++k) {
    const Complex& m = w[half - k];  // angle = pi - mirror angle
    w[k] = Complex(-m.real(), m.imag());
  }
  plan->stages.resize(half > 0 ? half - 1 : 0);
  for (std::size_t len = 2; len <= half; len <<= 1) {
    Complex* stage = plan->stages.data() + len / 2 - 1;
    const std::size_t stride = n / len;
    for (std::size_t j = 0; j < len / 2; ++j) stage[j] = w[j * stride];
  }
  return plan;
}

Plan cached_plan(std::size_t n) {
  auto& cache = plan_cache();
  {
    std::lock_guard<std::mutex> lock(cache.mutex);
    const auto it = cache.entries.find(n);
    if (it != cache.entries.end()) return it->second;
  }
  // Compute outside the lock; a racing duplicate builds the identical plan
  // and the first insert wins.
  auto computed = compute_plan(n);
  std::lock_guard<std::mutex> lock(cache.mutex);
  return cache.entries.emplace(n, std::move(computed)).first->second;
}

// Unnormalized inverse complex FFT over a.size() = n/2 points: Stockham
// autosort radix-2 (decimation in frequency). Unlike fft.cpp's in-place
// kernel there is no bit-reversal pass — at 2^16 points that pass alone is
// 64k random-access swaps over a 1 MB array — and every stage streams both
// buffers sequentially, with one twiddle table read per j-block instead of
// the serial w *= wlen accumulation whose dependency chain dominates the
// reference kernel's runtime. Stage with j-block count l reads the length-2l
// stage table, i.e. the tables are consumed from the back of `stages`.
// Two DIF stages (block counts l and l/2) fuse into one pass using
// exp(+2 pi i (j + l/2) / (2l)) = i exp(+2 pi i j / (2l)) and
// exp(+2 pi i j / l) for the second stage; the remaining single stage of an
// odd log2 runs unfused.
// `scratch` holds a.size() points for the ping-pong passes.
void ifft_pow2_tables(std::span<Complex> a, Complex* scratch,
                      const std::vector<Complex>& stages) {
  const std::size_t len_total = a.size();
  if (len_total <= 1) return;
  Complex* x = a.data();
  Complex* y = scratch;
  std::size_t l = len_total / 2;
  std::size_t m = 1;
  for (; l >= 2; l >>= 2, m <<= 2) {
    const Complex* twa = stages.data() + l - 1;      // exp(+2 pi i j / (2l)), j < l
    const Complex* twb = stages.data() + l / 2 - 1;  // exp(+2 pi i j / l), j < l/2
    for (std::size_t j = 0; j < l / 2; ++j) {
      const Complex wa = twa[j];
      const Complex wb = twb[j];
      const Complex* s0 = x + j * m;
      const Complex* s1 = x + (j + l) * m;
      const Complex* s2 = x + (j + l / 2) * m;
      const Complex* s3 = x + (j + 3 * l / 2) * m;
      Complex* dst = y + 4 * j * m;
      for (std::size_t k = 0; k < m; ++k) {
        const Complex u0 = s0[k] + s1[k];
        const Complex u1 = wa * (s0[k] - s1[k]);
        const Complex u2 = s2[k] + s3[k];
        const Complex wu3 = wa * (s2[k] - s3[k]);
        const Complex u3(-wu3.imag(), wu3.real());  // i * wa * (...)
        dst[k] = u0 + u2;
        dst[k + m] = u1 + u3;
        dst[k + 2 * m] = wb * (u0 - u2);
        dst[k + 3 * m] = wb * (u1 - u3);
      }
    }
    std::swap(x, y);
  }
  if (l == 1) {
    // exp(+2 pi i * 0 / 2) = 1: the final stage needs no twiddle.
    for (std::size_t k = 0; k < m; ++k) {
      const Complex c0 = x[k];
      const Complex c1 = x[k + m];
      y[k] = c0 + c1;
      y[k + m] = c0 - c1;
    }
    std::swap(x, y);
  }
  if (x != a.data()) std::copy(x, x + len_total, a.data());
}

}  // namespace

void fast_irfft_pow2(std::span<Complex> spectrum, std::size_t n, std::span<double> out,
                     std::vector<Complex>& scratch) {
  VBR_ENSURE(n >= 2 && is_power_of_two(n), "fast_irfft_pow2 requires a power-of-two n >= 2");
  VBR_ENSURE(spectrum.size() == n / 2 + 1,
             "fast_irfft_pow2 spectrum must hold exactly n/2 + 1 coefficients");
  VBR_ENSURE(out.size() <= n, "fast_irfft_pow2 writes at most n samples");
  const auto plan = cached_plan(n);
  const Complex* const w = plan->unpack.data();
  const std::size_t half = n / 2;

  // Same half-length packing as irfft(), in place: recover Z[k] = E[k] +
  // i O[k] from X[k] and conj(X[L-k]), with the full transform's 1/n
  // normalization folded into the 0.5 unpacking weight (0.5 / L = 1/n per
  // subsequence).
  const double weight = 0.5 / static_cast<double>(half);
  detail::pack_pairs_in_place(spectrum, half, [w, weight](Complex xk, Complex xl, std::size_t k) {
    const Complex xc = std::conj(xl);
    const Complex even = weight * (xk + xc);
    const Complex odd = w[k] * (weight * (xk - xc));
    return Complex(even.real() - odd.imag(), even.imag() + odd.real());
  });
  scratch.resize(half);
  const std::span<Complex> z = spectrum.first(half);
  ifft_pow2_tables(z, scratch.data(), plan->stages);

  for (std::size_t j = 0; 2 * j < out.size(); ++j) {
    out[2 * j] = z[j].real();
    if (2 * j + 1 < out.size()) out[2 * j + 1] = z[j].imag();
  }
}

std::size_t fast_fft_plan_cache_size() {
  auto& cache = plan_cache();
  std::lock_guard<std::mutex> lock(cache.mutex);
  return cache.entries.size();
}

void fast_fft_plan_cache_clear() {
  auto& cache = plan_cache();
  std::lock_guard<std::mutex> lock(cache.mutex);
  cache.entries.clear();
}

}  // namespace vbr
