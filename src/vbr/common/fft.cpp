#include "vbr/common/fft.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <numbers>

#include "vbr/common/error.hpp"

namespace vbr {
namespace {

using Complex = std::complex<double>;

// Two doubles in one register: a complex value (re, im) or a pair of
// lanes. The baseline ISA has such vectors everywhere (SSE2, NEON).
typedef double V2 __attribute__((vector_size(2 * sizeof(double))));

inline V2 load(const double* p) {
  V2 v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

inline void store(double* p, V2 v) { std::memcpy(p, &v, sizeof v); }

// A twiddle w as the butterflies read it: re = (w.re, w.re) and
// im = (-w.im, w.im).
struct Twiddle {
  V2 re;
  V2 im;
};

inline Twiddle splat(double w_re, double w_im) { return {V2{w_re, w_re}, V2{-w_im, w_im}}; }

// h * w, the std::complex product for finite operands, (ac - bd, ad + bc),
// rounded the same way: re = h.re * w.re + h.im * (-w.im) is
// h.re * w.re - h.im * w.im exactly, and im = h.im * w.re + h.re * w.im only
// swaps the addends.
inline V2 times(V2 h, Twiddle w) {
  const V2 h_swapped = {h[1], h[0]};
  return h * w.re + h_swapped * w.im;
}

// Butterfly on lo = a[j], hi = a[j + len/2]: (lo, hi) <- (lo + hi * w, lo - hi * w).
inline void butterfly(double* lo, double* hi, Twiddle w) {
  const V2 v = times(load(hi), w);
  const V2 u = load(lo);
  store(lo, u + v);
  store(hi, u - v);
}

// Stages len and 2 len at once on the four values x_k = p[k q], q = len/2,
// that only mix with each other across the two stages: stage len pairs
// (x0, x1) and (x2, x3) with its twiddle w_j, then stage 2 len pairs
// (x0, x2) with its w_j (`lo`) and (x1, x3) with its w_{j+q} (`hi`). Each
// value takes exactly the two butterflies it takes one stage at a time,
// with one load and one store instead of two each.
inline void butterfly_pair(double* p, std::size_t q, Twiddle w, Twiddle lo, Twiddle hi) {
  double* const p1 = p + 2 * q;
  double* const p2 = p + 4 * q;
  double* const p3 = p + 6 * q;
  const V2 x0 = load(p);
  const V2 x2 = load(p2);
  const V2 v1 = times(load(p1), w);
  const V2 v3 = times(load(p3), w);
  const V2 y0 = x0 + v1;
  const V2 y1 = x0 - v1;
  const V2 v2 = times(x2 + v3, lo);
  const V2 v4 = times(x2 - v3, hi);
  store(p, y0 + v2);
  store(p2, y0 - v2);
  store(p1, y1 + v4);
  store(p3, y1 - v4);
}

// w <- w * wlen, the std::complex product for finite operands.
inline void advance(double& w_re, double& w_im, double wlen_re, double wlen_im) {
  const double re = w_re * wlen_re - w_im * wlen_im;
  w_im = w_re * wlen_im + w_im * wlen_re;
  w_re = re;
}

// Stage `len` uses the twiddles w_0 = 1, w_j = w_{j-1} * wlen: a serial
// product chain whose exact rounding the pinned Davies-Harte traces depend
// on. Every twiddle below, tabulated or not, is a link of that chain.
struct Chain {
  double re = 1.0;
  double im = 0.0;
  double wlen_re = 0.0;
  double wlen_im = 0.0;

  Chain(std::size_t len, int sign) {
    const double angle = static_cast<double>(sign) * 2.0 * std::numbers::pi /
                         static_cast<double>(len);
    wlen_re = std::cos(angle);
    wlen_im = std::sin(angle);
  }
  // The current link, then step to the next.
  Twiddle next() {
    const Twiddle w = splat(re, im);
    advance(re, im, wlen_re, wlen_im);
    return w;
  }
};

// Stages of length <= kFftBlock stay inside aligned blocks of kFftBlock
// values, so they run block by block while the block is in cache. Their
// twiddles come from one process-wide table per sign, the chains of every
// stage len = 2..kFftBlock laid end to end (stage len at offset len/2 - 1),
// filled once at load: kFftBlock - 1 values per sign, 128 KiB in all.
constexpr std::size_t kBlock = detail::kFftBlock;

using StageChains = std::array<Complex, kBlock - 1>;

StageChains stage_chains(int sign) {
  StageChains chains{};
  for (std::size_t len = 2; len <= kBlock; len <<= 1) {
    Chain chain(len, sign);
    for (std::size_t j = 0; j < len / 2; ++j) {
      chains[len / 2 - 1 + j] = Complex(chain.re, chain.im);
      chain.next();
    }
  }
  return chains;
}

const StageChains kForwardChains = stage_chains(-1);
const StageChains kInverseChains = stage_chains(+1);

inline Twiddle splat(Complex w) { return splat(w.real(), w.imag()); }

// Stages 2..block of a[b, b + block), from the stage table: two at a time,
// and a last one alone when their count is odd.
void small_stages(double* a, std::size_t b, std::size_t block, const Complex* chains) {
  std::size_t len = 2;
  for (; 2 * len <= block; len <<= 2) {
    const std::size_t q = len / 2;
    const Complex* const w = chains + (q - 1);
    const Complex* const w2 = chains + (len - 1);
    for (std::size_t i = b; i < b + block; i += 2 * len) {
      for (std::size_t j = 0; j < q; ++j) {
        butterfly_pair(a + 2 * (i + j), q, splat(w[j]), splat(w2[j]), splat(w2[j + q]));
      }
    }
  }
  if (len <= block) {
    const std::size_t half = len / 2;
    const Complex* const w = chains + (half - 1);
    for (std::size_t i = b; i < b + block; i += len) {
      for (std::size_t j = 0; j < half; ++j) {
        butterfly(a + 2 * (i + j), a + 2 * (i + j + half), splat(w[j]));
      }
    }
  }
}

// Twiddles of the larger stages, drawn from their chains a slice at a time
// and read by every block of the stage: 8 KiB per chain on the stack.
constexpr std::size_t kTwiddleSlice = 256;

// Stages len..n of a[0, n), len > kFftBlock, two at a time and a last one
// alone when their count is odd.
void large_stages(double* a, std::size_t n, std::size_t len, int sign) {
  Twiddle table[3][kTwiddleSlice];
  for (; 2 * len <= n; len <<= 2) {
    const std::size_t q = len / 2;
    Chain chain(len, sign);
    Chain lo(2 * len, sign);
    Chain hi = lo;  // stage 2 len's chain from link q on
    for (std::size_t j = 0; j < q; ++j) hi.next();
    for (std::size_t j0 = 0; j0 < q; j0 += kTwiddleSlice) {
      const std::size_t count = std::min(kTwiddleSlice, q - j0);
      for (std::size_t j = 0; j < count; ++j) {
        table[0][j] = chain.next();
        table[1][j] = lo.next();
        table[2][j] = hi.next();
      }
      for (std::size_t i = j0; i < n; i += 2 * len) {
        for (std::size_t j = 0; j < count; ++j) {
          butterfly_pair(a + 2 * (i + j), q, table[0][j], table[1][j], table[2][j]);
        }
      }
    }
  }
  if (len <= n) {
    const std::size_t half = len / 2;
    Chain chain(len, sign);
    for (std::size_t j0 = 0; j0 < half; j0 += kTwiddleSlice) {
      const std::size_t count = std::min(kTwiddleSlice, half - j0);
      for (std::size_t j = 0; j < count; ++j) table[0][j] = chain.next();
      for (std::size_t i = j0; i < n; i += len) {
        for (std::size_t j = 0; j < count; ++j) {
          butterfly(a + 2 * (i + j), a + 2 * (i + j + half), table[0][j]);
        }
      }
    }
  }
}

// The low `bits` bits of x in reverse order.
std::size_t reverse_bits(std::size_t x, unsigned bits) {
  std::size_t r = 0;
  for (unsigned t = 0; t < bits; ++t, x >>= 1) r = (r << 1) | (x & 1);
  return r;
}

// Bit-reversal permutation of a power-of-two length. An index splits into
// [hi | mid | lo] with kTileBits-bit hi and lo, and reverses to
// [rev lo | rev mid | rev hi], so the values of one mid form a tile of
// kTile rows of kTile adjacent values that trades places with the tile of
// rev mid, row for column. Swapping tile by tile touches each cache line
// of both tiles once, where the index-by-index order touches a far line per
// value.
constexpr unsigned kTileBits = 3;

void bit_reverse(std::span<Complex> data) {
  const std::size_t n = data.size();
  const auto bits = static_cast<unsigned>(std::countr_zero(n));
  if (bits < 2 * kTileBits + 1) {
    for (std::size_t i = 1; i < n; ++i) {
      const std::size_t j = reverse_bits(i, bits);
      if (i < j) std::swap(data[i], data[j]);
    }
    return;
  }
  constexpr std::size_t kTile = std::size_t{1} << kTileBits;
  std::array<std::size_t, kTile> rev{};
  for (std::size_t t = 0; t < kTile; ++t) rev[t] = reverse_bits(t, kTileBits);
  const unsigned mid_bits = bits - 2 * kTileBits;
  const unsigned hi_shift = bits - kTileBits;
  for (std::size_t mid = 0; mid < (std::size_t{1} << mid_bits); ++mid) {
    const std::size_t mid_rev = reverse_bits(mid, mid_bits);
    if (mid_rev < mid) continue;  // swapped with tile mid_rev already
    for (std::size_t hi = 0; hi < kTile; ++hi) {
      const std::size_t row = (hi << hi_shift) | (mid << kTileBits);
      const std::size_t column = (mid_rev << kTileBits) | rev[hi];
      for (std::size_t lo = 0; lo < kTile; ++lo) {
        const std::size_t i = row | lo;
        const std::size_t j = (rev[lo] << hi_shift) | column;
        // A tile that is its own reverse swaps each pair once.
        if (mid_rev != mid || i < j) std::swap(data[i], data[j]);
      }
    }
  }
}

// Iterative radix-2 Cooley-Tukey, n must be a power of two.
// `sign` is -1 for the forward transform, +1 for the (unnormalized) inverse.
// Every stage's butterflies are independent of each other, so running the
// small stages block by block, the larger ones slice by slice, and stages
// in pairs changes the order of the butterflies and never their operands.
void fft_radix2(std::span<Complex> data, int sign) {
  const std::size_t n = data.size();
  bit_reverse(data);
  // std::complex<double> is layout-compatible with double[2].
  double* const a = reinterpret_cast<double*>(data.data());
  const Complex* const chains = (sign < 0 ? kForwardChains : kInverseChains).data();
  const std::size_t block = std::min(n, kBlock);
  for (std::size_t b = 0; b < n; b += block) small_stages(a, b, block, chains);
  large_stages(a, n, 2 * block, sign);
}

// Bluestein's chirp-z transform for arbitrary n.
void fft_bluestein(std::span<Complex> a, int sign) {
  const std::size_t n = a.size();
  const std::size_t m = next_power_of_two(2 * n + 1);

  // Chirp: w[j] = exp(sign * i * pi * j^2 / n). Reduce j^2 mod 2n to keep the
  // angle argument small and accurate for large n.
  std::vector<Complex> chirp(n);
  for (std::size_t j = 0; j < n; ++j) {
    const std::uint64_t j2 = (static_cast<std::uint64_t>(j) * j) %
                             (2 * static_cast<std::uint64_t>(n));
    const double angle = static_cast<double>(sign) * std::numbers::pi *
                         static_cast<double>(j2) / static_cast<double>(n);
    chirp[j] = Complex(std::cos(angle), std::sin(angle));
  }

  std::vector<Complex> x(m, Complex(0.0, 0.0));
  std::vector<Complex> y(m, Complex(0.0, 0.0));
  for (std::size_t j = 0; j < n; ++j) x[j] = a[j] * chirp[j];
  y[0] = std::conj(chirp[0]);
  for (std::size_t j = 1; j < n; ++j) {
    y[j] = std::conj(chirp[j]);
    y[m - j] = std::conj(chirp[j]);
  }

  fft_radix2(x, -1);
  fft_radix2(y, -1);
  for (std::size_t j = 0; j < m; ++j) x[j] *= y[j];
  fft_radix2(x, +1);
  const double scale = 1.0 / static_cast<double>(m);
  for (std::size_t j = 0; j < n; ++j) a[j] = x[j] * scale * chirp[j];
}

void transform(std::span<Complex> a, int sign) {
  const std::size_t n = a.size();
  VBR_ENSURE(n >= 1, "fft requires a non-empty sequence");
  if (n == 1) return;
  if (is_power_of_two(n)) {
    fft_radix2(a, sign);
  } else {
    fft_bluestein(a, sign);
  }
}

// exp(+2 pi i k / n) for k = 0..n/2: the real-FFT unpack twiddles, which
// irfft() reads as is and rfft() conjugated. Each entry is the value the
// per-bin loops used to compute, Complex(cos(angle), sin(angle)) with the
// same angle expression; rfft()'s angle was the exact negation, and cos and
// sin are even and odd bit for bit, so conjugation reproduces it.
using UnpackTable = std::shared_ptr<const std::vector<Complex>>;

struct UnpackCache {
  std::mutex mutex;
  std::map<std::size_t, UnpackTable> entries;
};

UnpackCache& unpack_cache() {
  static UnpackCache cache;
  return cache;
}

UnpackTable unpack_table(std::size_t n) {
  auto& cache = unpack_cache();
  {
    std::lock_guard<std::mutex> lock(cache.mutex);
    const auto it = cache.entries.find(n);
    if (it != cache.entries.end()) return it->second;
  }
  // Fill outside the lock; a racing duplicate is identical and the first
  // insert wins.
  auto table = std::make_shared<std::vector<Complex>>(n / 2 + 1);
  for (std::size_t k = 0; k <= n / 2; ++k) {
    const double angle = 2.0 * std::numbers::pi * static_cast<double>(k) /
                         static_cast<double>(n);
    (*table)[k] = Complex(std::cos(angle), std::sin(angle));
  }
  std::lock_guard<std::mutex> lock(cache.mutex);
  return cache.entries.emplace(n, std::move(table)).first->second;
}

// Rewrite x[0..L) in place as x[k] <- f(x[k], x[L - k], k), reading both
// members of each pair (k, L - k) before writing either; x[L] is read for
// k = 0 and never written. The half-length real-FFT (un)packing steps are
// all of this shape.
template <typename F>
void pack_pairs_in_place(std::span<Complex> x, std::size_t L, F f) {
  x[0] = f(x[0], x[L], std::size_t{0});
  for (std::size_t k = 1; 2 * k <= L; ++k) {
    const Complex a = x[k];
    const Complex b = x[L - k];
    x[k] = f(a, b, k);
    if (L - k != k) x[L - k] = f(b, a, L - k);
  }
}

}  // namespace

std::size_t unpack_table_cache_size() {
  auto& cache = unpack_cache();
  std::lock_guard<std::mutex> lock(cache.mutex);
  return cache.entries.size();
}

void unpack_table_cache_clear() {
  auto& cache = unpack_cache();
  std::lock_guard<std::mutex> lock(cache.mutex);
  cache.entries.clear();
}

bool is_power_of_two(std::size_t n) { return n >= 1 && (n & (n - 1)) == 0; }

std::size_t next_power_of_two(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

void fft(std::vector<Complex>& data) { transform(data, -1); }

void ifft(std::vector<Complex>& data) {
  transform(data, +1);
  const double scale = 1.0 / static_cast<double>(data.size());
  for (auto& v : data) v *= scale;
}

std::vector<Complex> rfft(const std::vector<double>& data) {
  const std::size_t n = data.size();
  VBR_ENSURE(n >= 1, "rfft requires a non-empty sequence");
  if (n == 1) return {Complex(data[0], 0.0)};
  const std::size_t half = n / 2 + 1;
  if (n % 2 != 0) {
    // Odd lengths cannot be packed pairwise; do the full complex transform
    // and keep the non-redundant prefix.
    std::vector<Complex> full(data.begin(), data.end());
    fft(full);
    full.resize(half);
    return full;
  }

  // Pack adjacent samples into one complex sequence of half the length:
  // z[j] = x[2j] + i x[2j+1]. With E/O the length-L DFTs of the even/odd
  // subsequences, Z[k] = E[k] + i O[k] and (x real) conj(Z[L-k]) =
  // E[k] - i O[k], so one length-L FFT recovers both, and
  // X[k] = E[k] + e^{-2 pi i k / n} O[k]. Z is L-periodic (Z[L] = Z[0]);
  // it is transformed and unpacked inside the output buffer.
  const std::size_t L = n / 2;
  std::vector<Complex> out(half);
  for (std::size_t j = 0; j < L; ++j) out[j] = Complex(data[2 * j], data[2 * j + 1]);
  transform(std::span<Complex>(out).first(L), -1);

  const auto table = unpack_table(n);
  const Complex* const w = table->data();
  const auto unpack = [w](Complex zk, Complex zl, std::size_t k) {
    const Complex zc = std::conj(zl);
    const Complex even = 0.5 * (zk + zc);
    const Complex odd = Complex(0.0, -0.5) * (zk - zc);  // (Z[k] - conj(Z[L-k])) / 2i
    return even + std::conj(w[k]) * odd;
  };
  const Complex z0 = out[0];
  out[L] = z0;
  pack_pairs_in_place(out, L, unpack);
  out[L] = unpack(z0, z0, L);
  return out;
}

std::vector<double> irfft(const std::vector<Complex>& spectrum, std::size_t n) {
  std::vector<Complex> packed(spectrum);
  std::vector<double> out(n);
  irfft(packed, n, out);
  return out;
}

void irfft(std::span<Complex> spectrum, std::size_t n, std::span<double> out, double scale) {
  VBR_ENSURE(n >= 1, "irfft requires n >= 1");
  VBR_ENSURE(spectrum.size() == n / 2 + 1,
             "irfft spectrum must hold exactly floor(n/2) + 1 coefficients");
  VBR_ENSURE(out.size() <= n, "irfft writes at most n samples");
  if (out.empty()) return;
  if (n == 1) {
    out[0] = spectrum[0].real() * scale;
    return;
  }
  if (n % 2 != 0) {
    // Rebuild the conjugate-symmetric full spectrum and invert directly.
    std::vector<Complex> full(n);
    for (std::size_t k = 0; k < spectrum.size(); ++k) full[k] = spectrum[k];
    for (std::size_t k = 1; k < spectrum.size(); ++k) full[n - k] = std::conj(spectrum[k]);
    ifft(full);
    for (std::size_t j = 0; j < out.size(); ++j) out[j] = full[j].real() * scale;
    return;
  }

  // Invert the half-length packing of rfft(): from X[k] = E[k] + W^k O[k]
  // and conj(X[L-k]) = E[k] - W^k O[k] (W = e^{-2 pi i / n}), recover
  // Z[k] = E[k] + i O[k] in place of X[k]; one length-L inverse FFT then
  // yields the interleaved samples z[j] = x[2j] + i x[2j+1]. The 1/L
  // normalization of ifft() is exactly the 1/n of the full inverse applied
  // subsequence-wise.
  const std::size_t L = n / 2;
  const auto table = unpack_table(n);
  const Complex* const w = table->data();
  pack_pairs_in_place(spectrum, L, [w](Complex xk, Complex xl, std::size_t k) {
    const Complex xc = std::conj(xl);
    const Complex even = 0.5 * (xk + xc);
    const Complex odd = w[k] * (0.5 * (xk - xc));  // W^-k (W^k O[k])
    return even + Complex(0.0, 1.0) * odd;
  });
  const std::span<Complex> z = spectrum.first(L);
  transform(z, +1);
  const double inv_l = 1.0 / static_cast<double>(L);
  for (std::size_t j = 0; 2 * j < out.size(); ++j) {
    Complex v = z[j];
    v *= inv_l;  // ifft()'s normalization, rounded as it rounds
    out[2 * j] = v.real() * scale;
    if (2 * j + 1 < out.size()) out[2 * j + 1] = v.imag() * scale;
  }
}

}  // namespace vbr
