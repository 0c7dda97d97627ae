// Fast Fourier transform for arbitrary lengths.
//
// Power-of-two lengths use an iterative radix-2 Cooley-Tukey kernel, run
// cache block by cache block and two stages at a time with the arithmetic
// of the stage-by-stage kernel; all other lengths go through Bluestein's
// chirp-z algorithm (which reduces to three power-of-two FFTs). This supports the periodogram of the 171,000-frame
// trace, FFT-based autocorrelation, and the Davies-Harte fGn generator.
//
// The real transforms run at half length and read their unpack twiddles
// from one table per even length, cached process-wide; the span form of
// irfft() works in the caller's spectrum buffer, so a generator that keeps
// that buffer (model/workspace.hpp) transforms with no allocation at all.
#pragma once

#include <complex>
#include <cstddef>
#include <span>
#include <vector>

namespace vbr {

/// In-place forward DFT: X[k] = sum_j x[j] exp(-2*pi*i*j*k / n).
/// Works for any n >= 1.
void fft(std::vector<std::complex<double>>& data);

/// In-place inverse DFT, normalized by 1/n: exact inverse of fft().
void ifft(std::vector<std::complex<double>>& data);

/// Forward DFT of a real sequence, returning only the n/2 + 1 non-redundant
/// coefficients X[0..n/2] (the rest follow from X[n-k] = conj(X[k])). Even
/// lengths use the half-length complex trick — one complex FFT of length
/// n/2 — so this costs about half of fft() on the same input. Works for any
/// n >= 1 (odd lengths fall back to a full complex transform).
std::vector<std::complex<double>> rfft(const std::vector<double>& data);

/// Exact inverse of rfft(): reconstruct the length-n real sequence from its
/// floor(n/2) + 1 leading DFT coefficients. The spectrum is assumed
/// conjugate-symmetric (X[0] — and X[n/2] for even n — should be real;
/// imaginary parts there are ignored). Normalized by 1/n like ifft().
/// A thin wrapper over the span form below.
std::vector<double> irfft(const std::vector<std::complex<double>>& spectrum, std::size_t n);

/// irfft() in the caller's memory: writes the first out.size() <= n samples,
/// each multiplied by `scale` after the 1/n normalization (two roundings, as
/// irfft() followed by a separate scaling pass). For even n the half-length
/// sequence is packed into `spectrum` itself and transformed in place, so
/// the spectrum is clobbered and nothing is allocated once the unpack table
/// for n is cached; odd n allocates a full-length scratch.
void irfft(std::span<std::complex<double>> spectrum, std::size_t n, std::span<double> out,
           double scale = 1.0);

/// Number of cached unpack-twiddle tables. rfft() and irfft() of an even
/// length n share one table of exp(+2 pi i k / n), k <= n/2, built on first
/// use with the angle expression the per-bin loops always evaluated, so the
/// cache changes no bit. Process-wide and thread-safe.
std::size_t unpack_table_cache_size();

/// Drop every cached unpack table (a cold Davies-Harte generation clears it
/// through davies_harte_cache_clear()).
void unpack_table_cache_clear();

/// Smallest power of two >= n (n >= 1).
std::size_t next_power_of_two(std::size_t n);

/// True iff n is a power of two (n >= 1).
bool is_power_of_two(std::size_t n);

namespace detail {

/// Radix-2 stages up to this length (in complex values, 64 KiB) run block
/// by block on data that stays in cache, reading twiddles tabulated at load.
inline constexpr std::size_t kFftBlock = 4096;

}  // namespace detail

}  // namespace vbr
