// Table-driven power-of-two FFT kernels for throughput-critical paths.
//
// fft.cpp's kernel builds each stage's twiddles by serial complex
// multiplication (w_j = w_{j-1} * wlen, once per stage), which rounds
// differently from precomputed std::polar() tables, so the two kernels
// differ in the last ulps. The outputs of fft.cpp are pinned by golden
// determinism hashes (Davies-Harte -> engine trace hashes), so they cannot
// change; this header is the separate opt-in fast path for code with no
// bit-compatibility burden (Paxson synthesis). With no bit-reversal pass,
// radix-4 Stockham passes and cached butterfly twiddles, its span form runs
// 1.1-1.3x as fast as irfft()'s (DESIGN §10).
//
// Same transform and normalization contract as irfft(); results agree with
// irfft() to ~1e-12 relative, not bit-for-bit.
#pragma once

#include <complex>
#include <cstddef>
#include <span>
#include <vector>

namespace vbr {

/// Inverse real FFT for power-of-two n >= 2, in the caller's memory.
/// `spectrum` holds the non-redundant half, exactly n/2 + 1 coefficients,
/// and the conjugate mirror is implied; includes the 1/n normalization,
/// matching irfft(). Packs the half-length sequence into `spectrum` in
/// place (clobbering it), runs the passes against `scratch` (resized to n/2
/// points) and writes the first out.size() <= n samples. Twiddle tables are
/// cached per n, process-wide and thread-safe, so this allocates nothing
/// once the plan is cached and `scratch` has grown to n/2.
void fast_irfft_pow2(std::span<std::complex<double>> spectrum, std::size_t n,
                     std::span<double> out, std::vector<std::complex<double>>& scratch);

/// Number of cached twiddle plans (tests/diagnostics).
std::size_t fast_fft_plan_cache_size();

/// Drop every cached twiddle plan (tests; e.g. forcing a cold-cache timing).
void fast_fft_plan_cache_clear();

}  // namespace vbr
