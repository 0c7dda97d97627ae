// Unit tests for the FFT: agreement with a naive DFT, round trips,
// linearity, Parseval, and known transforms — over power-of-two and
// Bluestein (arbitrary-length) paths — plus bit-for-bit agreement with the
// std::complex serial-twiddle kernels the pinned traces were recorded with.
#include "vbr/common/fft.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdint>
#include <cstring>
#include <numbers>
#include <vector>

#include "vbr/common/error.hpp"
#include "vbr/common/rng.hpp"

namespace vbr {
namespace {

using Complex = std::complex<double>;

/// Forward DFT of a real sequence; returns all n complex coefficients.
std::vector<Complex> fft_real(const std::vector<double>& data) {
  std::vector<Complex> out(data.begin(), data.end());
  fft(out);
  return out;
}

std::vector<Complex> naive_dft(const std::vector<Complex>& x) {
  const std::size_t n = x.size();
  std::vector<Complex> out(n);
  for (std::size_t k = 0; k < n; ++k) {
    Complex acc(0.0, 0.0);
    for (std::size_t j = 0; j < n; ++j) {
      const double angle = -2.0 * std::numbers::pi * static_cast<double>(j * k) /
                           static_cast<double>(n);
      acc += x[j] * Complex(std::cos(angle), std::sin(angle));
    }
    out[k] = acc;
  }
  return out;
}

std::vector<Complex> random_signal(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Complex> x(n);
  for (auto& v : x) v = Complex(rng.normal(), rng.normal());
  return x;
}

TEST(FftTest, PowerOfTwoHelpers) {
  EXPECT_TRUE(is_power_of_two(1));
  EXPECT_TRUE(is_power_of_two(2));
  EXPECT_TRUE(is_power_of_two(1024));
  EXPECT_FALSE(is_power_of_two(0));
  EXPECT_FALSE(is_power_of_two(3));
  EXPECT_FALSE(is_power_of_two(1000));
  EXPECT_EQ(next_power_of_two(1), 1u);
  EXPECT_EQ(next_power_of_two(2), 2u);
  EXPECT_EQ(next_power_of_two(3), 4u);
  EXPECT_EQ(next_power_of_two(1000), 1024u);
}

TEST(FftTest, SingleElementIsIdentity) {
  std::vector<Complex> x{Complex(3.5, -1.25)};
  fft(x);
  EXPECT_NEAR(x[0].real(), 3.5, 1e-15);
  EXPECT_NEAR(x[0].imag(), -1.25, 1e-15);
}

TEST(FftTest, ImpulseHasFlatSpectrum) {
  std::vector<Complex> x(16, Complex(0.0, 0.0));
  x[0] = 1.0;
  fft(x);
  for (const auto& v : x) {
    EXPECT_NEAR(v.real(), 1.0, 1e-12);
    EXPECT_NEAR(v.imag(), 0.0, 1e-12);
  }
}

TEST(FftTest, PureToneConcentratesInOneBin) {
  const std::size_t n = 64;
  const std::size_t bin = 5;
  std::vector<Complex> x(n);
  for (std::size_t j = 0; j < n; ++j) {
    const double angle =
        2.0 * std::numbers::pi * static_cast<double>(bin * j) / static_cast<double>(n);
    x[j] = Complex(std::cos(angle), std::sin(angle));
  }
  fft(x);
  for (std::size_t k = 0; k < n; ++k) {
    if (k == bin) {
      EXPECT_NEAR(x[k].real(), static_cast<double>(n), 1e-9);
    } else {
      EXPECT_NEAR(std::abs(x[k]), 0.0, 1e-9);
    }
  }
}

class FftDftComparison : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftDftComparison, MatchesNaiveDft) {
  const std::size_t n = GetParam();
  auto x = random_signal(n, 100 + n);
  const auto expected = naive_dft(x);
  fft(x);
  for (std::size_t k = 0; k < n; ++k) {
    EXPECT_NEAR(x[k].real(), expected[k].real(), 1e-8 * static_cast<double>(n)) << "n=" << n;
    EXPECT_NEAR(x[k].imag(), expected[k].imag(), 1e-8 * static_cast<double>(n)) << "n=" << n;
  }
}

// Mix of power-of-two, prime, and composite lengths exercises both kernels.
INSTANTIATE_TEST_SUITE_P(Lengths, FftDftComparison,
                         ::testing::Values(2, 3, 4, 5, 7, 8, 12, 16, 17, 31, 32, 100, 127,
                                           128, 171, 255));

class FftRoundTrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftRoundTrip, InverseRecoversSignal) {
  const std::size_t n = GetParam();
  const auto original = random_signal(n, 500 + n);
  auto x = original;
  fft(x);
  ifft(x);
  for (std::size_t j = 0; j < n; ++j) {
    EXPECT_NEAR(x[j].real(), original[j].real(), 1e-9);
    EXPECT_NEAR(x[j].imag(), original[j].imag(), 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Lengths, FftRoundTrip,
                         ::testing::Values(1, 2, 3, 8, 37, 64, 1000, 1024, 4096, 17100));

TEST(FftTest, LinearityHolds) {
  const std::size_t n = 48;
  const auto a = random_signal(n, 1);
  const auto b = random_signal(n, 2);
  std::vector<Complex> sum(n);
  for (std::size_t j = 0; j < n; ++j) sum[j] = 2.0 * a[j] + 3.0 * b[j];
  auto fa = a;
  auto fb = b;
  auto fsum = sum;
  fft(fa);
  fft(fb);
  fft(fsum);
  for (std::size_t k = 0; k < n; ++k) {
    const Complex expect = 2.0 * fa[k] + 3.0 * fb[k];
    EXPECT_NEAR(fsum[k].real(), expect.real(), 1e-9);
    EXPECT_NEAR(fsum[k].imag(), expect.imag(), 1e-9);
  }
}

TEST(FftTest, ParsevalEnergyConservation) {
  for (std::size_t n : {64u, 100u}) {
    const auto x = random_signal(n, 900 + n);
    double time_energy = 0.0;
    for (const auto& v : x) time_energy += std::norm(v);
    auto fx = x;
    fft(fx);
    double freq_energy = 0.0;
    for (const auto& v : fx) freq_energy += std::norm(v);
    EXPECT_NEAR(freq_energy / static_cast<double>(n), time_energy, 1e-8 * time_energy);
  }
}

std::vector<double> random_real_signal(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> x(n);
  for (auto& v : x) v = rng.normal();
  return x;
}

// Golden-value check: rfft must agree with the full complex fft() on the
// non-redundant half, across both the radix-2 and Bluestein kernels and
// both parities (even lengths take the half-length packed path, odd
// lengths the complex fallback).
class RfftGolden : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RfftGolden, MatchesComplexFft) {
  const std::size_t n = GetParam();
  const auto x = random_real_signal(n, 7000 + n);
  std::vector<Complex> full(x.begin(), x.end());
  fft(full);
  const auto half = rfft(x);
  ASSERT_EQ(half.size(), n / 2 + 1);
  for (std::size_t k = 0; k < half.size(); ++k) {
    EXPECT_NEAR(half[k].real(), full[k].real(), 1e-12 * static_cast<double>(n))
        << "n=" << n << " k=" << k;
    EXPECT_NEAR(half[k].imag(), full[k].imag(), 1e-12 * static_cast<double>(n))
        << "n=" << n << " k=" << k;
  }
}

TEST_P(RfftGolden, IrfftRoundTripsToInput) {
  const std::size_t n = GetParam();
  const auto x = random_real_signal(n, 8000 + n);
  const auto back = irfft(rfft(x), n);
  ASSERT_EQ(back.size(), n);
  for (std::size_t j = 0; j < n; ++j) {
    EXPECT_NEAR(back[j], x[j], 1e-12 * static_cast<double>(n)) << "n=" << n << " j=" << j;
  }
}

TEST_P(RfftGolden, IrfftMatchesFullComplexInverse) {
  // Feed irfft a conjugate-symmetric spectrum and compare against ifft()
  // on the fully mirrored spectrum — same 1/n normalization.
  const std::size_t n = GetParam();
  const auto half = rfft(random_real_signal(n, 9000 + n));
  std::vector<Complex> mirrored(n);
  for (std::size_t k = 0; k < half.size(); ++k) mirrored[k] = half[k];
  for (std::size_t k = 1; k < (n + 1) / 2; ++k) mirrored[n - k] = std::conj(half[k]);
  ifft(mirrored);
  const auto real_path = irfft(half, n);
  for (std::size_t j = 0; j < n; ++j) {
    EXPECT_NEAR(real_path[j], mirrored[j].real(), 1e-12 * static_cast<double>(n))
        << "n=" << n << " j=" << j;
  }
}

// n = 1, even/odd powers of two, odd primes, and composite Bluestein
// lengths, as the acceptance criteria require.
INSTANTIATE_TEST_SUITE_P(Lengths, RfftGolden,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 30, 31, 64, 100,
                                           127, 128, 171, 255, 256, 1000, 1024));

// The std::complex kernels the golden, service and sweep pins were recorded
// with: each radix-2 block regenerates its twiddles by `w *= wlen`, and every
// product is a std::complex product. Kept verbatim as the bit-level oracle.
namespace oracle {

void fft_radix2(std::vector<Complex>& a, int sign) {
  const std::size_t n = a.size();
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(a[i], a[j]);
  }
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double angle = static_cast<double>(sign) * 2.0 * std::numbers::pi /
                         static_cast<double>(len);
    const Complex wlen(std::cos(angle), std::sin(angle));
    for (std::size_t i = 0; i < n; i += len) {
      Complex w(1.0, 0.0);
      for (std::size_t j = 0; j < len / 2; ++j) {
        const Complex u = a[i + j];
        const Complex v = a[i + j + len / 2] * w;
        a[i + j] = u + v;
        a[i + j + len / 2] = u - v;
        w *= wlen;
      }
    }
  }
}

void fft_bluestein(std::vector<Complex>& a, int sign) {
  const std::size_t n = a.size();
  const std::size_t m = next_power_of_two(2 * n + 1);
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

void transform(std::vector<Complex>& a, int sign) {
  if (a.size() == 1) return;
  if (is_power_of_two(a.size())) {
    fft_radix2(a, sign);
  } else {
    fft_bluestein(a, sign);
  }
}

void fft(std::vector<Complex>& data) { transform(data, -1); }

void ifft(std::vector<Complex>& data) {
  transform(data, +1);
  const double scale = 1.0 / static_cast<double>(data.size());
  for (auto& v : data) v *= scale;
}

std::vector<Complex> rfft(const std::vector<double>& data) {
  const std::size_t n = data.size();
  if (n == 1) return {Complex(data[0], 0.0)};
  const std::size_t half = n / 2 + 1;
  if (n % 2 != 0) {
    std::vector<Complex> full(data.begin(), data.end());
    fft(full);
    full.resize(half);
    return full;
  }
  const std::size_t L = n / 2;
  std::vector<Complex> z(L);
  for (std::size_t j = 0; j < L; ++j) z[j] = Complex(data[2 * j], data[2 * j + 1]);
  fft(z);
  std::vector<Complex> out(half);
  for (std::size_t k = 0; k <= L; ++k) {
    const Complex zk = z[k % L];
    const Complex zc = std::conj(z[(L - k) % L]);
    const Complex even = 0.5 * (zk + zc);
    const Complex odd = Complex(0.0, -0.5) * (zk - zc);
    const double angle = -2.0 * std::numbers::pi * static_cast<double>(k) /
                         static_cast<double>(n);
    out[k] = even + Complex(std::cos(angle), std::sin(angle)) * odd;
  }
  return out;
}

std::vector<double> irfft(const std::vector<Complex>& spectrum, std::size_t n) {
  if (n == 1) return {spectrum[0].real()};
  if (n % 2 != 0) {
    std::vector<Complex> full(n);
    for (std::size_t k = 0; k < spectrum.size(); ++k) full[k] = spectrum[k];
    for (std::size_t k = 1; k < spectrum.size(); ++k) full[n - k] = std::conj(spectrum[k]);
    ifft(full);
    std::vector<double> out(n);
    for (std::size_t j = 0; j < n; ++j) out[j] = full[j].real();
    return out;
  }
  const std::size_t L = n / 2;
  std::vector<Complex> z(L);
  for (std::size_t k = 0; k < L; ++k) {
    const Complex xk = spectrum[k];
    const Complex xc = std::conj(spectrum[L - k]);
    const Complex even = 0.5 * (xk + xc);
    const Complex odd_twiddled = 0.5 * (xk - xc);
    const double angle = 2.0 * std::numbers::pi * static_cast<double>(k) /
                         static_cast<double>(n);
    const Complex odd = Complex(std::cos(angle), std::sin(angle)) * odd_twiddled;
    z[k] = even + Complex(0.0, 1.0) * odd;
  }
  ifft(z);
  std::vector<double> out(n);
  for (std::size_t j = 0; j < L; ++j) {
    out[2 * j] = z[j].real();
    out[2 * j + 1] = z[j].imag();
  }
  return out;
}

}  // namespace oracle

template <typename T>
bool same_bits(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

// fft, ifft, rfft and irfft against the oracle on seeded random finite
// input: every power of two 2..2^19 and the Bluestein lengths the repo uses
// (171000 is the paper trace's length).
class FftBitIdentity : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftBitIdentity, MatchesSerialTwiddleKernelBitForBit) {
  const std::size_t n = GetParam();
  const auto x = random_signal(n, 4200 + n);
  auto forward = x;
  auto forward_oracle = x;
  fft(forward);
  oracle::fft(forward_oracle);
  EXPECT_TRUE(same_bits(forward, forward_oracle)) << "fft n=" << n;
  auto inverse = x;
  auto inverse_oracle = x;
  ifft(inverse);
  oracle::ifft(inverse_oracle);
  EXPECT_TRUE(same_bits(inverse, inverse_oracle)) << "ifft n=" << n;

  const auto real = random_real_signal(n, 4300 + n);
  EXPECT_TRUE(same_bits(rfft(real), oracle::rfft(real))) << "rfft n=" << n;
  std::vector<Complex> half(x.begin(), x.begin() + static_cast<std::ptrdiff_t>(n / 2 + 1));
  const auto irfft_oracle = oracle::irfft(half, n);
  EXPECT_TRUE(same_bits(irfft(half, n), irfft_oracle)) << "irfft n=" << n;

  // The span form, in place in a copy of the spectrum, keeping a prefix
  // and scaling it after the 1/n as a separate pass over the oracle does.
  const double scale = 1.7;
  std::vector<Complex> packed = half;
  std::vector<double> prefix(n - n / 3);
  irfft(packed, n, prefix, scale);
  std::vector<double> expected(irfft_oracle.begin(),
                               irfft_oracle.begin() + static_cast<std::ptrdiff_t>(prefix.size()));
  for (auto& v : expected) v *= scale;
  EXPECT_TRUE(same_bits(prefix, expected)) << "span irfft n=" << n;
}

std::vector<std::size_t> bit_identity_lengths() {
  std::vector<std::size_t> lengths;
  for (std::size_t n = 2; n <= (std::size_t{1} << 19); n <<= 1) lengths.push_back(n);
  lengths.insert(lengths.end(), {3, 5, 1000, 171000});
  return lengths;
}

INSTANTIATE_TEST_SUITE_P(Lengths, FftBitIdentity, ::testing::ValuesIn(bit_identity_lengths()));

// The radix-2 kernel changes structure at its cache block: below it every
// stage reads the load-time table, above it the larger stages draw their
// chains per call, and stages go in pairs with a lone last one when their
// count is odd. The complex transforms reach the kernel at n and the real
// ones at n / 2, so both must see block / 2, block and 2 block.
TEST(FftBitIdentityLengths, CoverTheCacheBlockEdges) {
  const auto lengths = bit_identity_lengths();
  const auto covered = [&](std::size_t n) {
    return std::find(lengths.begin(), lengths.end(), n) != lengths.end();
  };
  constexpr std::size_t block = detail::kFftBlock;
  for (const std::size_t kernel : {block / 2, block, 2 * block}) {
    EXPECT_TRUE(covered(kernel)) << "complex length " << kernel;
    EXPECT_TRUE(covered(2 * kernel)) << "real length " << 2 * kernel;
  }
}

TEST(RfftTest, SingleElementIsIdentity) {
  const std::vector<double> x{4.25};
  const auto fx = rfft(x);
  ASSERT_EQ(fx.size(), 1u);
  EXPECT_NEAR(fx[0].real(), 4.25, 1e-15);
  EXPECT_NEAR(fx[0].imag(), 0.0, 1e-15);
  const auto back = irfft(fx, 1);
  ASSERT_EQ(back.size(), 1u);
  EXPECT_NEAR(back[0], 4.25, 1e-15);
}

TEST(RfftTest, DcComponentIsTheSum) {
  const std::vector<double> x{1.0, 2.0, 3.0, 4.0, 5.0, 6.0};
  const auto fx = rfft(x);
  EXPECT_NEAR(fx[0].real(), 21.0, 1e-12);
  EXPECT_NEAR(fx[0].imag(), 0.0, 1e-12);
  // Nyquist bin of an even-length real transform is real.
  EXPECT_NEAR(fx[3].imag(), 0.0, 1e-12);
}

TEST(RfftTest, IrfftRejectsWrongSpectrumSize) {
  std::vector<Complex> spec(4);
  EXPECT_THROW(irfft(spec, 4), InvalidArgument);   // needs 3
  EXPECT_THROW(irfft(spec, 8), InvalidArgument);   // needs 5
  EXPECT_NO_THROW(irfft(spec, 6));                 // 6/2+1 == 4
  EXPECT_NO_THROW(irfft(spec, 7));                 // 7/2+1 == 4
}

TEST(RfftTest, SpanIrfftRejectsAnOutputLongerThanN) {
  std::vector<Complex> spec(4);
  std::vector<double> out(7);
  EXPECT_THROW(irfft(spec, 6, out), InvalidArgument);
  out.resize(6);
  EXPECT_NO_THROW(irfft(spec, 6, out));
}

TEST(RfftTest, UnpackTablesAreCachedPerEvenLengthAndCleared) {
  unpack_table_cache_clear();
  EXPECT_EQ(unpack_table_cache_size(), 0u);
  const auto x = random_real_signal(64, 11);
  const auto first = rfft(x);
  EXPECT_EQ(unpack_table_cache_size(), 1u);
  (void)irfft(first, 64);  // same n: same table
  EXPECT_EQ(unpack_table_cache_size(), 1u);
  (void)rfft(random_real_signal(63, 12));  // odd: no table
  EXPECT_EQ(unpack_table_cache_size(), 1u);
  (void)rfft(random_real_signal(128, 13));
  EXPECT_EQ(unpack_table_cache_size(), 2u);
  unpack_table_cache_clear();
  EXPECT_EQ(unpack_table_cache_size(), 0u);
  EXPECT_TRUE(same_bits(rfft(x), first));  // a rebuilt table has the same bits
}

TEST(FftTest, RealTransformHasConjugateSymmetry) {
  Rng rng(7);
  std::vector<double> x(30);
  for (auto& v : x) v = rng.normal();
  const auto fx = fft_real(x);
  ASSERT_EQ(fx.size(), x.size());
  for (std::size_t k = 1; k < x.size(); ++k) {
    EXPECT_NEAR(fx[k].real(), fx[x.size() - k].real(), 1e-10);
    EXPECT_NEAR(fx[k].imag(), -fx[x.size() - k].imag(), 1e-10);
  }
}

}  // namespace
}  // namespace vbr
