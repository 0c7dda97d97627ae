#include "vbr/common/rng.hpp"

#include <algorithm>
#include <cmath>

#include "vbr/common/error.hpp"
#include "vbr/common/serialize.hpp"

namespace vbr {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(std::uint64_t seed) {
  // Expand the seed so that no state word is zero for any input.
  std::uint64_t s = seed;
  for (auto& word : state_) word = splitmix64(s);
}

Rng::result_type Rng::operator()() {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

Rng Rng::split() { return Rng((*this)()); }

std::array<std::uint64_t, 4> Rng::state() const {
  VBR_ENSURE(!has_cached_normal_,
             "Rng::state() with a cached normal pending would lose half a draw");
  return state_;
}

Rng Rng::from_state(const std::array<std::uint64_t, 4>& state) {
  Rng rng;
  rng.state_ = state;
  rng.cached_normal_ = 0.0;
  rng.has_cached_normal_ = false;
  return rng;
}

void Rng::save(std::string& out) const {
  for (const std::uint64_t word : state_) io::write_u64(out, word);
  io::write_u8(out, has_cached_normal_ ? 1 : 0);
  io::write_f64(out, has_cached_normal_ ? cached_normal_ : 0.0);
}

void Rng::restore(std::istream& in) {
  std::array<std::uint64_t, 4> words{};
  for (auto& word : words) word = io::read_u64(in, "Rng::restore");
  const std::uint8_t flag = io::read_u8(in, "Rng::restore");
  if (flag > 1) throw IoError("Rng::restore: corrupt cached-normal flag");
  const double cached = io::read_f64(in, "Rng::restore");
  if (flag == 1 && !std::isfinite(cached)) {
    throw IoError("Rng::restore: non-finite cached normal");
  }
  state_ = words;
  has_cached_normal_ = (flag == 1);
  cached_normal_ = (flag == 1) ? cached : 0.0;
}

double Rng::uniform() {
  // 53 high-quality bits -> double in [0, 1).
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  VBR_ENSURE(lo < hi, "uniform range must be non-empty");
  return lo + (hi - lo) * uniform();
}

std::uint64_t Rng::uniform_index(std::uint64_t n) {
  VBR_ENSURE(n > 0, "uniform_index requires n > 0");
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = max() - max() % n;
  std::uint64_t draw = (*this)();
  while (draw >= limit) draw = (*this)();
  return draw % n;
}

double Rng::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  // Marsaglia polar method: draws a pair, caches the second.
  double u = 0.0;
  double v = 0.0;
  double s = 0.0;
  do {
    u = uniform(-1.0, 1.0);
    v = uniform(-1.0, 1.0);
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double factor = std::sqrt(-2.0 * std::log(s) / s);
  cached_normal_ = v * factor;
  has_cached_normal_ = true;
  return u * factor;
}

void Rng::fill_normal(std::span<double> out) {
  std::size_t i = 0;
  if (has_cached_normal_ && !out.empty()) out[i++] = normal();
  // Whole pairs, one L1-sized chunk at a time. Pass 1 draws (u, v)
  // candidates into the chunk and keeps one only where normal()'s loop
  // would stop on it; each candidate takes the same two draws there.
  // Pass 2 recomputes s bit for bit and applies the same factor.
  constexpr std::size_t kChunk = 512;  // doubles: 4 KiB
  while (out.size() - i >= 2) {
    double* const chunk = out.data() + i;
    const std::size_t len = std::min(kChunk, (out.size() - i) & ~std::size_t{1});
    for (std::size_t pos = 0; pos < len;) {
      const double u = uniform(-1.0, 1.0);
      const double v = uniform(-1.0, 1.0);
      const double s = u * u + v * v;
      chunk[pos] = u;
      chunk[pos + 1] = v;
      pos += static_cast<std::size_t>((s < 1.0) & (s != 0.0)) * 2;
    }
    for (std::size_t pos = 0; pos < len; pos += 2) {
      const double u = chunk[pos];
      const double v = chunk[pos + 1];
      const double s = u * u + v * v;
      const double factor = std::sqrt(-2.0 * std::log(s) / s);
      chunk[pos] = u * factor;
      chunk[pos + 1] = v * factor;
    }
    i += len;
  }
  // An odd tail takes a pair's first half and caches the second.
  if (i < out.size()) out[i] = normal();
}

double Rng::normal(double mean, double stddev) { return mean + stddev * normal(); }

double Rng::exponential(double lambda) {
  VBR_ENSURE(lambda > 0.0, "exponential rate must be positive");
  double u = uniform();
  while (u == 0.0) u = uniform();
  return -std::log(u) / lambda;
}

double Rng::pareto(double k, double a) {
  VBR_ENSURE(k > 0.0 && a > 0.0, "pareto parameters must be positive");
  double u = uniform();
  while (u == 0.0) u = uniform();
  return k / std::pow(u, 1.0 / a);
}

double Rng::gamma(double shape, double scale) {
  VBR_ENSURE(shape > 0.0 && scale > 0.0, "gamma parameters must be positive");
  if (shape < 1.0) {
    // Johnk-style boost: Gamma(s) = Gamma(s + 1) * U^{1/s}.
    double u = uniform();
    while (u == 0.0) u = uniform();
    return gamma(shape + 1.0, scale) * std::pow(u, 1.0 / shape);
  }
  // Marsaglia-Tsang squeeze method.
  const double d = shape - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  for (;;) {
    double x = 0.0;
    double v = 0.0;
    do {
      x = normal();
      v = 1.0 + c * x;
    } while (v <= 0.0);
    v = v * v * v;
    const double u = uniform();
    if (u < 1.0 - 0.0331 * x * x * x * x) return scale * d * v;
    if (u > 0.0 && std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v))) return scale * d * v;
  }
}

}  // namespace vbr
