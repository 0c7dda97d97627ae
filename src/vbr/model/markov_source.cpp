#include "vbr/model/markov_source.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "vbr/common/error.hpp"
#include "vbr/common/math_util.hpp"
#include "vbr/stats/autocorrelation.hpp"

namespace vbr::model {

MarkovChainSource::MarkovChainSource(std::vector<double> levels,
                                     std::vector<double> transition)
    : levels_(std::move(levels)), transition_(std::move(transition)) {
  const std::size_t m = levels_.size();
  VBR_ENSURE(m >= 2, "need at least two states");
  VBR_ENSURE(transition_.size() == m * m, "transition matrix size mismatch");
  for (std::size_t i = 0; i < m; ++i) {
    KahanSum row;
    for (std::size_t j = 0; j < m; ++j) {
      VBR_ENSURE(transition_[i * m + j] >= 0.0, "negative transition probability");
      row.add(transition_[i * m + j]);
    }
    VBR_ENSURE(std::abs(row.value() - 1.0) < 1e-9, "transition rows must sum to 1");
  }
}

MarkovChainSource MarkovChainSource::fit(std::span<const double> frame_bytes,
                                         std::size_t states) {
  VBR_ENSURE(states >= 2, "need at least two states");
  VBR_ENSURE(frame_bytes.size() >= states * 20, "trace too short for this state count");

  // Quantile bin edges.
  std::vector<double> sorted(frame_bytes.begin(), frame_bytes.end());
  std::sort(sorted.begin(), sorted.end());
  std::vector<double> edges(states + 1);
  for (std::size_t s = 0; s <= states; ++s) {
    const auto idx = std::min(sorted.size() - 1,
                              (sorted.size() * s) / states);
    edges[s] = sorted[idx];
  }
  edges.front() = sorted.front();
  edges.back() = sorted.back() + 1.0;

  auto state_of = [&](double v) {
    const auto it = std::upper_bound(edges.begin() + 1, edges.end() - 1, v);
    return static_cast<std::size_t>(it - (edges.begin() + 1));
  };

  // Per-state level = mean of the samples falling in the bin.
  std::vector<double> level_sum(states, 0.0);
  std::vector<std::size_t> level_count(states, 0);
  for (double v : frame_bytes) {
    const auto s = state_of(v);
    level_sum[s] += v;
    ++level_count[s];
  }
  std::vector<double> levels(states);
  for (std::size_t s = 0; s < states; ++s) {
    VBR_ENSURE(level_count[s] > 0, "empty quantile bin (degenerate trace)");
    levels[s] = level_sum[s] / static_cast<double>(level_count[s]);
  }

  // Transition counting with add-one smoothing so every row is stochastic.
  std::vector<double> counts(states * states, 1.0);
  for (std::size_t t = 0; t + 1 < frame_bytes.size(); ++t) {
    ++counts[state_of(frame_bytes[t]) * states + state_of(frame_bytes[t + 1])];
  }
  for (std::size_t i = 0; i < states; ++i) {
    KahanSum row;
    for (std::size_t j = 0; j < states; ++j) row.add(counts[i * states + j]);
    for (std::size_t j = 0; j < states; ++j) counts[i * states + j] /= row.value();
  }
  return MarkovChainSource(std::move(levels), std::move(counts));
}

std::vector<double> MarkovChainSource::stationary() const {
  const std::size_t m = states();
  std::vector<double> pi(m, 1.0 / static_cast<double>(m));
  std::vector<double> next(m, 0.0);
  for (int iter = 0; iter < 2000; ++iter) {
    std::fill(next.begin(), next.end(), 0.0);
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = 0; j < m; ++j) next[j] += pi[i] * transition_[i * m + j];
    }
    double delta = 0.0;
    for (std::size_t j = 0; j < m; ++j) delta += std::abs(next[j] - pi[j]);
    pi.swap(next);
    if (delta < 1e-14) break;
  }
  return pi;
}

std::vector<double> MarkovChainSource::generate(std::size_t n, Rng& rng) const {
  VBR_ENSURE(n >= 1, "cannot generate an empty trace");
  const std::size_t m = states();
  const auto pi = stationary();

  auto draw_from = [&](std::span<const double> pmf) {
    double u = rng.uniform();
    for (std::size_t j = 0; j < m; ++j) {
      if (u < pmf[j]) return j;
      u -= pmf[j];
    }
    return m - 1;
  };

  std::vector<double> out;
  out.reserve(n);
  std::size_t state = draw_from(pi);
  for (std::size_t t = 0; t < n; ++t) {
    out.push_back(levels_[state]);
    state = draw_from(std::span<const double>(transition_).subspan(state * m, m));
  }
  return out;
}

double MarkovChainSource::second_eigenvalue_magnitude() const {
  const std::size_t m = states();
  const auto pi = stationary();
  // Power iteration on v P with the stationary component projected out.
  std::vector<double> v(m);
  for (std::size_t j = 0; j < m; ++j) {
    v[j] = (j % 2 == 0) ? 1.0 : -1.0;  // something not proportional to pi
  }
  double lambda = 0.0;
  std::vector<double> next(m, 0.0);
  for (int iter = 0; iter < 500; ++iter) {
    // Project out the dominant left eigenvector direction (1-eigenvalue):
    // subtract (sum v) * pi so v stays in the zero-sum subspace.
    KahanSum total;
    for (double x : v) total.add(x);
    for (std::size_t j = 0; j < m; ++j) v[j] -= total.value() * pi[j];

    std::fill(next.begin(), next.end(), 0.0);
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = 0; j < m; ++j) next[j] += v[i] * transition_[i * m + j];
    }
    double norm = 0.0;
    for (double x : next) norm += x * x;
    norm = std::sqrt(norm);
    if (norm < 1e-300) return 0.0;
    lambda = norm / std::sqrt(std::inner_product(v.begin(), v.end(), v.begin(), 0.0));
    for (std::size_t j = 0; j < m; ++j) v[j] = next[j] / norm;
  }
  return std::min(lambda, 1.0);
}

// -------------------------------------------------------------- DAR(1)

DarGammaParetoSource::DarGammaParetoSource(const stats::GammaParetoParams& marginal,
                                           double rho)
    : marginal_(marginal), rho_(rho) {
  VBR_ENSURE(rho >= 0.0 && rho < 1.0, "DAR(1) rho must be in [0, 1)");
}

DarGammaParetoSource DarGammaParetoSource::fit(std::span<const double> frame_bytes) {
  const auto marginal = stats::GammaParetoDistribution::fit(frame_bytes);
  const auto acf = stats::autocorrelation(frame_bytes, 1);
  return DarGammaParetoSource(marginal, std::clamp(acf[1], 0.0, 0.999));
}

std::vector<double> DarGammaParetoSource::generate(std::size_t n, Rng& rng) const {
  VBR_ENSURE(n >= 1, "cannot generate an empty trace");
  std::vector<double> out;
  out.reserve(n);
  double current = marginal_.sample(rng);
  for (std::size_t t = 0; t < n; ++t) {
    if (t > 0 && rng.uniform() >= rho_) current = marginal_.sample(rng);
    out.push_back(current);
  }
  return out;
}

}  // namespace vbr::model
