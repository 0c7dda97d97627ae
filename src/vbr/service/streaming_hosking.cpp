#include "vbr/service/streaming_hosking.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <map>
#include <mutex>
#include <sstream>
#include <tuple>
#include <utility>

#include "vbr/common/error.hpp"
#include "vbr/common/math_util.hpp"
#include "vbr/common/serialize.hpp"

namespace vbr::service {
namespace {

// Replicates the model::HoskingGenerator recursion step by step — same
// Kahan sums, same operation order, same ENSUREs — so a stream that reads
// this table draws bit-for-bit what the batch generator draws. Any change
// here must keep service_test's full-state equivalence green.
std::shared_ptr<const HoskingCoeffTable> build_coeff_table(const model::HoskingOptions& options,
                                                           std::size_t horizon) {
  const double d = options.hurst - 0.5;
  std::vector<double> rho{1.0};
  const auto extend_rho = [&](std::size_t upto) {
    while (rho.size() <= upto) {
      const auto k = static_cast<double>(rho.size());
      rho.push_back(rho.back() * (k - 1.0 + d) / (k - d));
    }
  };

  auto table = std::make_shared<HoskingCoeffTable>();
  table->phi.reserve(horizon);
  table->v.reserve(horizon + 1);
  table->v.push_back(options.variance);

  std::vector<double> phi_prev;
  double n_prev = 0.0;
  double d_prev = 1.0;
  double v = options.variance;
  for (std::size_t k = 1; k <= horizon; ++k) {
    extend_rho(k);

    KahanSum acc;
    for (std::size_t j = 1; j < k; ++j) acc.add(phi_prev[j - 1] * rho[k - j]);
    const double n_k = rho[k] - acc.value();

    const double d_k = d_prev - n_prev * n_prev / d_prev;
    VBR_ENSURE(d_k > 0.0, "Hosking recursion lost positive definiteness");

    const double phi_kk = n_k / d_k;
    VBR_ENSURE(std::abs(phi_kk) < 1.0, "partial autocorrelation left (-1, 1)");

    std::vector<double> phi_new(k);
    for (std::size_t j = 1; j < k; ++j) {
      phi_new[j - 1] = phi_prev[j - 1] - phi_kk * phi_prev[k - j - 1];
    }
    phi_new[k - 1] = phi_kk;

    v *= (1.0 - phi_kk * phi_kk);

    table->phi.push_back(phi_new);
    table->v.push_back(v);
    phi_prev = std::move(phi_new);
    n_prev = n_k;
    d_prev = d_k;
  }
  return table;
}

struct CoeffCache {
  std::mutex mutex;
  std::map<std::tuple<std::uint64_t, std::uint64_t, std::size_t>,
           std::shared_ptr<const HoskingCoeffTable>>
      entries;
};

CoeffCache& coeff_cache() {
  static CoeffCache cache;
  return cache;
}

std::uint64_t double_bits(double x) {
  std::uint64_t bits = 0;
  static_assert(sizeof bits == sizeof x);
  std::memcpy(&bits, &x, sizeof bits);
  return bits;
}

std::shared_ptr<const HoskingCoeffTable> cached_coeff_table(const model::HoskingOptions& options,
                                                            std::size_t horizon) {
  const auto key = std::make_tuple(double_bits(options.hurst), double_bits(options.variance),
                                   horizon);
  auto& cache = coeff_cache();
  {
    const std::scoped_lock lock(cache.mutex);
    if (const auto it = cache.entries.find(key); it != cache.entries.end()) return it->second;
  }
  // Build outside the lock: an O(m^2) recursion must not serialize every
  // other stream's construction. A racing duplicate build is harmless —
  // both produce identical tables and the first insert wins.
  auto table = build_coeff_table(options, horizon);
  const std::scoped_lock lock(cache.mutex);
  return cache.entries.emplace(key, std::move(table)).first->second;
}

}  // namespace

StreamingHosking::StreamingHosking(const model::HoskingOptions& options, std::size_t horizon,
                                   Rng& parent)
    : options_(options), horizon_(horizon), rng_(parent.split()) {
  VBR_ENSURE(options.hurst > 0.0 && options.hurst < 1.0, "H must be in (0, 1)");
  VBR_ENSURE(options.variance > 0.0, "marginal variance must be positive");
  VBR_ENSURE(horizon >= 1, "hosking horizon must be at least 1");
  coeffs_ = cached_coeff_table(options_, horizon_);
  ring_.assign(horizon_, 0.0);
}

double StreamingHosking::innovation_variance() const {
  const std::size_t order =
      static_cast<std::size_t>(std::min<std::uint64_t>(position_, horizon_));
  return coeffs_->v[order];
}

template <std::size_t G>
void StreamingHosking::next_block_lockstep(std::span<StreamingHosking* const, G> lanes,
                                           std::size_t n,
                                           std::span<std::vector<double>* const, G> outs) {
  const StreamingHosking& lead = *lanes[0];
  for (std::size_t g = 1; g < G; ++g) {
    VBR_DCHECK(lead.lockstep_compatible(*lanes[g]), "lockstep lanes disagree on predictor order");
  }
  const HoskingCoeffTable& table = *lead.coeffs_;
  const std::size_t m = lead.horizon_;
  const std::uint64_t k0 = lead.position_;
  std::array<double*, G> ring{};
  std::array<std::size_t, G> head{};  // ring slot of the lane's next sample
  for (std::size_t g = 0; g < G; ++g) {
    ring[g] = lanes[g]->ring_.data();
    head[g] = static_cast<std::size_t>(lanes[g]->position_ % m);
    outs[g]->reserve(outs[g]->size() + n);
  }

  for (std::size_t i = 0; i < n; ++i) {
    // Compatible lanes share the order: all are past the horizon or all
    // sit at the lead's position.
    const auto order = static_cast<std::size_t>(std::min<std::uint64_t>(k0 + i, m));
    std::array<KahanSum, G> acc{};
    if (order > 0) {
      const double* phi = table.phi[order - 1].data();
      // Tap j reads the sample j back, slot (k - j) mod m: each lane's
      // cursor steps down from its head with a conditional wrap.
      std::array<std::size_t, G> cur{};
      for (std::size_t g = 0; g < G; ++g) cur[g] = (head[g] == 0 ? m : head[g]) - 1;
      for (std::size_t j = 0; j < order; ++j) {
        const double c = phi[j];
        for (std::size_t g = 0; g < G; ++g) {
          acc[g].add(c * ring[g][cur[g]]);
          cur[g] = (cur[g] == 0 ? m : cur[g]) - 1;
        }
      }
    }
    const double sd = std::sqrt(table.v[order]);
    for (std::size_t g = 0; g < G; ++g) {
      StreamingHosking& lane = *lanes[g];
      const double x = lane.rng_.normal(acc[g].value(), sd);
      VBR_DCHECK(std::isfinite(x), "non-finite streaming Hosking sample");
      ring[g][head[g]] = x;
      head[g] = (head[g] + 1 == m) ? 0 : head[g] + 1;
      ++lane.position_;
      outs[g]->push_back(x);
    }
  }
}

template void StreamingHosking::next_block_lockstep<1>(
    std::span<StreamingHosking* const, 1>, std::size_t, std::span<std::vector<double>* const, 1>);
template void StreamingHosking::next_block_lockstep<kLockstepLanes>(
    std::span<StreamingHosking* const, kLockstepLanes>, std::size_t,
    std::span<std::vector<double>* const, kLockstepLanes>);

void StreamingHosking::next_block(std::size_t n, std::vector<double>& out) {
  StreamingHosking* const lane[] = {this};
  std::vector<double>* const dst[] = {&out};
  next_block_lockstep<1>(lane, n, dst);
}

void StreamingHosking::append_state(std::string& out) const {
  io::write_string(out, kind());
  io::write_f64(out, options_.hurst);
  io::write_f64(out, options_.variance);
  io::write_u64(out, horizon_);
  io::write_u64(out, position_);
  rng_.save(out);
  // The last min(position, horizon) samples, oldest first — exactly the
  // ring contents a restored stream needs for its next predictions. They
  // sit in at most two contiguous runs of the ring, copied as raw doubles
  // (the bit patterns write_f64 emits).
  const auto valid = static_cast<std::size_t>(std::min<std::uint64_t>(position_, horizon_));
  io::write_u64(out, valid);
  const auto oldest = static_cast<std::size_t>((position_ - valid) % horizon_);
  const std::size_t head_run = std::min(valid, horizon_ - oldest);
  io::write_bytes(out, ring_.data() + oldest, head_run * sizeof(double));
  io::write_bytes(out, ring_.data(), (valid - head_run) * sizeof(double));
}

void StreamingHosking::restore(std::istream& in) {
  io::read_tag(in, kind(), "StreamingHosking::restore");
  const double hurst = io::read_f64(in, "StreamingHosking::restore");
  const double variance = io::read_f64(in, "StreamingHosking::restore");
  const std::uint64_t horizon = io::read_u64(in, "StreamingHosking::restore");
  if (hurst != options_.hurst || variance != options_.variance || horizon != horizon_) {
    throw IoError("StreamingHosking::restore: configuration mismatch");
  }
  const std::uint64_t position = io::read_u64(in, "StreamingHosking::restore");
  Rng rng;
  rng.restore(in);
  const std::size_t valid = io::read_count(in, horizon_, "StreamingHosking::restore ring");
  if (valid != static_cast<std::size_t>(std::min<std::uint64_t>(position, horizon_))) {
    throw IoError("StreamingHosking::restore: ring length disagrees with position");
  }
  std::vector<double> samples(valid);
  for (auto& s : samples) {
    s = io::read_f64(in, "StreamingHosking::restore ring");
    if (!std::isfinite(s)) throw IoError("StreamingHosking::restore: non-finite ring sample");
  }
  // All fields validated; commit.
  position_ = position;
  rng_ = rng;
  ring_.assign(horizon_, 0.0);
  for (std::size_t i = 0; i < valid; ++i) {
    const std::uint64_t pos = position_ - valid + i;
    ring_[static_cast<std::size_t>(pos % horizon_)] = samples[i];
  }
}

std::size_t StreamingHosking::coeff_cache_size() {
  auto& cache = coeff_cache();
  const std::scoped_lock lock(cache.mutex);
  return cache.entries.size();
}

void StreamingHosking::coeff_cache_clear() {
  auto& cache = coeff_cache();
  const std::scoped_lock lock(cache.mutex);
  cache.entries.clear();
}

}  // namespace vbr::service
