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

namespace {

/// W doubles as one GCC/Clang vector; one lane needs no vector.
template <std::size_t W>
struct LaneVector {
  typedef double type __attribute__((vector_size(W * sizeof(double))));
};
template <>
struct LaneVector<1> {
  using type = double;
};

/// Kahan accumulators for L lanes held W to a vector.
template <std::size_t L, std::size_t W>
using LaneSums = std::array<BasicKahanSum<typename LaneVector<W>::type>, L / W>;

/// Adds `taps` taps of L lanes into acc. `next` is the row the new sample
/// will fill; tap j of lane g reads next[g - (j + 1) * L], the sample j + 1
/// back, so each tap is one contiguous row. Every lane performs KahanSum's
/// width-1 operations in width-1 order.
template <std::size_t L, std::size_t W>
[[gnu::always_inline]] inline void add_taps(LaneSums<L, W>& acc, const double* phi,
                                            std::size_t taps, const double* next) {
  using V = typename LaneVector<W>::type;
  for (std::size_t j = 0; j < taps; ++j) {
    const double* row = next - (j + 1) * L;
    for (std::size_t v = 0; v < L / W; ++v) {
      V x;
      std::memcpy(&x, row + v * W, sizeof x);
      acc[v].add(phi[j] * x);
    }
  }
}

}  // namespace

std::size_t lockstep_lanes(KernelIsa isa) { return isa == KernelIsa::kAvx2 ? 16 : 8; }

/// The kernel: a group instance per ISA, each inlining run<L, W> into a
/// function whose target() attribute sets its instruction set, and the
/// scalar instance for a lone lane.
struct StreamingHosking::Kernel {
  using Lanes = std::span<StreamingHosking* const>;
  using Outs = std::span<std::vector<double>* const>;
  using Fn = void (*)(Lanes lanes, std::size_t n, Outs outs, std::vector<double>& window);

  /// `isa`'s instance for `lanes` lanes. A lone lane runs the scalar
  /// instance: a group one would compute G - 1 idle lanes beside it.
  static Fn pick(KernelIsa isa, std::size_t lanes) {
    if (lanes == 1) return single;
#if defined(__x86_64__)
    if (isa == KernelIsa::kAvx2) return avx2;
#endif
    return baseline;
  }

#if defined(__x86_64__)
  [[gnu::target("avx2")]] static void avx2(Lanes lanes, std::size_t n, Outs outs,
                                           std::vector<double>& window) {
    run<16, 4>(lanes, n, outs, window);
  }
#endif
  static void baseline(Lanes lanes, std::size_t n, Outs outs, std::vector<double>& window) {
    run<8, 2>(lanes, n, outs, window);
  }
  /// One lane: its ring already is a window of stride 1, broken once where
  /// it wraps, so the taps read it in place in two runs and each sample goes
  /// straight back into it. Copying it out as a group does would cost more
  /// than the lane's own taps at small blocks.
  static void single(Lanes lanes, std::size_t n, Outs outs, std::vector<double>& /*window*/) {
    StreamingHosking& lane = *lanes[0];
    const HoskingCoeffTable& table = *lane.coeffs_;
    const std::size_t m = lane.horizon_;
    double* const ring = lane.ring_.data();
    auto head = static_cast<std::size_t>(lane.position_ % m);  // the next sample's slot
    std::vector<double>& out = *outs[0];
    out.reserve(out.size() + n);
    for (std::size_t i = 0; i < n; ++i) {
      const auto order = static_cast<std::size_t>(std::min<std::uint64_t>(lane.position_, m));
      LaneSums<1, 1> acc{};
      if (order > 0) {
        // Taps before the wrap read down from slot head - 1, the rest down
        // from slot m - 1.
        const double* phi = table.phi[order - 1].data();
        const std::size_t before_wrap = std::min(order, head);
        add_taps<1, 1>(acc, phi, before_wrap, ring + head);
        add_taps<1, 1>(acc, phi + before_wrap, order - before_wrap, ring + m);
      }
      const double x = lane.rng_.normal(acc[0].value(), std::sqrt(table.v[order]));
      VBR_DCHECK(std::isfinite(x), "non-finite streaming Hosking sample");
      ring[head] = x;
      head = (head + 1 == m) ? 0 : head + 1;
      ++lane.position_;
      out.push_back(x);
    }
  }

  /// Advance 2..L lanes by n samples through a window of L-wide rows.
  template <std::size_t L, std::size_t W>
  [[gnu::always_inline]] static void run(Lanes lanes, std::size_t n, Outs outs,
                                         std::vector<double>& window) {
    VBR_DCHECK(lanes.size() >= 2 && lanes.size() <= L && outs.size() == lanes.size(),
               "lockstep group does not fit the kernel");
    const StreamingHosking& lead = *lanes[0];
    for (const StreamingHosking* lane : lanes) {
      VBR_DCHECK(lead.lockstep_compatible(*lane), "lockstep lanes disagree on predictor order");
    }
    const HoskingCoeffTable& table = *lead.coeffs_;
    const std::size_t m = lead.horizon_;
    const std::uint64_t k0 = lead.position_;
    // Lanes past lanes.size() are idle: they compute on whatever the window
    // holds (finite samples or zeros) and are never read. Every allocation
    // comes before the first draw, so a failed one leaves each lane as it was.
    if (window.size() < (m + n) * L) window.resize((m + n) * L);
    for (std::vector<double>* out : outs) out->reserve(out->size() + n);
    double* const rows = window.data();

    // 1. Row t holds each lane's sample m - t back. Below the horizon the
    // oldest rows hold never-written ring zeros, which no tap reads. The
    // copy runs newest first, the order the first sample's taps read.
    std::array<std::size_t, L> oldest{};  // each lane's ring slot of row 0
    for (std::size_t g = 0; g < lanes.size(); ++g) {
      const double* ring = lanes[g]->ring_.data();
      const std::size_t o = oldest[g] = static_cast<std::size_t>(lanes[g]->position_ % m);
      for (std::size_t t = m; t-- > m - o;) rows[t * L + g] = ring[t - (m - o)];
      for (std::size_t t = m - o; t-- > 0;) rows[t * L + g] = ring[o + t];
    }

    // 2-3. Each sample's dots for every lane, then each lane's draw, appended
    // as the next row. Compatible lanes share the order: all are past the
    // horizon or all sit at the lead's position.
    for (std::size_t i = 0; i < n; ++i) {
      const auto order = static_cast<std::size_t>(std::min<std::uint64_t>(k0 + i, m));
      double* const row = rows + (m + i) * L;
      LaneSums<L, W> acc{};
      if (order > 0) add_taps<L, W>(acc, table.phi[order - 1].data(), order, row);
      std::array<double, L> means;
      for (std::size_t v = 0; v < L / W; ++v) {
        std::memcpy(means.data() + v * W, &acc[v].value(), sizeof acc[v].value());
      }
      const double sd = std::sqrt(table.v[order]);
      for (std::size_t g = 0; g < lanes.size(); ++g) {
        const double x = lanes[g]->rng_.normal(means[g], sd);
        VBR_DCHECK(std::isfinite(x), "non-finite streaming Hosking sample");
        row[g] = x;
      }
    }

    // 4. Only the n new samples go out and back into each ring.
    const std::size_t keep = std::min(n, m);
    for (std::size_t g = 0; g < lanes.size(); ++g) {
      StreamingHosking& lane = *lanes[g];
      std::vector<double>& out = *outs[g];
      for (std::size_t i = 0; i < n; ++i) out.push_back(rows[(m + i) * L + g]);
      // Sample i lands where row m + i sits in the ring, slot oldest + i.
      std::size_t slot = oldest[g] + (n - keep);
      if (slot >= m) slot %= m;
      for (std::size_t i = n - keep; i < n; ++i) {
        lane.ring_[slot] = rows[(m + i) * L + g];
        slot = (slot + 1 == m) ? 0 : slot + 1;
      }
      lane.position_ += n;
    }
  }
};

void StreamingHosking::next_block_lanes(std::span<StreamingHosking* const> lanes,
                                        std::size_t n,
                                        std::span<std::vector<double>* const> outs,
                                        std::vector<double>& window, KernelIsa isa) {
  VBR_ENSURE(isa == active_kernel_isa() || kernel_isa_supported(isa),
             "this host cannot run the requested kernel ISA");
  VBR_ENSURE(lanes.size() <= lockstep_lanes(isa), "more lanes than the kernel ISA takes");
  Kernel::pick(isa, lanes.size())(lanes, n, outs, window);
}

void StreamingHosking::next_block(std::size_t n, std::vector<double>& out) {
  StreamingHosking* const lane[] = {this};
  std::vector<double>* const dst[] = {&out};
  std::vector<double> unused;  // a lone lane reads its ring in place
  next_block_lanes(lane, n, dst, unused);
}

void StreamingHosking::prefetch_ring() const {
  const auto* ring = reinterpret_cast<const char*>(ring_.data());
  for (std::size_t b = 0; b < ring_.size() * sizeof(double); b += 64) {
    __builtin_prefetch(ring + b);
  }
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
  if (valid > 0) {
    io::read_bytes(in, samples.data(), valid * sizeof(double), "StreamingHosking::restore ring");
  }
  for (const double s : samples) {
    if (!std::isfinite(s)) throw IoError("StreamingHosking::restore: non-finite ring sample");
  }
  // All fields validated; commit. The samples are oldest first and land in
  // at most two contiguous runs of the ring.
  position_ = position;
  rng_ = rng;
  ring_.assign(horizon_, 0.0);
  const auto oldest = static_cast<std::size_t>((position_ - valid) % horizon_);
  const std::size_t head_run = std::min(valid, horizon_ - oldest);
  std::copy_n(samples.begin(), head_run, ring_.begin() + static_cast<std::ptrdiff_t>(oldest));
  std::copy(samples.begin() + static_cast<std::ptrdiff_t>(head_run), samples.end(),
            ring_.begin());
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
