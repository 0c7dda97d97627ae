#include "vbr/stream/acf.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "vbr/common/error.hpp"
#include "vbr/common/serialize.hpp"

namespace vbr::stream {
namespace {

// Adds the lag products of samples x[begin..end) for lags 0..L to rev, where
// rev[L - k] accumulates lag k: reversed, the partners of consecutive lags
// are read forwards. x[t] is the sample at stream index n_at_begin + t, and
// x[t - k] must be readable for every lag it has, k <= min(L, n_at_begin + t),
// so lag k is a plain read with no ring arithmetic.
//
// One body, compiled for each ISA of common/isa.hpp: the lags are
// independent sums, so a wider vector adds more lags at once and each lag
// still takes its products one rounded add at a time, in stream order.
[[gnu::always_inline]] inline void accumulate(double* rev, std::size_t L, const double* x,
                                              std::size_t begin, std::size_t end,
                                              std::size_t n_at_begin) {
  std::size_t t = begin;
  // NOLINTBEGIN(vbr-naive-accumulation): the per-lag cross products are snapshot-serialized state with merge identities pinned bit-exact by tests; per-lag compensation would enter the on-disk format. The cancellation-prone term — the stream total — is Kahan-compensated in push().
  // The first L samples of the whole stream have fewer than L partners;
  // they go one at a time.
  for (; t < end && n_at_begin + t < L; ++t) {
    const double* const xt = x + t;
    for (std::size_t k = 0; k <= n_at_begin + t; ++k) rev[L - k] += *xt * *(xt - k);
  }
  // Eight samples per pass over the lags, held in registers. Each lag still
  // receives its products in stream order, one rounded add at a time, so the
  // bits equal those of the one-sample-at-a-time loop below.
  for (; t + 8 <= end; t += 8) {
    const double x0 = x[t];
    const double x1 = x[t + 1];
    const double x2 = x[t + 2];
    const double x3 = x[t + 3];
    const double x4 = x[t + 4];
    const double x5 = x[t + 5];
    const double x6 = x[t + 6];
    const double x7 = x[t + 7];
    const double* const p = (x + t) - L;  // p[L - k] = x[t - k]
    for (std::size_t q = 0; q <= L; ++q) {
      double c = rev[q];
      c += x0 * p[q];
      c += x1 * p[q + 1];
      c += x2 * p[q + 2];
      c += x3 * p[q + 3];
      c += x4 * p[q + 4];
      c += x5 * p[q + 5];
      c += x6 * p[q + 6];
      c += x7 * p[q + 7];
      rev[q] = c;
    }
  }
  for (; t < end; ++t) {
    const double* const p = (x + t) - L;
    for (std::size_t q = 0; q <= L; ++q) rev[q] += x[t] * p[q];
  }
  // NOLINTEND(vbr-naive-accumulation)
}

using AccumulateFn = void (*)(double*, std::size_t, const double*, std::size_t, std::size_t,
                              std::size_t);

void accumulate_baseline(double* rev, std::size_t L, const double* x, std::size_t begin,
                         std::size_t end, std::size_t n_at_begin) {
  accumulate(rev, L, x, begin, end, n_at_begin);
}

#if defined(__x86_64__)
[[gnu::target("avx2")]] void accumulate_avx2(double* rev, std::size_t L, const double* x,
                                             std::size_t begin, std::size_t end,
                                             std::size_t n_at_begin) {
  accumulate(rev, L, x, begin, end, n_at_begin);
}
#endif

AccumulateFn accumulate_for(KernelIsa isa) {
#if defined(__x86_64__)
  if (isa == KernelIsa::kAvx2) return accumulate_avx2;
#endif
  (void)isa;
  return accumulate_baseline;
}

}  // namespace

StreamingAcf::StreamingAcf(std::size_t max_lag, KernelIsa isa) : max_lag_(max_lag), isa_(isa) {
  VBR_ENSURE(max_lag_ >= 1, "StreamingAcf needs max_lag >= 1");
  VBR_ENSURE(kernel_isa_supported(isa_), "this host cannot run the requested kernel ISA");
  cross_.assign(max_lag_ + 1, 0.0);
  ring_.assign(max_lag_, 0.0);
  head_.reserve(max_lag_);
}

void StreamingAcf::copy_last(std::size_t k, double* out) const {
  // Stream index n_ - k sits at slot (n_ - k) % max_lag_; the k samples run
  // to the end of the ring and wrap to its start at most once.
  const std::size_t start = (n_ - k) % max_lag_;
  const std::size_t first = std::min(k, max_lag_ - start);
  std::copy_n(ring_.begin() + static_cast<std::ptrdiff_t>(start), first, out);
  std::copy_n(ring_.begin(), k - first, out + first);
}

std::vector<double> StreamingAcf::last(std::size_t k) const {
  std::vector<double> out(k);
  copy_last(k, out.data());
  return out;
}

void StreamingAcf::push(std::span<const double> samples) {
  const std::size_t m = samples.size();
  if (m == 0) return;
  const std::size_t L = max_lag_;
  // Checked before any state moves, so a push that throws changes nothing.
  for (const double x : samples) {
    VBR_DCHECK(std::isfinite(x), "non-finite sample pushed into StreamingAcf");
  }
  for (const double x : samples) {
    // Kahan step for the stream total; the mean correction in acf() subtracts
    // two totals of similar magnitude, so the total is worth keeping exact.
    const double y = x - compensation_;
    const double t = sum_ + y;
    compensation_ = (t - sum_) - y;
    sum_ = t;
  }

  // The first max_lag samples of the span reach back into the ring. Lay the
  // ring's last min(n_, max_lag) samples, oldest first, in front of them in
  // one window; from sample max_lag on, every partner is in the span itself.
  // The scratch holds the reversed cross products, then the window.
  const std::size_t kept = std::min(n_, L);
  const std::size_t lead = std::min(m, L);
  scratch_.resize((L + 1) + kept + lead);
  double* const rev = scratch_.data();
  double* const window = rev + (L + 1);
  std::reverse_copy(cross_.begin(), cross_.end(), rev);
  copy_last(kept, window);
  std::copy_n(samples.begin(), lead, window + kept);
  const AccumulateFn accumulate_isa = accumulate_for(isa_);
  accumulate_isa(rev, L, window + kept, 0, lead, n_);
  accumulate_isa(rev, L, samples.data(), lead, m, n_);
  std::reverse_copy(rev, rev + (L + 1), cross_.begin());

  if (n_ < L) {
    const std::size_t take = std::min(m, L - n_);
    head_.insert(head_.end(), samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(take));
  }
  // Only the last min(m, max_lag) samples survive in the ring; write them at
  // their stream-index slots.
  const std::size_t tail = std::min(m, L);
  std::size_t slot = (n_ + m - tail) % L;
  for (std::size_t t = m - tail; t < m; ++t) {
    ring_[slot] = samples[t];
    if (++slot == L) slot = 0;
  }
  n_ += m;
}

void StreamingAcf::merge(const Sink& other) {
  const auto& peer = detail::merge_peer<StreamingAcf>(other, kind());
  VBR_ENSURE(peer.max_lag_ == max_lag_,
             "cannot merge StreamingAcf sketches with different max_lag");
  if (peer.n_ == 0) return;
  if (n_ == 0) {
    *this = peer;
    return;
  }

  // Boundary cross products: peer sample j (global index n_ + j) pairs at
  // lag k with this stream's sample n_ + j - k, i.e. our (k - j)-th most
  // recent sample, kept[kept.size() - (k - j)]. Only j < k contributes, and
  // only while k - j <= n_. Everything needed is in peer.head_ and our ring —
  // compute before any state is overwritten.
  const std::vector<double> kept = last(std::min(n_, max_lag_));
  // NOLINTBEGIN(vbr-naive-accumulation): same serialized-state constraint as accumulate(); the boundary terms must add in plain order to reproduce the single-stream result bit-exactly.
  for (std::size_t k = 1; k <= max_lag_; ++k) {
    const std::size_t j_end = std::min<std::size_t>(k, peer.head_.size());
    for (std::size_t j = (k > n_) ? k - n_ : 0; j < j_end; ++j) {
      cross_[k] += peer.head_[j] * kept[kept.size() - (k - j)];
    }
  }
  for (std::size_t k = 0; k <= max_lag_; ++k) cross_[k] += peer.cross_[k];
  // NOLINTEND(vbr-naive-accumulation)

  // New last-max_lag window of the concatenated stream.
  const std::size_t from_peer = std::min(peer.n_, max_lag_);
  const std::size_t from_this = std::min(n_, max_lag_ - from_peer);
  std::vector<double> tail = last(from_this);
  const std::vector<double> peer_tail = peer.last(from_peer);
  tail.insert(tail.end(), peer_tail.begin(), peer_tail.end());

  if (head_.size() < max_lag_) {
    const std::size_t take = std::min(peer.head_.size(), max_lag_ - head_.size());
    head_.insert(head_.end(), peer.head_.begin(), peer.head_.begin() + take);
  }

  sum_ += peer.sum_;
  compensation_ = 0.0;
  const std::size_t new_n = n_ + peer.n_;
  for (std::size_t idx = 0; idx < tail.size(); ++idx) {
    const std::size_t pos = new_n - tail.size() + idx;
    ring_[pos % max_lag_] = tail[idx];
  }
  n_ = new_n;
}

std::unique_ptr<Sink> StreamingAcf::clone_empty() const {
  return std::make_unique<StreamingAcf>(max_lag_, isa_);
}

void StreamingAcf::save(std::ostream& out) const {
  io::write_string(out, kind());
  io::write_u64(out, max_lag_);
  io::write_u64(out, n_);
  io::write_f64(out, sum_);
  io::write_f64(out, compensation_);
  io::write_f64_vector(out, cross_);
  io::write_f64_vector(out, head_);
  io::write_f64_vector(out, ring_);
}

void StreamingAcf::restore(std::istream& in) {
  io::read_tag(in, kind(), kind());
  const std::uint64_t max_lag = io::read_u64(in, kind());
  if (max_lag != max_lag_) {
    throw IoError("acf: serialized max_lag does not match this sink");
  }
  const std::uint64_t n = io::read_u64(in, kind());
  const double sum = io::read_f64(in, kind());
  const double compensation = io::read_f64(in, kind());
  std::vector<double> cross = io::read_f64_vector(in, max_lag_ + 1, kind());
  std::vector<double> head = io::read_f64_vector(in, max_lag_, kind());
  std::vector<double> ring = io::read_f64_vector(in, max_lag_, kind());
  if (cross.size() != max_lag_ + 1 || ring.size() != max_lag_ ||
      head.size() != std::min<std::uint64_t>(n, max_lag_)) {
    throw IoError("acf: serialized buffer sizes are inconsistent with the sample count");
  }
  n_ = static_cast<std::size_t>(n);
  sum_ = sum;
  compensation_ = compensation;
  cross_ = std::move(cross);
  head_ = std::move(head);
  ring_ = std::move(ring);
}

std::vector<double> StreamingAcf::acf() const {
  VBR_ENSURE(n_ >= 2, "autocorrelation requires at least two samples");
  const std::size_t lags = std::min(max_lag_, n_ - 1);
  const auto n = static_cast<double>(n_);
  const double mean = sum_ / n;

  // Partial sums over the first and last k samples, k <= lags.
  std::vector<double> first_sums(lags + 1, 0.0);
  for (std::size_t k = 1; k <= lags; ++k) first_sums[k] = first_sums[k - 1] + head_[k - 1];
  const std::vector<double> tail = last(lags);
  std::vector<double> last_sums(lags + 1, 0.0);
  for (std::size_t k = 1; k <= lags; ++k) last_sums[k] = last_sums[k - 1] + tail[lags - k];

  // sum_{i=k}^{n-1} (x_i - m)(x_{i-k} - m)
  //   = cross_k - m * (2S - first_sums[k] - last_sums[k]) + (n - k) m^2.
  std::vector<double> r(lags + 1, 0.0);
  const double c0 = cross_[0] - mean * (2.0 * sum_) + n * mean * mean;
  VBR_ENSURE(c0 > 0.0, "autocorrelation of a constant series is undefined");
  r[0] = 1.0;
  for (std::size_t k = 1; k <= lags; ++k) {
    const double ck = cross_[k] -
                      mean * (2.0 * sum_ - first_sums[k] - last_sums[k]) +
                      (n - static_cast<double>(k)) * mean * mean;
    r[k] = ck / c0;
  }
  return r;
}

}  // namespace vbr::stream
