// Streaming-vs-batch equivalence and merge-semantics tests for the one-pass
// analysis subsystem (src/vbr/stream/).
//
// The contract under test, per estimator:
//   - single-pass streaming result matches the batch estimator on the same
//     data within a documented tolerance (exact arithmetic would be equal
//     for moments/ACF; variance-time and Welch differ through their dyadic
//     grid / segmenting, so their tolerance is looser and asserted here);
//   - splitting the stream into k chunks, filling one sink per chunk and
//     merging gives the same result as the single pass, for any k;
//   - merge is associative (same result for any grouping);
//   - the engine tap is deterministic across thread counts and never
//     changes the generated trace.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "vbr/common/checksum.hpp"
#include "vbr/common/error.hpp"
#include "vbr/common/isa.hpp"
#include "vbr/common/rng.hpp"
#include "vbr/common/serialize.hpp"
#include "vbr/engine/engine.hpp"
#include "vbr/model/vbr_source.hpp"
#include "vbr/stats/autocorrelation.hpp"
#include "vbr/stats/descriptive.hpp"
#include "vbr/stats/variance_time.hpp"
#include "vbr/stream/acf.hpp"
#include "vbr/stream/moments.hpp"
#include "vbr/stream/quantiles.hpp"
#include "vbr/stream/sink.hpp"
#include "vbr/stream/variance_time.hpp"
#include "vbr/stream/welch.hpp"

namespace vbr::stream {
namespace {

model::VbrModelParams paper_params() {
  model::VbrModelParams params;
  params.marginal.mu_gamma = 27791.0;
  params.marginal.sigma_gamma = 6254.0;
  params.marginal.tail_slope = 12.0;
  params.hurst = 0.8;
  return params;
}

// One 2^17-frame model trace shared by every test in this file.
const std::vector<double>& test_trace() {
  static const std::vector<double> data = [] {
    const model::VbrVideoSourceModel model(paper_params());
    Rng rng(1994);
    return model.generate(std::size_t{1} << 17, rng);
  }();
  return data;
}

std::span<const double> trace_span() { return test_trace(); }

// Split the trace into k contiguous chunks, fill sink_factory() per chunk,
// and fold the chunk sinks left to right into the first one.
template <typename SinkT, typename Factory>
SinkT split_merge(std::span<const double> data, std::size_t k, Factory factory) {
  std::vector<SinkT> parts;
  for (std::size_t j = 0; j < k; ++j) {
    const std::size_t lo = data.size() * j / k;
    const std::size_t hi = data.size() * (j + 1) / k;
    parts.push_back(factory());
    parts.back().push(data.subspan(lo, hi - lo));
  }
  for (std::size_t j = 1; j < k; ++j) parts.front().merge(parts[j]);
  return std::move(parts.front());
}

// ---------------------------------------------------------------------------
// Streaming vs batch
// ---------------------------------------------------------------------------

TEST(StreamingMomentsTest, MatchesBatchMoments) {
  StreamingMoments m;
  m.push(trace_span());
  const auto batch = stats::batch_moments(trace_span());

  ASSERT_EQ(m.count(), batch.count);
  EXPECT_NEAR(m.mean(), batch.mean, 1e-9 * std::abs(batch.mean));
  EXPECT_NEAR(m.variance(), batch.variance, 1e-9 * batch.variance);
  EXPECT_NEAR(m.skewness(), batch.skewness, 1e-6);
  EXPECT_NEAR(m.excess_kurtosis(), batch.excess_kurtosis, 1e-6);
  EXPECT_EQ(m.min(), batch.min);
  EXPECT_EQ(m.max(), batch.max);
  EXPECT_DOUBLE_EQ(m.peak_to_mean(), batch.max / m.mean());
}

TEST(StreamingMomentsTest, ChunkingDoesNotChangeTheResult) {
  // Same per-sample update order either way, so results are bit-identical.
  StreamingMoments whole;
  whole.push(trace_span());
  StreamingMoments chunked;
  const auto data = trace_span();
  for (std::size_t i = 0; i < data.size(); i += 4097) {
    chunked.push(data.subspan(i, std::min<std::size_t>(4097, data.size() - i)));
  }
  EXPECT_DOUBLE_EQ(whole.mean(), chunked.mean());
  EXPECT_DOUBLE_EQ(whole.variance(), chunked.variance());
  EXPECT_DOUBLE_EQ(whole.skewness(), chunked.skewness());
  EXPECT_DOUBLE_EQ(whole.excess_kurtosis(), chunked.excess_kurtosis());
}

TEST(StreamingAcfTest, MatchesBatchAutocorrelationUpToLag100) {
  constexpr std::size_t kMaxLag = 100;
  StreamingAcf acf(kMaxLag);
  acf.push(trace_span());
  const auto streamed = acf.acf();
  const auto batch = stats::autocorrelation(trace_span(), kMaxLag);

  ASSERT_EQ(streamed.size(), kMaxLag + 1);
  EXPECT_DOUBLE_EQ(streamed[0], 1.0);
  for (std::size_t k = 0; k <= kMaxLag; ++k) {
    EXPECT_NEAR(streamed[k], batch[k], 1e-6) << "lag " << k;
  }
}

TEST(StreamingVarianceTimeTest, HurstMatchesBatchEstimate) {
  // The streaming estimator aggregates on the dyadic grid m = 2^j while the
  // batch one uses a log-spaced grid and every whole block of the series, so
  // the two fits see different points; for a 2^17-sample H = 0.8 trace they
  // agree to well within +-0.08.
  StreamingVarianceTime vt;
  vt.push(trace_span());
  const auto streamed = vt.result();

  stats::VarianceTimeOptions batch_opt;
  batch_opt.fit_min_m = 100;
  const auto batch = stats::variance_time(trace_span(), batch_opt);

  EXPECT_NEAR(streamed.hurst, batch.hurst, 0.08);
  EXPECT_GT(streamed.fit.r_squared, 0.95);
}

TEST(StreamingQuantilesTest, MatchesEcdfWithinSketchError) {
  StreamingQuantiles sketch;
  sketch.push(trace_span());
  const stats::Ecdf ecdf(trace_span());

  // 1% bucket relative error plus order-statistic interpolation noise.
  for (const double q : {0.05, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999}) {
    const double exact = ecdf.quantile(q);
    EXPECT_NEAR(sketch.quantile(q), exact, 0.03 * exact) << "q = " << q;
  }

  for (const double x : {20000.0, 30000.0, 45000.0}) {
    EXPECT_NEAR(sketch.ccdf(x), ecdf.ccdf(x), 0.02) << "x = " << x;
  }
}

TEST(StreamingWelchTest, LowFrequencySlopeSeesLongRangeDependence) {
  StreamingWelchPeriodogram welch;
  welch.push(trace_span());
  ASSERT_EQ(welch.segments(), trace_span().size() / 4096);
  const auto pg = welch.result();
  const double alpha = stats::low_frequency_slope(pg, 0.05);
  const double hurst = (1.0 + alpha) / 2.0;
  EXPECT_GT(hurst, 0.6);
  EXPECT_LT(hurst, 1.0);
}

TEST(StreamingWelchTest, SavedStateIsPinnedForEveryPushSplit) {
  // FNV-1a of save() after 171000 samples, rectangular then Hann, recorded
  // from the per-sample push with a per-segment window. The state must not
  // depend on how the stream is cut into pushes, nor on whether the sink is
  // a clone sharing its prototype's window table.
  std::vector<double> samples(171000);
  Rng rng(1994);
  for (double& x : samples) x = rng.uniform(20000.0, 40000.0);
  const std::uint64_t pinned[] = {0xa2be917284294bf0ULL, 0x10fff2c9493d21d3ULL};
  for (const bool hann : {false, true}) {
    WelchOptions options;
    options.hann_window = hann;
    const StreamingWelchPeriodogram prototype(options);
    for (const std::size_t split : {1u, 7u, 4096u, 171000u}) {
      const auto sink = prototype.clone_empty();
      for (std::size_t at = 0; at < samples.size(); at += split) {
        sink->push(std::span<const double>(samples).subspan(
            at, std::min(split, samples.size() - at)));
      }
      std::ostringstream out(std::ios::binary);
      sink->save(out);
      Fnv1a fnv;
      fnv.update(out.str().data(), out.str().size());
      EXPECT_EQ(fnv.digest(), pinned[hann ? 1 : 0])
          << std::hex << fnv.digest() << " hann=" << hann << " split=" << std::dec << split;
    }
  }
}

// ---------------------------------------------------------------------------
// Merge: split-k equivalence and associativity
// ---------------------------------------------------------------------------

TEST(StreamingMergeTest, MomentsSplitMergeMatchesSinglePassForAnyK) {
  StreamingMoments whole;
  whole.push(trace_span());
  for (const std::size_t k : {2u, 3u, 5u, 8u}) {
    const auto merged =
        split_merge<StreamingMoments>(trace_span(), k, [] { return StreamingMoments(); });
    ASSERT_EQ(merged.count(), whole.count());
    EXPECT_NEAR(merged.mean(), whole.mean(), 1e-9 * std::abs(whole.mean())) << k;
    EXPECT_NEAR(merged.variance(), whole.variance(), 1e-9 * whole.variance()) << k;
    EXPECT_NEAR(merged.skewness(), whole.skewness(), 1e-6) << k;
    EXPECT_NEAR(merged.excess_kurtosis(), whole.excess_kurtosis(), 1e-6) << k;
    EXPECT_EQ(merged.min(), whole.min());
    EXPECT_EQ(merged.max(), whole.max());
  }
}

TEST(StreamingMergeTest, AcfSplitMergeMatchesSinglePassForAnyK) {
  constexpr std::size_t kMaxLag = 64;
  StreamingAcf whole(kMaxLag);
  whole.push(trace_span());
  const auto expect = whole.acf();
  for (const std::size_t k : {2u, 3u, 5u, 8u}) {
    const auto merged =
        split_merge<StreamingAcf>(trace_span(), k, [] { return StreamingAcf(kMaxLag); });
    const auto got = merged.acf();
    ASSERT_EQ(got.size(), expect.size());
    for (std::size_t lag = 0; lag < got.size(); ++lag) {
      EXPECT_NEAR(got[lag], expect[lag], 1e-9) << "k " << k << " lag " << lag;
    }
  }
}

TEST(StreamingMergeTest, QuantileSketchMergeIsExactForAnyK) {
  // Integer bucket counts add, so the merged sketch is *identical* to the
  // single-pass sketch, not merely close.
  StreamingQuantiles whole;
  whole.push(trace_span());
  for (const std::size_t k : {2u, 3u, 5u, 8u}) {
    const auto merged =
        split_merge<StreamingQuantiles>(trace_span(), k, [] { return StreamingQuantiles(); });
    ASSERT_EQ(merged.count(), whole.count());
    for (const double q : {0.0, 0.01, 0.5, 0.9, 0.999, 1.0}) {
      EXPECT_DOUBLE_EQ(merged.quantile(q), whole.quantile(q)) << "k " << k;
    }
    EXPECT_DOUBLE_EQ(merged.ccdf(30000.0), whole.ccdf(30000.0));
  }
}

TEST(StreamingMergeTest, VarianceTimeSplitMergeStaysWithinTolerance) {
  // Each merge boundary discards at most one partial block per level. At
  // the largest fitted level (m = 2^12 for 2^17 samples) that is up to k-1
  // of only ~32 blocks, so the k-way merged Hurst estimate can move by a
  // few hundredths relative to the single pass; +-0.08 is the documented
  // bound (measured: 0.055 at k = 5).
  StreamingVarianceTime whole;
  whole.push(trace_span());
  const double expect = whole.result().hurst;
  for (const std::size_t k : {2u, 5u}) {
    const auto merged = split_merge<StreamingVarianceTime>(
        trace_span(), k, [] { return StreamingVarianceTime(); });
    EXPECT_NEAR(merged.result().hurst, expect, 0.08) << "k " << k;
  }
}

TEST(StreamingMergeTest, WelchSegmentAlignedMergeMatchesSinglePass) {
  StreamingWelchPeriodogram whole;
  whole.push(trace_span());
  // Split at a segment multiple: no partial segments are lost.
  const std::size_t cut = 8 * 4096;
  StreamingWelchPeriodogram left;
  left.push(trace_span().subspan(0, cut));
  StreamingWelchPeriodogram right;
  right.push(trace_span().subspan(cut));
  left.merge(right);

  ASSERT_EQ(left.segments(), whole.segments());
  const auto merged_pg = left.result();
  const auto whole_pg = whole.result();
  ASSERT_EQ(merged_pg.power.size(), whole_pg.power.size());
  for (std::size_t i = 0; i < merged_pg.power.size(); ++i) {
    EXPECT_NEAR(merged_pg.power[i], whole_pg.power[i], 1e-9 * whole_pg.power[i]);
  }
}

TEST(StreamingMergeTest, MergeIsAssociative) {
  const auto data = trace_span();
  const std::size_t third = data.size() / 3;
  const std::span<const double> parts[3] = {
      data.subspan(0, third), data.subspan(third, third), data.subspan(2 * third)};

  auto fill = [&](auto make) {
    std::vector<decltype(make())> sinks;
    for (const auto& part : parts) {
      sinks.push_back(make());
      sinks.back().push(part);
    }
    return sinks;
  };

  {
    auto left = fill([] { return StreamingMoments(); });   // ((a b) c)
    auto right = fill([] { return StreamingMoments(); });  // (a (b c))
    left[0].merge(left[1]);
    left[0].merge(left[2]);
    right[1].merge(right[2]);
    right[0].merge(right[1]);
    EXPECT_NEAR(left[0].mean(), right[0].mean(), 1e-12 * std::abs(left[0].mean()));
    EXPECT_NEAR(left[0].variance(), right[0].variance(), 1e-9 * left[0].variance());
  }
  {
    auto left = fill([] { return StreamingQuantiles(); });
    auto right = fill([] { return StreamingQuantiles(); });
    left[0].merge(left[1]);
    left[0].merge(left[2]);
    right[1].merge(right[2]);
    right[0].merge(right[1]);
    for (const double q : {0.1, 0.5, 0.99}) {
      EXPECT_DOUBLE_EQ(left[0].quantile(q), right[0].quantile(q));
    }
  }
  {
    auto left = fill([] { return StreamingAcf(32); });
    auto right = fill([] { return StreamingAcf(32); });
    left[0].merge(left[1]);
    left[0].merge(left[2]);
    right[1].merge(right[2]);
    right[0].merge(right[1]);
    const auto a = left[0].acf();
    const auto b = right[0].acf();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t lag = 0; lag < a.size(); ++lag) {
      EXPECT_NEAR(a[lag], b[lag], 1e-9) << "lag " << lag;
    }
  }
}

TEST(StreamingMergeTest, MergingAnEmptySinkIsIdentity) {
  StreamingMoments m;
  m.push(trace_span().subspan(0, 1024));
  const double mean = m.mean();
  StreamingMoments empty;
  m.merge(empty);
  EXPECT_DOUBLE_EQ(m.mean(), mean);
  EXPECT_EQ(m.count(), 1024u);

  StreamingAcf acf(16);
  acf.push(trace_span().subspan(0, 1024));
  const auto before = acf.acf();
  StreamingAcf empty_acf(16);
  acf.merge(empty_acf);
  EXPECT_EQ(acf.acf(), before);

  // And the flipped direction: an empty sink absorbing a filled one.
  StreamingAcf fresh(16);
  fresh.merge(acf);
  EXPECT_EQ(fresh.acf(), before);
}

// ---------------------------------------------------------------------------
// Sink composition and error contracts
// ---------------------------------------------------------------------------

TEST(SinkChainTest, FansOutAndClonesMergeBack) {
  StreamingMoments moments;
  StreamingAcf acf(16);
  auto sinks = chain(moments, acf);
  sinks.push(trace_span().subspan(0, 4096));
  EXPECT_EQ(sinks.count(), 4096u);
  EXPECT_EQ(moments.count(), 4096u);
  EXPECT_EQ(acf.count(), 4096u);

  auto clone = sinks.clone_empty();
  EXPECT_EQ(clone->count(), 0u);
  clone->push(trace_span().subspan(4096, 4096));
  sinks.merge(*clone);
  EXPECT_EQ(moments.count(), 8192u);
  EXPECT_EQ(acf.count(), 8192u);

  StreamingMoments whole;
  whole.push(trace_span().subspan(0, 8192));
  EXPECT_NEAR(moments.mean(), whole.mean(), 1e-9 * std::abs(whole.mean()));
}

TEST(SinkTest, MergeRejectsMismatchedTypesAndConfigs) {
  StreamingMoments moments;
  StreamingAcf acf(16);
  EXPECT_THROW(moments.merge(acf), InvalidArgument);
  EXPECT_THROW(acf.merge(moments), InvalidArgument);

  StreamingAcf other_lag(32);
  EXPECT_THROW(acf.merge(other_lag), InvalidArgument);

  StreamingQuantiles q1;
  QuantileSketchOptions coarse;
  coarse.relative_error = 0.05;
  StreamingQuantiles q2(coarse);
  EXPECT_THROW(q1.merge(q2), InvalidArgument);
}

// ---------------------------------------------------------------------------
// StreamingAcf window kernel vs the per-sample update
// ---------------------------------------------------------------------------

// The per-sample StreamingAcf update and merge that defined the serialized
// state: every lag k reads the ring at (n - k) % max_lag. Kept as the
// bit-level oracle for the window kernel; save() writes the sink's layout.
class OracleAcf {
 public:
  explicit OracleAcf(std::size_t max_lag)
      : max_lag_(max_lag), cross_(max_lag + 1, 0.0), ring_(max_lag, 0.0) {}

  void push(std::span<const double> samples) {
    for (const double x : samples) push_value(x);
  }

  void merge(const OracleAcf& peer) {
    if (peer.n_ == 0) return;
    if (n_ == 0) {
      *this = peer;
      return;
    }
    for (std::size_t k = 1; k <= max_lag_; ++k) {
      const std::size_t j_end = std::min<std::size_t>(k, peer.head_.size());
      for (std::size_t j = (k > n_) ? k - n_ : 0; j < j_end; ++j) {
        cross_[k] += peer.head_[j] * sample_back(k - j);
      }
    }
    for (std::size_t k = 0; k <= max_lag_; ++k) cross_[k] += peer.cross_[k];
    const std::size_t from_peer = std::min(peer.n_, max_lag_);
    const std::size_t from_this = std::min(n_, max_lag_ - from_peer);
    std::vector<double> tail = last(from_this);
    const std::vector<double> peer_tail = peer.last(from_peer);
    tail.insert(tail.end(), peer_tail.begin(), peer_tail.end());
    if (head_.size() < max_lag_) {
      const std::size_t take = std::min(peer.head_.size(), max_lag_ - head_.size());
      head_.insert(head_.end(), peer.head_.begin(), peer.head_.begin() + static_cast<std::ptrdiff_t>(take));
    }
    sum_ += peer.sum_;
    compensation_ = 0.0;
    const std::size_t new_n = n_ + peer.n_;
    for (std::size_t idx = 0; idx < tail.size(); ++idx) {
      ring_[(new_n - tail.size() + idx) % max_lag_] = tail[idx];
    }
    n_ = new_n;
  }

  std::string save() const {
    std::ostringstream out;
    io::write_string(out, "acf");
    io::write_u64(out, max_lag_);
    io::write_u64(out, n_);
    io::write_f64(out, sum_);
    io::write_f64(out, compensation_);
    io::write_f64_vector(out, cross_);
    io::write_f64_vector(out, head_);
    io::write_f64_vector(out, ring_);
    return out.str();
  }

 private:
  double sample_back(std::size_t k) const { return ring_[(n_ - k) % max_lag_]; }

  std::vector<double> last(std::size_t k) const {
    std::vector<double> out;
    for (std::size_t j = k; j >= 1; --j) out.push_back(sample_back(j));
    return out;
  }

  void push_value(double x) {
    const std::size_t lags = std::min(max_lag_, n_);
    for (std::size_t k = 1; k <= lags; ++k) cross_[k] += x * sample_back(k);
    cross_[0] += x * x;
    const double y = x - compensation_;
    const double t = sum_ + y;
    compensation_ = (t - sum_) - y;
    sum_ = t;
    ring_[n_ % max_lag_] = x;
    if (n_ < max_lag_) head_.push_back(x);
    ++n_;
  }

  std::size_t max_lag_;
  std::size_t n_ = 0;
  double sum_ = 0.0;
  double compensation_ = 0.0;
  std::vector<double> cross_;
  std::vector<double> head_;
  std::vector<double> ring_;
};

std::string saved(const Sink& sink) {
  std::ostringstream out;
  sink.save(out);
  return out.str();
}

// A prime-length prefix of the trace, so no block size divides it evenly.
std::span<const double> acf_split_data() { return trace_span().subspan(0, 20011); }

// Push `data` as one push of `first` samples (skipped when 0) followed by
// pushes of `block` samples, the last one short.
template <typename SinkT>
void push_split(SinkT& sink, std::span<const double> data, std::size_t first,
                std::size_t block) {
  if (first > 0) sink.push(data.subspan(0, first));
  for (std::size_t i = first; i < data.size(); i += block) {
    sink.push(data.subspan(i, std::min(block, data.size() - i)));
  }
}

TEST(StreamingAcfTest, WindowKernelSavesTheBytesOfThePerSampleUpdate) {
  const auto data = acf_split_data();
  for (const std::size_t lag : {1u, 2u, 16u, 128u}) {
    OracleAcf oracle(lag);
    oracle.push(data);
    const std::string expect = oracle.save();
    const std::size_t blocks[] = {1, 2, 3, lag - 1, lag, lag + 1, 4096, data.size()};
    for (const std::size_t block : blocks) {
      if (block == 0) continue;
      // From the first sample, and after a first push shorter than max_lag.
      for (const std::size_t first : {std::size_t{0}, lag / 2, lag - 1}) {
        StreamingAcf acf(lag);
        push_split(acf, data, first, block);
        EXPECT_EQ(saved(acf), expect)
            << "max_lag " << lag << " block " << block << " first push " << first;
      }
    }
  }
}

TEST(StreamingAcfTest, MergedWindowPushedHalvesMatchTheOracleMerge) {
  const auto data = acf_split_data();
  for (const std::size_t lag : {1u, 2u, 16u, 128u}) {
    // Cuts inside the first window, at its edge, and mid-trace.
    for (const std::size_t cut : {lag / 2, lag, lag + 1, data.size() / 2}) {
      for (const std::size_t block : {std::size_t{3}, lag + 1, std::size_t{4096}}) {
        const auto left_data = data.subspan(0, cut);
        const auto right_data = data.subspan(cut);
        OracleAcf oracle_left(lag);
        OracleAcf oracle_right(lag);
        oracle_left.push(left_data);
        oracle_right.push(right_data);
        oracle_left.merge(oracle_right);

        StreamingAcf left(lag);
        StreamingAcf right(lag);
        push_split(left, left_data, 0, block);
        push_split(right, right_data, 0, block);
        left.merge(right);
        EXPECT_EQ(saved(left), oracle_left.save())
            << "max_lag " << lag << " cut " << cut << " block " << block;
      }
    }
  }
}

// The lag loop forced to one ISA; an ISA this host lacks is skipped by name.
class StreamingAcfIsaTest : public ::testing::TestWithParam<KernelIsa> {
 protected:
  void SetUp() override {
    if (!kernel_isa_supported(GetParam())) {
      GTEST_SKIP() << kernel_isa_name(GetParam()) << " lag loop: this host lacks the ISA";
    }
  }
};

TEST_P(StreamingAcfIsaTest, SavesTheBaselineBytesForEveryPushSplit) {
  // One campaign source's length of model output, ACF(128) as in the tap.
  static const std::vector<double> data = [] {
    const model::VbrVideoSourceModel model(paper_params());
    Rng rng(171);
    return model.generate(171000, rng);
  }();
  const auto fnv_of = [](const Sink& sink) {
    const std::string bytes = saved(sink);
    Fnv1a fnv;
    fnv.update(bytes.data(), bytes.size());
    return fnv.digest();
  };
  StreamingAcf baseline(128, KernelIsa::kBaseline);
  baseline.push(data);
  const std::uint64_t expect = fnv_of(baseline);
  for (const std::size_t block : {1u, 7u, 129u, 4096u, 171000u}) {
    StreamingAcf acf(128, GetParam());
    push_split(acf, data, 0, block);
    EXPECT_EQ(fnv_of(acf), expect) << kernel_isa_name(GetParam()) << " block " << block;
  }
}

std::string isa_test_name(const ::testing::TestParamInfo<KernelIsa>& param) {
  return kernel_isa_name(param.param);
}

INSTANTIATE_TEST_SUITE_P(EveryIsa, StreamingAcfIsaTest,
                         ::testing::Values(KernelIsa::kBaseline, KernelIsa::kAvx2),
                         isa_test_name);

// ---------------------------------------------------------------------------
// Engine tap
// ---------------------------------------------------------------------------

engine::GenerationPlan small_plan() {
  engine::GenerationPlan plan;
  plan.num_sources = 4;
  plan.frames_per_source = 4096;
  plan.seed = 1994;
  plan.params = paper_params();
  return plan;
}

TEST(EngineTapTest, TapNeverChangesTheGeneratedTrace) {
  auto plan = small_plan();
  const auto without = engine::generate_sources(plan);

  StreamingMoments moments;
  StreamingAcf acf(32);
  auto tap = chain(moments, acf);
  const auto with = engine::generate_sources(plan, &tap);

  // Bit-identical, the same guarantee PR 1's determinism hash witnesses.
  EXPECT_EQ(without.sources, with.sources);
  EXPECT_EQ(moments.count(), plan.num_sources * plan.frames_per_source);
}

TEST(EngineTapTest, TapStatisticsAreDeterministicAcrossThreadCounts) {
  auto plan = small_plan();
  auto run = [&plan](std::size_t threads) {
    plan.threads = threads;
    StreamingMoments moments;
    StreamingAcf acf(32);
    auto tap = chain(moments, acf);
    engine::generate_sources(plan, &tap);
    auto r = acf.acf();
    r.push_back(moments.mean());
    r.push_back(moments.variance());
    return r;
  };
  const auto serial = run(1);
  const auto two = run(2);
  const auto eight = run(8);
  // Exact equality: the per-source sinks are merged in source order on one
  // thread, so scheduling cannot perturb even the last bit.
  EXPECT_EQ(serial, two);
  EXPECT_EQ(serial, eight);
}

TEST(EngineTapTest, TapMergedWhileLaterSourcesGenerateMatchesOneThread) {
  // The calling thread merges source k into the tap while workers still
  // generate later sources, cloning their sinks from a blank prototype and
  // never from the tap being merged into. Every estimator takes part, so a
  // shared Welch window or a clone racing a merge would show under TSan;
  // the saved state must equal the one-thread run's byte for byte.
  auto plan = small_plan();
  plan.num_sources = 8;
  auto saved_state = [&plan](std::size_t threads) {
    plan.threads = threads;
    StreamingMoments moments;
    StreamingQuantiles quantiles;
    StreamingAcf acf(32);
    StreamingVarianceTime variance_time;
    StreamingWelchPeriodogram welch(WelchOptions{.segment_size = 1024, .hann_window = true});
    auto tap = chain(moments, quantiles, acf, variance_time, welch);
    engine::generate_sources(plan, &tap);
    std::ostringstream out(std::ios::binary);
    tap.save(out);
    return out.str();
  };
  const std::string serial = saved_state(1);
  EXPECT_EQ(saved_state(2), serial);
  EXPECT_EQ(saved_state(4), serial);
}

TEST(EngineTapTest, TapMatchesPushingSourcesInOrder) {
  auto plan = small_plan();
  StreamingMoments tap_moments;
  auto tap = chain(tap_moments);
  const auto trace = engine::generate_sources(plan, &tap);

  StreamingMoments direct;
  for (const auto& source : trace.sources) direct.push(source);
  EXPECT_EQ(tap_moments.count(), direct.count());
  EXPECT_NEAR(tap_moments.mean(), direct.mean(), 1e-12 * std::abs(direct.mean()));
  EXPECT_NEAR(tap_moments.variance(), direct.variance(), 1e-9 * direct.variance());
  EXPECT_EQ(tap_moments.min(), direct.min());
  EXPECT_EQ(tap_moments.max(), direct.max());
}

}  // namespace
}  // namespace vbr::stream
