// Tests for the parallel generation engine: the determinism guarantee
// (bit-identical output for any thread count), Rng::split() child-stream
// independence, stats accounting, and the aggregate multiplexer feed.
#include "vbr/engine/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "vbr/common/checksum.hpp"
#include "vbr/common/error.hpp"
#include "vbr/common/math_util.hpp"
#include "vbr/common/rng.hpp"
#include "vbr/engine/thread_pool.hpp"
#include "vbr/model/fgn_generator.hpp"
#include "vbr/stream/sink.hpp"

namespace vbr::engine {
namespace {

GenerationPlan small_plan() {
  GenerationPlan plan;
  plan.num_sources = 5;
  plan.frames_per_source = 2048;
  plan.seed = 1994;
  plan.params.hurst = 0.8;
  plan.params.marginal.mu_gamma = 27791.0;
  plan.params.marginal.sigma_gamma = 6254.0;
  plan.params.marginal.tail_slope = 12.0;
  return plan;
}

TEST(EngineTest, BitIdenticalAcrossThreadCounts) {
  // Same seed + same plan must give byte-identical traces however the
  // sources are spread over threads. EXPECT_EQ on doubles is exact
  // comparison — precisely the guarantee we advertise.
  auto plan = small_plan();
  plan.threads = 1;
  const auto one = generate_sources(plan);
  plan.threads = 2;
  const auto two = generate_sources(plan);
  plan.threads = 8;
  const auto eight = generate_sources(plan);

  ASSERT_EQ(one.sources.size(), plan.num_sources);
  EXPECT_EQ(one.sources, two.sources);
  EXPECT_EQ(one.sources, eight.sources);
}

TEST(EngineTest, BitIdenticalForEveryVariantAndBackend) {
  for (const auto variant :
       {model::ModelVariant::kFull, model::ModelVariant::kGaussianFarima,
        model::ModelVariant::kIidGammaPareto}) {
    auto plan = small_plan();
    plan.num_sources = 3;
    plan.frames_per_source = 512;
    plan.variant = variant;
    plan.threads = 1;
    const auto serial = generate_sources(plan);
    plan.threads = 4;
    const auto parallel = generate_sources(plan);
    EXPECT_EQ(serial.sources, parallel.sources);
  }
  auto plan = small_plan();
  plan.num_sources = 3;
  plan.frames_per_source = 256;  // Hosking is O(n^2); keep it small
  plan.backend = model::GeneratorBackend::kHosking;
  plan.threads = 1;
  const auto serial = generate_sources(plan);
  plan.threads = 4;
  const auto parallel = generate_sources(plan);
  EXPECT_EQ(serial.sources, parallel.sources);
}

/// FNV-1a over every source's bits, in source order.
std::uint64_t trace_hash(const std::vector<std::vector<double>>& sources) {
  Fnv1a hash;
  for (const auto& source : sources) hash.update(std::span<const double>(source));
  return hash.digest();
}

TEST(EngineTest, TraceHashEqualAtOneTwoAndFourThreadsWithReusedWorkspaces) {
  // The campaign's shape: batches of sources through caller-owned
  // workspaces that outlive each batch. Which worker's workspace served a
  // source, and what it held before, must not show in the bits.
  for (const auto backend :
       {model::GeneratorBackend::kDaviesHarte, model::GeneratorBackend::kPaxson}) {
    auto plan = small_plan();
    plan.num_sources = 12;
    plan.frames_per_source = 3000;
    plan.backend = backend;
    plan.threads = 1;
    const std::uint64_t reference = trace_hash(generate_sources(plan).sources);

    const model::VbrVideoSourceModel model(plan.params);
    Rng master(plan.seed);
    std::vector<Rng> streams;
    for (std::size_t i = 0; i < plan.num_sources; ++i) streams.push_back(master.split());
    for (const std::size_t threads : {1u, 2u, 4u}) {
      std::vector<model::Workspace> workspaces(threads);
      // A larger shape first, so every workspace arrives holding leftovers.
      (void)generate_source_batch(model, streams, 0, 5000, plan.variant, backend, threads,
                                  nullptr, {}, workspaces);
      std::vector<std::vector<double>> sources;
      for (std::size_t first = 0; first < plan.num_sources; first += 5) {
        const std::size_t count = std::min<std::size_t>(5, plan.num_sources - first);
        SourceBatch batch = generate_source_batch(
            model, std::span<const Rng>(streams).subspan(first, count), first,
            plan.frames_per_source, plan.variant, backend, threads, nullptr, {}, workspaces);
        for (auto& trace : batch.traces) sources.push_back(std::move(trace));
      }
      EXPECT_EQ(trace_hash(sources), reference)
          << model::generator_backend_name(backend) << " threads=" << threads;
    }
  }
}

TEST(EngineTest, SourcesAreDistinctStreams) {
  auto plan = small_plan();
  const auto out = generate_sources(plan);
  for (std::size_t i = 0; i < out.sources.size(); ++i) {
    for (std::size_t j = i + 1; j < out.sources.size(); ++j) {
      EXPECT_NE(out.sources[i], out.sources[j]) << "sources " << i << "," << j;
    }
  }
}

TEST(EngineTest, SplitChildStreamsAreUncorrelated) {
  // Smoke test of the Rng::split() independence the engine leans on: the
  // cross-correlation of sibling normal streams should vanish like 1/sqrt(n).
  Rng master(42);
  Rng a = master.split();
  Rng b = master.split();
  const std::size_t n = 1 << 16;
  double sum_ab = 0.0, sum_aa = 0.0, sum_bb = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double x = a.normal();
    const double y = b.normal();
    sum_ab += x * y;
    sum_aa += x * x;
    sum_bb += y * y;
  }
  const double corr = sum_ab / std::sqrt(sum_aa * sum_bb);
  EXPECT_LT(std::abs(corr), 0.02);  // ~5 sigma at n = 65536
}

TEST(EngineTest, StatsAccounting) {
  auto plan = small_plan();
  plan.threads = 2;
  const auto out = generate_sources(plan);
  EXPECT_EQ(out.stats.sources, plan.num_sources);
  EXPECT_EQ(out.stats.frames, plan.num_sources * plan.frames_per_source);
  EXPECT_EQ(out.stats.threads_used, 2u);
  EXPECT_GT(out.stats.bytes, 0.0);
  EXPECT_GT(out.stats.wall_seconds, 0.0);
  EXPECT_GT(out.stats.frames_per_second(), 0.0);
  EXPECT_GT(out.stats.bytes_per_second(), 0.0);

  double bytes = 0.0;
  for (const auto& s : out.sources) bytes += kahan_total(s);
  EXPECT_NEAR(out.stats.bytes, bytes, 1e-6 * bytes);
}

TEST(EngineTest, ThreadsClampToSourceCount) {
  auto plan = small_plan();
  plan.num_sources = 2;
  plan.threads = 16;
  const auto out = generate_sources(plan);
  EXPECT_EQ(out.stats.threads_used, 2u);
}

TEST(EngineTest, AggregateSumsSources) {
  auto plan = small_plan();
  plan.num_sources = 4;
  plan.frames_per_source = 128;
  const auto out = generate_sources(plan);
  const auto total = out.aggregate();
  ASSERT_EQ(total.size(), plan.frames_per_source);
  for (std::size_t f = 0; f < total.size(); ++f) {
    double expected = 0.0;
    for (const auto& s : out.sources) expected += s[f];
    EXPECT_DOUBLE_EQ(total[f], expected);
  }
}

TEST(EngineTest, RejectsEmptyPlan) {
  GenerationPlan plan = small_plan();
  plan.num_sources = 0;
  EXPECT_THROW(generate_sources(plan), vbr::InvalidArgument);
  plan = small_plan();
  plan.frames_per_source = 0;
  EXPECT_THROW(generate_sources(plan), vbr::InvalidArgument);
}

TEST(EngineTest, AggregateSkipsQuarantinedSources) {
  MultiSourceTrace out;
  out.sources = {{1.0, 2.0}, {}, {10.0, 20.0}};  // middle source quarantined
  const auto total = out.aggregate();
  ASSERT_EQ(total.size(), 2u);
  EXPECT_DOUBLE_EQ(total[0], 11.0);
  EXPECT_DOUBLE_EQ(total[1], 22.0);
}

TEST(ThreadPoolTest, RethrowsLowestIndexExceptionRegardlessOfScheduling) {
  // Regression: the old pool drained the queue on first failure, so which
  // exception escaped depended on thread timing. Now every index runs and
  // the lowest-index failure wins — for any thread count, every repeat.
  for (const std::size_t threads : {1u, 4u, 8u}) {
    for (int repeat = 0; repeat < 20; ++repeat) {
      std::atomic<std::size_t> ran{0};
      try {
        parallel_for_index(64, threads, [&](std::size_t i, std::size_t /*worker*/) {
          ran.fetch_add(1);
          if (i == 7 || i == 3 || i == 50) {
            throw std::runtime_error("task " + std::to_string(i));
          }
        });
        FAIL() << "expected an exception";
      } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "task 3");
      }
      // No draining: the failing tasks must not prevent the rest from running.
      EXPECT_EQ(ran.load(), 64u);
    }
  }
}

TEST(ThreadPoolTest, OrderedCommitsSeeEveryTaskInIndexOrder) {
  // commit(i) reads what task i wrote, with no lock of its own: the hand-off
  // is the only ordering (TSan checks it), and commits arrive in index order.
  for (const std::size_t threads : {1u, 2u, 4u}) {
    std::vector<std::size_t> written(64, 0);
    std::vector<std::size_t> committed;
    parallel_for_ordered(
        64, threads, [&](std::size_t i, std::size_t /*worker*/) { written[i] = i * i + 1; },
        [&](std::size_t i) {
          EXPECT_EQ(written[i], i * i + 1);
          committed.push_back(i);
        });
    ASSERT_EQ(committed.size(), 64u);
    for (std::size_t i = 0; i < committed.size(); ++i) EXPECT_EQ(committed[i], i);
  }
}

TEST(ThreadPoolTest, OrderedCommitsStopAtTheFirstFailureAndTheLowestIndexWins) {
  for (const std::size_t threads : {1u, 2u, 4u}) {
    for (int repeat = 0; repeat < 10; ++repeat) {
      // A commit error at 2 precedes a task error at 5.
      std::atomic<std::size_t> ran{0};
      std::vector<std::size_t> committed;
      try {
        parallel_for_ordered(
            16, threads,
            [&](std::size_t i, std::size_t /*worker*/) {
              ran.fetch_add(1);
              if (i == 5) throw std::runtime_error("task 5");
            },
            [&](std::size_t i) {
              if (i == 2) throw std::runtime_error("commit 2");
              committed.push_back(i);
            });
        FAIL() << "expected an exception";
      } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "commit 2");
      }
      EXPECT_EQ(committed, (std::vector<std::size_t>{0, 1}));
      EXPECT_EQ(ran.load(), 16u);  // every task still runs

      // A task error at 2 stops the commits before 2; the commit that would
      // have thrown at 4 never runs.
      committed.clear();
      try {
        parallel_for_ordered(
            16, threads,
            [&](std::size_t i, std::size_t /*worker*/) {
              if (i == 2 || i == 9) throw std::runtime_error("task " + std::to_string(i));
            },
            [&](std::size_t i) {
              if (i == 4) throw std::runtime_error("commit 4");
              committed.push_back(i);
            });
        FAIL() << "expected an exception";
      } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "task 2");
      }
      EXPECT_EQ(committed, (std::vector<std::size_t>{0, 1}));
    }
  }
}

TEST(EngineTest, ReusedBatchCommitsEverySourceInOrderBitIdentically) {
  // The campaign's shape: one SourceBatch reused across batches, each source
  // handed over in order with its trace and total while later ones generate.
  auto plan = small_plan();
  plan.num_sources = 12;
  plan.threads = 1;
  const MultiSourceTrace reference = generate_sources(plan);
  const model::VbrVideoSourceModel model(plan.params);
  Rng master(plan.seed);
  std::vector<Rng> streams;
  for (std::size_t i = 0; i < plan.num_sources; ++i) streams.push_back(master.split());
  for (const std::size_t threads : {1u, 2u, 4u}) {
    SourceBatch batch;
    std::vector<std::vector<double>> committed;
    double bytes = 0.0;
    for (std::size_t first = 0; first < plan.num_sources; first += 5) {
      const std::size_t count = std::min<std::size_t>(5, plan.num_sources - first);
      generate_source_batch(model, std::span<const Rng>(streams).subspan(first, count), first,
                            plan.frames_per_source, plan.variant, plan.backend, threads,
                            nullptr, {}, {}, batch, [&](const FinishedSource& source) {
                              committed.emplace_back(source.trace.begin(), source.trace.end());
                              bytes += source.total;
                            });
    }
    EXPECT_EQ(committed, reference.sources) << "threads=" << threads;
    EXPECT_EQ(bytes, reference.stats.bytes) << "threads=" << threads;
  }
}

TEST(EngineFailureTest, TransientFaultsAreRetriedBitIdentically) {
  // A sink family sharing one trip-wire: the first push anywhere throws
  // TransientError, everything after succeeds. Exactly one source needs one
  // retry, and the retried output must match a fault-free run exactly
  // (every attempt restarts from a copy of the source's original stream).
  class FlakySink final : public stream::Sink {
   public:
    FlakySink()
        : tripped_(std::make_shared<std::atomic<bool>>(false)),
          pushed_(std::make_shared<std::atomic<std::size_t>>(0)) {}

    void push(std::span<const double> samples) override {
      if (!tripped_->exchange(true)) throw vbr::TransientError("flaky push");
      pushed_->fetch_add(samples.size());
    }
    void merge(const Sink&) override {}  // the push counter is shared
    std::unique_ptr<Sink> clone_empty() const override {
      return std::unique_ptr<Sink>(new FlakySink(*this));
    }
    void save(std::ostream&) const override {}
    void restore(std::istream&) override {}
    std::size_t count() const override { return pushed_->load(); }
    const char* kind() const override { return "flaky"; }

   private:
    std::shared_ptr<std::atomic<bool>> tripped_;
    std::shared_ptr<std::atomic<std::size_t>> pushed_;
  };

  auto plan = small_plan();
  plan.threads = 2;
  const auto clean = generate_sources(plan);

  FlakySink tap;
  FailurePolicy policy;
  policy.max_attempts = 3;
  const auto retried = generate_sources(plan, &tap, policy);
  EXPECT_EQ(clean.sources, retried.sources);
  EXPECT_EQ(retried.stats.transient_retries, 1u);
  EXPECT_TRUE(retried.stats.failures.empty());
  EXPECT_EQ(tap.count(), plan.num_sources * plan.frames_per_source);
}

TEST(EngineFailureTest, ExhaustedRetriesQuarantineWhenPolicyAllows) {
  // A sink that always throws TransientError: with quarantine on, every
  // source fails after max_attempts and is recorded, in source order.
  class DeadSink final : public stream::Sink {
   public:
    void push(std::span<const double>) override {
      throw vbr::TransientError("disk full");
    }
    void merge(const Sink&) override {}
    std::unique_ptr<Sink> clone_empty() const override {
      return std::make_unique<DeadSink>();
    }
    void save(std::ostream&) const override {}
    void restore(std::istream&) override {}
    std::size_t count() const override { return 0; }
    const char* kind() const override { return "dead"; }
  };

  auto plan = small_plan();
  plan.num_sources = 3;
  plan.threads = 2;
  DeadSink tap;
  FailurePolicy policy;
  policy.max_attempts = 2;
  policy.quarantine = true;
  const auto out = generate_sources(plan, &tap, policy);
  ASSERT_EQ(out.stats.failures.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(out.stats.failures[i].source_index, i);
    EXPECT_EQ(out.stats.failures[i].attempts, 2u);
    EXPECT_TRUE(out.sources[i].empty());
  }
  EXPECT_EQ(out.stats.frames, 0u);

  // Without quarantine the same run must throw (TransientError is an
  // IoError, and the lowest-index source's exception is the one thrown).
  policy.quarantine = false;
  EXPECT_THROW(generate_sources(plan, &tap, policy), vbr::TransientError);
}

TEST(EngineFailureTest, PermanentFaultsSkipTheRetryLoop) {
  class BrokenSink final : public stream::Sink {
   public:
    void push(std::span<const double>) override {
      throw std::logic_error("estimator bug");
    }
    void merge(const Sink&) override {}
    std::unique_ptr<Sink> clone_empty() const override {
      return std::make_unique<BrokenSink>();
    }
    void save(std::ostream&) const override {}
    void restore(std::istream&) override {}
    std::size_t count() const override { return 0; }
    const char* kind() const override { return "broken"; }
  };

  auto plan = small_plan();
  plan.num_sources = 2;
  BrokenSink tap;
  FailurePolicy policy;
  policy.max_attempts = 5;
  policy.quarantine = true;
  const auto out = generate_sources(plan, &tap, policy);
  ASSERT_EQ(out.stats.failures.size(), 2u);
  EXPECT_EQ(out.stats.failures[0].attempts, 1u);  // no retry for permanent faults
  EXPECT_EQ(out.stats.transient_retries, 0u);
}

}  // namespace
}  // namespace vbr::engine
