// A second generation into a span, on a workspace that has served the same
// shape once, allocates nothing, and a campaign's second batch allocates no
// trace-sized block. This binary replaces the global operator new with a
// counting one, so it holds only tests that want that.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <filesystem>
#include <new>
#include <vector>

#include "vbr/common/rng.hpp"
#include "vbr/model/vbr_source.hpp"
#include "vbr/model/workspace.hpp"
#include "vbr/run/campaign.hpp"
#include "vbr/stream/moments.hpp"
#include "vbr/stream/sink.hpp"
#include "vbr/stream/welch.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_allocations{0};
/// Blocks of at least g_large_bytes, counted whether or not g_counting is on.
std::atomic<std::size_t> g_large_bytes{~std::size_t{0}};
std::atomic<std::size_t> g_large_allocations{0};

void* counted_allocation(std::size_t size, std::size_t alignment) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (size >= g_large_bytes.load(std::memory_order_relaxed)) {
    g_large_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (size == 0) size = 1;
  void* p = alignment <= alignof(std::max_align_t)
                ? std::malloc(size)
                : std::aligned_alloc(alignment, (size + alignment - 1) / alignment * alignment);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return counted_allocation(size, 0); }
void* operator new[](std::size_t size) { return counted_allocation(size, 0); }
void* operator new(std::size_t size, std::align_val_t alignment) {
  return counted_allocation(size, static_cast<std::size_t>(alignment));
}
void* operator new[](std::size_t size, std::align_val_t alignment) {
  return counted_allocation(size, static_cast<std::size_t>(alignment));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace vbr::model {
namespace {

/// Allocations made by one warm generate() of `out.size()` frames.
std::size_t allocations_of_second_generate(const VbrVideoSourceModel& model,
                                           GeneratorBackend backend, std::vector<double>& out,
                                           Workspace& workspace) {
  Rng first(1994);
  model.generate(out, first, ModelVariant::kFull, backend, workspace);
  Rng second(2024);
  g_allocations.store(0);
  g_counting.store(true);
  model.generate(out, second, ModelVariant::kFull, backend, workspace);
  g_counting.store(false);
  return g_allocations.load();
}

VbrVideoSourceModel star_wars_model() {
  VbrModelParams params;
  params.marginal.mu_gamma = 27791.0;
  params.marginal.sigma_gamma = 6254.0;
  params.marginal.tail_slope = 12.0;
  params.hurst = 0.8;
  return VbrVideoSourceModel(params);
}

TEST(WorkspaceAllocationTest, CountingAllocatorSeesAVector) {
  g_allocations.store(0);
  g_counting.store(true);
  std::vector<double> v(16);
  g_counting.store(false);
  EXPECT_EQ(g_allocations.load(), 1u);
}

TEST(WorkspaceAllocationTest, SecondDaviesHarteGenerateAllocatesNothing) {
  const auto model = star_wars_model();
  for (const std::size_t n : {std::size_t{1000}, std::size_t{171000}}) {
    Workspace workspace;
    std::vector<double> out(n);
    EXPECT_EQ(allocations_of_second_generate(model, GeneratorBackend::kDaviesHarte, out,
                                             workspace),
              0u)
        << "n=" << n;
  }
}

TEST(WorkspaceAllocationTest, SecondPaxsonGenerateAllocatesNothing) {
  const auto model = star_wars_model();
  for (const std::size_t n : {std::size_t{1000}, std::size_t{171000}}) {
    Workspace workspace;
    std::vector<double> out(n);
    EXPECT_EQ(allocations_of_second_generate(model, GeneratorBackend::kPaxson, out, workspace),
              0u)
        << "n=" << n;
  }
}

TEST(WorkspaceAllocationTest, AWorkspaceGrownByALargerShapeServesASmallerOne) {
  const auto model = star_wars_model();
  Workspace workspace;
  std::vector<double> large(171000);
  Rng rng(7);
  model.generate(large, rng, ModelVariant::kFull, GeneratorBackend::kDaviesHarte, workspace);
  model.generate(large, rng, ModelVariant::kFull, GeneratorBackend::kPaxson, workspace);
  std::vector<double> small(3000);
  Rng warm(8);  // the first 3000-frame shape fills its caches
  model.generate(small, warm, ModelVariant::kFull, GeneratorBackend::kDaviesHarte, workspace);
  model.generate(small, warm, ModelVariant::kFull, GeneratorBackend::kPaxson, workspace);
  g_allocations.store(0);
  g_counting.store(true);
  model.generate(small, rng, ModelVariant::kFull, GeneratorBackend::kDaviesHarte, workspace);
  model.generate(small, rng, ModelVariant::kFull, GeneratorBackend::kPaxson, workspace);
  g_counting.store(false);
  EXPECT_EQ(g_allocations.load(), 0u);
}

/// Blocks of at least `bytes` allocated by one campaign of `sources` in
/// batches of 4, with a tap, on two generating threads.
std::size_t large_blocks_of_campaign(std::size_t sources, std::size_t frames,
                                     std::size_t bytes) {
  const auto dir = std::filesystem::temp_directory_path();
  run::CampaignOptions options;
  options.plan.num_sources = sources;
  options.plan.frames_per_source = frames;
  options.plan.seed = 1994;
  options.plan.params = star_wars_model().params();
  options.plan.threads = 2;
  options.trace_path = dir / "vbr_alloc_campaign.trace";
  options.checkpoint_path = dir / "vbr_alloc_campaign.ckpt";
  options.checkpoint_every_sources = 4;
  stream::StreamingMoments moments;
  stream::StreamingWelchPeriodogram welch;
  auto tap = stream::chain(moments, welch);
  g_large_allocations.store(0);
  g_large_bytes.store(bytes);
  run::run_campaign(options, &tap);
  g_large_bytes.store(~std::size_t{0});
  std::filesystem::remove(options.trace_path);
  std::filesystem::remove(options.checkpoint_path);
  return g_large_allocations.load();
}

TEST(WorkspaceAllocationTest, SecondCampaignBatchAllocatesNoTraceSizedBlock) {
  // The runner keeps its workspaces and trace buffers for the whole
  // campaign, so a two-batch campaign allocates exactly the trace-sized
  // blocks a one-batch campaign does: the second batch adds none.
  constexpr std::size_t kFrames = 171000;
  constexpr std::size_t kTraceBytes = kFrames * sizeof(double);
  (void)large_blocks_of_campaign(4, kFrames, kTraceBytes);  // fills process-wide caches
  const std::size_t one_batch = large_blocks_of_campaign(4, kFrames, kTraceBytes);
  const std::size_t two_batches = large_blocks_of_campaign(8, kFrames, kTraceBytes);
  EXPECT_GE(one_batch, 4u);  // at least the four trace buffers
  EXPECT_EQ(two_batches, one_batch);
}

}  // namespace
}  // namespace vbr::model
