// A second generation into a span, on a workspace that has served the same
// shape once, allocates nothing. This binary replaces the global operator
// new with a counting one, so it holds only tests that want that.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <vector>

#include "vbr/common/rng.hpp"
#include "vbr/model/vbr_source.hpp"
#include "vbr/model/workspace.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_allocations{0};

void* counted_allocation(std::size_t size, std::size_t alignment) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
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

}  // namespace
}  // namespace vbr::model
