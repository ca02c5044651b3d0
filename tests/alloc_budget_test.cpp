// Host-state budget of a loaded fabric. A counting global operator
// new/delete tracks live heap blocks and bytes, so a change that gives
// every PE a few more allocations or a fatter object fails here
// deterministically instead of showing up later as resident-memory drift
// at wafer scale.
//
// Sanitizer runtimes (ASan, TSan) install their own operator new, so
// under them the counters are not replaced and the test skips.
#include <gtest/gtest.h>

#include <malloc.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "core/launcher.hpp"
#include "physics/problem.hpp"
#include "wse/router.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define FVF_SANITIZED_ALLOCATOR 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define FVF_SANITIZED_ALLOCATOR 1
#endif
#endif

#ifndef FVF_SANITIZED_ALLOCATOR

namespace {

std::atomic<long long> g_live_blocks{0};
/// Usable size of every live block (malloc_usable_size: what the
/// allocator really holds, so alloc and free book the same figure).
std::atomic<long long> g_live_bytes{0};

void count_alloc(void* p) noexcept {
  g_live_blocks.fetch_add(1, std::memory_order_relaxed);
  g_live_bytes.fetch_add(static_cast<long long>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
}

void* counted_alloc(std::size_t size) {
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  count_alloc(p);
  return p;
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  const auto a = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  void* p = std::aligned_alloc(a, ((size == 0 ? 1 : size) + a - 1) / a * a);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  count_alloc(p);
  return p;
}

void counted_free(void* p) noexcept {
  if (p != nullptr) {
    g_live_blocks.fetch_sub(1, std::memory_order_relaxed);
    g_live_bytes.fetch_sub(static_cast<long long>(malloc_usable_size(p)),
                           std::memory_order_relaxed);
    std::free(p);
  }
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::align_val_t) noexcept {
  counted_free(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  counted_free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  counted_free(p);
}

#endif  // FVF_SANITIZED_ALLOCATOR

namespace fvf {
namespace {

// A router's host state is its 24 route words, traffic counters and
// configure counts; switch tables live once per fabric (wse::RoutePool).
static_assert(sizeof(wse::Router) <= 512);

TEST(AllocBudgetTest, MemoizedTpfaLoadHoldsAHandfulOfBlocksPerPe) {
#ifdef FVF_SANITIZED_ALLOCATOR
  GTEST_SKIP() << "the sanitizer runtime owns operator new";
#else
  constexpr i32 kSide = 32;
  constexpr f64 kBlocksPerPe = 8.0;
  // Measured 3,027 live bytes per PE (4,931 before switch tables were
  // interned per fabric, when every Router held its 24 ColorConfigs
  // inline); the bound leaves 9% headroom.
  constexpr f64 kBytesPerPe = 3300.0;
  const physics::FlowProblem problem =
      physics::make_benchmark_problem(Extents3{kSide, kSide, 8}, 2023);
  const core::DataflowOptions options;
  {
    // The first load of a shape runs strict lint and memoizes the pass;
    // the budget is for the steady state every later launch sees.
    const core::TpfaLoad first = core::load_dataflow_tpfa(problem, options);
  }
  const long long before = g_live_blocks.load();
  const long long bytes_before = g_live_bytes.load();
  const core::TpfaLoad load = core::load_dataflow_tpfa(problem, options);
  const long long after = g_live_blocks.load();
  const long long bytes_after = g_live_bytes.load();
  ASSERT_NE(load.harness, nullptr);

  const f64 per_pe =
      static_cast<f64>(after - before) / static_cast<f64>(kSide * kSide);
  EXPECT_GT(per_pe, 0.0) << "the counting operator new is not in use";
  EXPECT_LE(per_pe, kBlocksPerPe)
      << (after - before) << " live heap blocks for " << kSide * kSide
      << " PEs";
  // The router array is mapped outside the heap (MappedAllocator), so
  // operator new never sees it; its bytes are added back per PE.
  const f64 bytes_per_pe = static_cast<f64>(bytes_after - bytes_before) /
                               static_cast<f64>(kSide * kSide) +
                           static_cast<f64>(sizeof(wse::Router));
  EXPECT_LE(bytes_per_pe, kBytesPerPe)
      << (bytes_after - bytes_before) << " live heap bytes for "
      << kSide * kSide << " PEs";
#endif
}

}  // namespace
}  // namespace fvf
