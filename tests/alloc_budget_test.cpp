// Host-state budget of a loaded fabric and of its run. A counting global
// operator new/delete tracks live heap blocks and bytes, their high-water
// mark and the allocation calls made, so a change that gives every PE a
// few more allocations, kept or dropped, or a fatter object fails here
// deterministically instead of showing up later as resident-memory drift
// or load time at wafer scale.
//
// Sanitizer runtimes (ASan, TSan) install their own operator new, so
// under them the counters are not replaced and the tests skip.
#include <gtest/gtest.h>

#include "bench/counting_new.hpp"
#include "core/cg_program.hpp"
#include "core/launcher.hpp"
#include "core/linear_stencil.hpp"
#include "physics/problem.hpp"
#include "spec/launch.hpp"
#include "spec/program.hpp"
#include "wse/event.hpp"
#include "wse/fabric.hpp"
#include "wse/router.hpp"

namespace fvf {
namespace {

// A router's host state is its 24 route words, u32 birth counter and
// parked-block count, per-link traffic counters and saturating one-byte
// configure counts, in two cache lines; switch tables live once per
// fabric (wse::RoutePool) and per-color traffic is counted fabric-wide.
static_assert(sizeof(wse::Router) == 128);
// A PE's host state: clocks, program pointer, memory ledger, counters and
// phase totals. Timeline spans live fabric-side, sized only when asked for.
static_assert(sizeof(wse::Pe) <= 216);
// A queued event's ordering key lives in the heap alone, as two u64 words
// and a slot index; its slot holds the rest (wse::EventQueue).
static_assert(sizeof(wse::EventQueue::Key) <= 24);
static_assert(sizeof(wse::EventBody) <= 32);
// A PE's engine, its halo exchange held by value, stays in one 240-byte
// malloc chunk (a 256x256 load holds 65,536 of them).
static_assert(sizeof(spec::SpecPeProgram) <= 232);

constexpr i32 kSide = 32;
constexpr f64 kPes = static_cast<f64>(kSide * kSide);

[[nodiscard]] physics::FlowProblem budget_problem() {
  return physics::make_benchmark_problem(Extents3{kSide, kSide, 8}, 2023);
}

/// The first load of a shape runs strict lint and memoizes the pass; the
/// budgets are for the steady state every later launch sees. Unused when
/// a sanitizer owns operator new and every budget test skips.
[[maybe_unused]] void memoize_lint(const physics::FlowProblem& problem,
                  const core::DataflowOptions& options) {
  const core::TpfaLoad first = core::load_dataflow_tpfa(problem, options);
}

TEST(AllocBudgetTest, MemoizedTpfaLoadHoldsAHandfulOfBlocksPerPe) {
#ifdef FVF_SANITIZED_ALLOCATOR
  GTEST_SKIP() << "the sanitizer runtime owns operator new";
#else
  constexpr f64 kBlocksPerPe = 8.0;
  // Measured 2,219 live bytes per PE (2,571 before the router shrank to
  // 128 B and phase spans moved off the Pe; 3,027 before the kernel's
  // column buffer was regrown to its exact size and a PE's memory ledger
  // stopped keeping allocation records; 4,931 before switch tables were
  // interned per fabric); the bound leaves 10% headroom.
  constexpr f64 kBytesPerPe = 2440.0;
  const physics::FlowProblem problem = budget_problem();
  const core::DataflowOptions options;
  memoize_lint(problem, options);
  const long long before = counting::live_blocks();
  const long long bytes_before = counting::live_bytes();
  const core::TpfaLoad load = core::load_dataflow_tpfa(problem, options);
  const long long after = counting::live_blocks();
  const long long bytes_after = counting::live_bytes();
  ASSERT_NE(load.harness, nullptr);

  const f64 per_pe = static_cast<f64>(after - before) / kPes;
  EXPECT_GT(per_pe, 0.0) << "the counting operator new is not in use";
  EXPECT_LE(per_pe, kBlocksPerPe)
      << (after - before) << " live heap blocks for " << kSide * kSide
      << " PEs";
  // The router array is mapped outside the heap (MappedAllocator), so
  // operator new never sees it; its bytes are added back per PE.
  const f64 bytes_per_pe =
      static_cast<f64>(bytes_after - bytes_before) / kPes +
      static_cast<f64>(sizeof(wse::Router));
  EXPECT_LE(bytes_per_pe, kBytesPerPe)
      << (bytes_after - bytes_before) << " live heap bytes for "
      << kSide * kSide << " PEs";
#endif
}

TEST(AllocBudgetTest, RunOfAMemoizedTpfaLoadPeaksUnderItsBytesPerPe) {
#ifdef FVF_SANITIZED_ALLOCATOR
  GTEST_SKIP() << "the sanitizer runtime owns operator new";
#else
  // Peak live heap bytes above the load during run(), per PE: the event
  // queue, payload arenas and pending buffers. Measured 809 (1,769
  // before queue slots dropped the ordering key and PE memory ledgers
  // stopped keeping the records every start wrote; exact-size payload
  // blocks do not move it, since at 32x32 the arena is its one 256 KiB
  // slab); the bound leaves 9% headroom.
  constexpr f64 kRunBytesPerPe = 880.0;
  const physics::FlowProblem problem = budget_problem();
  const core::DataflowOptions options;
  memoize_lint(problem, options);
  const core::TpfaLoad load = core::load_dataflow_tpfa(problem, options);
  ASSERT_NE(load.harness, nullptr);
  const long long loaded = counting::live_bytes();
  counting::reset_peak();
  const dataflow::RunInfo info = load.harness->run();
  const long long peak = counting::peak_bytes();
  ASSERT_TRUE(info.ok());

  const f64 per_pe = static_cast<f64>(peak - loaded) / kPes;
  EXPECT_GT(per_pe, 0.0) << "the counting operator new is not in use";
  EXPECT_LE(per_pe, kRunBytesPerPe)
      << peak - loaded << " peak heap bytes above the load for "
      << kSide * kSide << " PEs";
#endif
}

TEST(AllocBudgetTest, StrictTpfaLoadPeaksUnderItsLintBytesPerPe) {
#ifdef FVF_SANITIZED_ALLOCATOR
  GTEST_SKIP() << "the sanitizer runtime owns operator new";
#else
  // Peak live heap bytes of a strict-lint load above what the memoized
  // load of the same shape holds, per PE: strict lint's own working set.
  // Measured 211 (616 while strict lint built its per-PE routing index
  // for every program, before the class certificate); the bound leaves
  // 10% headroom.
  constexpr f64 kLintBytesPerPe = 233.0;
  const physics::FlowProblem problem = budget_problem();
  core::DataflowOptions strict;
  strict.lint = lint::Level::Strict;
  const long long before = counting::live_bytes();
  counting::reset_peak();
  { const core::TpfaLoad load = core::load_dataflow_tpfa(problem, strict); }
  const long long strict_peak = counting::peak_bytes();
  // The strict load memoized the shape: this load runs no lint.
  const long long memoized_before = counting::live_bytes();
  const core::TpfaLoad load =
      core::load_dataflow_tpfa(problem, core::DataflowOptions{});
  const long long held = counting::live_bytes() - memoized_before;
  ASSERT_NE(load.harness, nullptr);

  const f64 per_pe = static_cast<f64>(strict_peak - before - held) / kPes;
  EXPECT_GT(held, 0) << "the counting operator new is not in use";
  EXPECT_LE(per_pe, kLintBytesPerPe)
      << strict_peak - before - held
      << " peak heap bytes above the memoized load for " << kSide * kSide
      << " PEs";
#endif
}

/// Allocation calls per PE that `make_load` makes, freed or not: a load
/// that builds and drops a temporary per PE shows here even when what it
/// keeps does not grow.
template <typename MakeLoad>
[[nodiscard]] f64 allocations_per_pe(MakeLoad&& make_load) {
  const long long before = counting::allocations();
  {
    const auto load = make_load();
    EXPECT_NE(load.harness, nullptr);
  }
  return static_cast<f64>(counting::allocations() - before) / kPes;
}

TEST(AllocBudgetTest, MemoizedTpfaLoadMakesAHandfulOfAllocationsPerPe) {
#ifdef FVF_SANITIZED_ALLOCATOR
  GTEST_SKIP() << "the sanitizer runtime owns operator new";
#else
  // Measured 4.03 allocation calls per PE: the program, its kernel, the
  // kernel's one column buffer and the exchange's receive buffers. A
  // switch table or column buffer built per PE would add calls here. The
  // bound leaves 10% headroom.
  constexpr f64 kAllocationsPerPe = 4.43;
  const physics::FlowProblem problem = budget_problem();
  const core::DataflowOptions options;
  memoize_lint(problem, options);
  const f64 per_pe = allocations_per_pe(
      [&] { return core::load_dataflow_tpfa(problem, options); });
  EXPECT_GT(per_pe, 0.0) << "the counting operator new is not in use";
  EXPECT_LE(per_pe, kAllocationsPerPe)
      << per_pe * kPes << " allocation calls for " << kSide * kSide << " PEs";
#endif
}

TEST(AllocBudgetTest, StrictTpfaLoadMakesAHandfulOfAllocationsPerPe) {
#ifdef FVF_SANITIZED_ALLOCATOR
  GTEST_SKIP() << "the sanitizer runtime owns operator new";
#else
  // Measured 6.07 allocation calls per PE, two more than the memoized
  // load; strict lint's class pass reuses its declaration buffers per
  // row. The bound leaves 10% headroom.
  constexpr f64 kAllocationsPerPe = 6.68;
  const physics::FlowProblem problem = budget_problem();
  core::DataflowOptions strict;
  strict.lint = lint::Level::Strict;
  const f64 per_pe = allocations_per_pe(
      [&] { return core::load_dataflow_tpfa(problem, strict); });
  EXPECT_GT(per_pe, 0.0) << "the counting operator new is not in use";
  EXPECT_LE(per_pe, kAllocationsPerPe)
      << per_pe * kPes << " allocation calls for " << kSide * kSide << " PEs";
#endif
}

/// The static-halo path: a CG launch on the budget shape, with an rhs of
/// ones (the solve's values do not change what a PE holds).
struct CgBudget {
  CgBudget()
      : stencil(core::build_linear_stencil(budget_problem(), 86400.0)),
        rhs(Extents3{kSide, kSide, 8}, 1.0f) {
    kernel.max_iterations = 20;
  }
  [[nodiscard]] spec::Load<> load() const {
    return spec::load(core::cg_launch(stencil, rhs, kernel), {});
  }

  core::LinearStencil stencil;
  Array3<f32> rhs;
  core::CgKernelOptions kernel;
};

TEST(AllocBudgetTest, MemoizedCgLoadHoldsAHandfulOfBlocksPerPe) {
#ifdef FVF_SANITIZED_ALLOCATOR
  GTEST_SKIP() << "the sanitizer runtime owns operator new";
#else
  // Measured 7.02 live blocks and 1,826 live bytes per PE (1,922 while
  // the CG kernel kept a span per column; 22.0 and 2,283 before the
  // kernel's six columns and the stencil's eleven coefficient columns
  // became one block each; 30.0 and 3,387 before the halo exchange moved
  // into the program object and its eight receive vectors became one
  // block); the bounds leave 10% headroom.
  constexpr f64 kBlocksPerPe = 7.73;
  constexpr f64 kBytesPerPe = 2009.0;
  const CgBudget cg;
  { const spec::Load<> first = cg.load(); }
  const long long before = counting::live_blocks();
  const long long bytes_before = counting::live_bytes();
  const spec::Load<> load = cg.load();
  const long long after = counting::live_blocks();
  const long long bytes_after = counting::live_bytes();
  ASSERT_NE(load.harness, nullptr);

  const f64 per_pe = static_cast<f64>(after - before) / kPes;
  EXPECT_GT(per_pe, 0.0) << "the counting operator new is not in use";
  EXPECT_LE(per_pe, kBlocksPerPe)
      << (after - before) << " live heap blocks for " << kSide * kSide
      << " PEs";
  const f64 bytes_per_pe =
      static_cast<f64>(bytes_after - bytes_before) / kPes +
      static_cast<f64>(sizeof(wse::Router));
  EXPECT_LE(bytes_per_pe, kBytesPerPe)
      << (bytes_after - bytes_before) << " live heap bytes for "
      << kSide * kSide << " PEs";
#endif
}

TEST(AllocBudgetTest, MemoizedCgLoadMakesAHandfulOfAllocationsPerPe) {
#ifdef FVF_SANITIZED_ALLOCATOR
  GTEST_SKIP() << "the sanitizer runtime owns operator new";
#else
  // Measured 7.03 allocation calls per PE, one per block the load keeps;
  // the bound leaves 10% headroom.
  constexpr f64 kAllocationsPerPe = 7.73;
  const CgBudget cg;
  { const spec::Load<> first = cg.load(); }
  const f64 per_pe = allocations_per_pe([&] { return cg.load(); });
  EXPECT_GT(per_pe, 0.0) << "the counting operator new is not in use";
  EXPECT_LE(per_pe, kAllocationsPerPe)
      << per_pe * kPes << " allocation calls for " << kSide * kSide << " PEs";
#endif
}

TEST(AllocBudgetTest, RunOfAMemoizedCgLoadPeaksUnderItsBytesPerPe) {
#ifdef FVF_SANITIZED_ALLOCATOR
  GTEST_SKIP() << "the sanitizer runtime owns operator new";
#else
  // Peak live heap bytes above the load during 20 CG iterations, per PE:
  // the event queue, payload arenas and the early slots of neighbors one
  // round ahead. Measured 558 (the same before early blocks stopped
  // taking a fresh vector each); the bound leaves 10% headroom.
  constexpr f64 kRunBytesPerPe = 614.0;
  const CgBudget cg;
  { const spec::Load<> first = cg.load(); }
  const spec::Load<> load = cg.load();
  ASSERT_NE(load.harness, nullptr);
  const long long loaded = counting::live_bytes();
  counting::reset_peak();
  const dataflow::RunInfo info = load.harness->run();
  const long long peak = counting::peak_bytes();
  ASSERT_TRUE(info.ok());

  const f64 per_pe = static_cast<f64>(peak - loaded) / kPes;
  EXPECT_GT(per_pe, 0.0) << "the counting operator new is not in use";
  EXPECT_LE(per_pe, kRunBytesPerPe)
      << peak - loaded << " peak heap bytes above the load for "
      << kSide * kSide << " PEs";
#endif
}

}  // namespace
}  // namespace fvf
