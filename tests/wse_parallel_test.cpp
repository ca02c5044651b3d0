// Tests of the parallel event engine: the ThreadPool primitive, and the
// bitwise-determinism guarantee of tiled Fabric::run — every thread count
// must reproduce the serial run exactly (fields, counters, traffic,
// errors, and the trace sequence).
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/assert.hpp"
#include "common/thread_pool.hpp"
#include "core/launcher.hpp"
#include "physics/problem.hpp"
#include "wse/fabric.hpp"
#include "wse/trace.hpp"

namespace fvf {
namespace {

// --- ThreadPool ------------------------------------------------------------

TEST(ThreadPoolTest, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4);
  constexpr i64 kCount = 1000;
  std::vector<std::atomic<int>> hits(kCount);
  pool.run_indexed(kCount, [&](i64 i) { ++hits[static_cast<usize>(i)]; });
  for (i64 i = 0; i < kCount; ++i) {
    EXPECT_EQ(hits[static_cast<usize>(i)].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, SingleThreadRunsInlineOnCaller) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran(8);
  pool.run_indexed(8, [&](i64 i) {
    ran[static_cast<usize>(i)] = std::this_thread::get_id();
  });
  for (const std::thread::id& id : ran) {
    EXPECT_EQ(id, caller);
  }
}

TEST(ThreadPoolTest, NonPositiveWidthClampsToOne) {
  EXPECT_EQ(ThreadPool(0).size(), 1);
  EXPECT_EQ(ThreadPool(-3).size(), 1);
}

TEST(ThreadPoolTest, ZeroCountIsANoop) {
  ThreadPool pool(4);
  pool.run_indexed(0, [](i64) { FAIL() << "must not be invoked"; });
}

TEST(ThreadPoolTest, ExceptionPropagatesAndPoolStaysUsable) {
  ThreadPool pool(4);
  std::atomic<i64> completed{0};
  EXPECT_THROW(pool.run_indexed(64,
                                [&](i64 i) {
                                  if (i == 17) {
                                    throw std::runtime_error("boom");
                                  }
                                  ++completed;
                                }),
               std::runtime_error);
  EXPECT_EQ(completed.load(), 63) << "the batch still drains fully";
  // The pool must accept a fresh batch after a failed one.
  std::atomic<i64> second{0};
  pool.run_indexed(32, [&](i64) { ++second; });
  EXPECT_EQ(second.load(), 32);
}

TEST(ThreadPoolTest, ReusableAcrossManyBatches) {
  ThreadPool pool(3);
  std::atomic<i64> total{0};
  for (int batch = 0; batch < 50; ++batch) {
    pool.run_indexed(10, [&](i64 i) { total += i; });
  }
  EXPECT_EQ(total.load(), 50 * 45);
}

// --- Fabric determinism -----------------------------------------------------

physics::FlowProblem make_problem(i32 nx, i32 ny, i32 nz, u64 seed) {
  physics::ProblemSpec spec;
  spec.extents = Extents3{nx, ny, nz};
  spec.spacing = mesh::Spacing3{25.0, 25.0, 4.0};
  spec.geomodel = physics::GeomodelKind::Lognormal;
  spec.seed = seed;
  return physics::FlowProblem(spec);
}

core::DataflowResult run_with_threads(const physics::FlowProblem& problem,
                                      i32 threads, i32 iterations) {
  core::DataflowOptions options;
  options.iterations = iterations;
  options.execution.threads = threads;
  return core::run_dataflow_tpfa(problem, options);
}

void expect_bitwise_equal(const Array3<f32>& a, const Array3<f32>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (i64 i = 0; i < a.size(); ++i) {
    const u32 wa = wse::pack_f32(a[i]);
    const u32 wb = wse::pack_f32(b[i]);
    ASSERT_EQ(wa, wb) << "fields differ at flat index " << i;
  }
}

void expect_counters_equal(const wse::PeCounters& a, const wse::PeCounters& b) {
  EXPECT_EQ(a.fmul, b.fmul);
  EXPECT_EQ(a.fsub, b.fsub);
  EXPECT_EQ(a.fneg, b.fneg);
  EXPECT_EQ(a.fadd, b.fadd);
  EXPECT_EQ(a.fma, b.fma);
  EXPECT_EQ(a.fmov, b.fmov);
  EXPECT_EQ(a.scalar_misc, b.scalar_misc);
  EXPECT_EQ(a.mem_loads, b.mem_loads);
  EXPECT_EQ(a.mem_stores, b.mem_stores);
  EXPECT_EQ(a.wavelets_sent, b.wavelets_sent);
  EXPECT_EQ(a.wavelets_received, b.wavelets_received);
  EXPECT_EQ(a.controls_sent, b.controls_sent);
  EXPECT_EQ(a.tasks_executed, b.tasks_executed);
}

TEST(ParallelFabricTest, TpfaRunIsBitIdenticalAcrossThreadCounts) {
  // A randomized 16x16 TPFA program: the acceptance bar for the tiled
  // engine is bit-for-bit equality with the serial run, not tolerance.
  const physics::FlowProblem problem = make_problem(16, 16, 8, 20230817);
  const core::DataflowResult serial = run_with_threads(problem, 1, 3);
  ASSERT_TRUE(serial.ok()) << serial.errors[0];

  for (const i32 threads : {2, 4}) {
    const core::DataflowResult parallel =
        run_with_threads(problem, threads, 3);
    ASSERT_TRUE(parallel.ok()) << parallel.errors[0];
    expect_bitwise_equal(serial.residual, parallel.residual);
    expect_bitwise_equal(serial.pressure, parallel.pressure);
    expect_counters_equal(serial.counters, parallel.counters);
    EXPECT_EQ(serial.color_traffic, parallel.color_traffic);
    EXPECT_EQ(serial.events_processed, parallel.events_processed)
        << "threads=" << threads;
    EXPECT_DOUBLE_EQ(serial.makespan_cycles, parallel.makespan_cycles);
    EXPECT_EQ(serial.max_pe_memory, parallel.max_pe_memory);
  }
}

TEST(ParallelFabricTest, OversubscribedThreadsStillMatch) {
  // More threads than rows: the engine clamps to one tile per row.
  const physics::FlowProblem problem = make_problem(6, 4, 5, 7);
  const core::DataflowResult serial = run_with_threads(problem, 1, 2);
  const core::DataflowResult wide = run_with_threads(problem, 64, 2);
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(wide.ok());
  expect_bitwise_equal(serial.residual, wide.residual);
  expect_counters_equal(serial.counters, wide.counters);
  EXPECT_EQ(serial.events_processed, wide.events_processed);
}

// A program that provokes run errors on a deterministic subset of PEs:
// every PE on a diagonal sends one block on a color its router never
// configured, which the engine reports as an unroutable-wavelet error.
class FaultyProgram : public wse::PeProgram {
 public:
  explicit FaultyProgram(Coord2 c) : c_(c) {}
  void configure_router(wse::Router&) override {}
  void on_start(wse::PeApi& api) override {
    if (c_.x == c_.y) {
      api.send(wse::Color{5}, std::vector<f32>{1.0f});
    }
    api.signal_done();
  }
  void on_data(wse::PeApi&, wse::Color, wse::Dir,
               std::span<const u32>) override {}

 private:
  Coord2 c_;
};

TEST(ParallelFabricTest, ErrorReportsAreIdenticalAcrossThreadCounts) {
  auto run_faulty = [](i32 threads) {
    wse::ExecutionOptions exec;
    exec.threads = threads;
    wse::Fabric fabric(16, 16, {}, wse::PeMemory::kDefaultBudget, exec);
    fabric.load([](Coord2 coord, Coord2) {
      return std::make_unique<FaultyProgram>(coord);
    });
    return fabric.run();
  };
  const wse::RunReport serial = run_faulty(1);
  ASSERT_FALSE(serial.ok());
  for (const i32 threads : {2, 4}) {
    const wse::RunReport parallel = run_faulty(threads);
    EXPECT_EQ(serial.errors, parallel.errors) << "threads=" << threads;
    EXPECT_EQ(serial.events_processed, parallel.events_processed);
    EXPECT_EQ(serial.pes_done, parallel.pes_done);
  }
}

// Every PE errors: provokes far more run errors than the 32-entry cap.
class NoisyProgram : public wse::PeProgram {
 public:
  void configure_router(wse::Router&) override {}
  void on_start(wse::PeApi& api) override {
    api.send(wse::Color{5}, std::vector<f32>{1.0f});
    api.signal_done();
  }
  void on_data(wse::PeApi&, wse::Color, wse::Dir,
               std::span<const u32>) override {}
};

TEST(ParallelFabricTest, ErrorOverflowIsSummarisedIdenticallyAcrossThreads) {
  auto run_noisy = [](i32 threads) {
    wse::ExecutionOptions exec;
    exec.threads = threads;
    wse::Fabric fabric(16, 16, {}, wse::PeMemory::kDefaultBudget, exec);
    fabric.load([](Coord2, Coord2) { return std::make_unique<NoisyProgram>(); });
    return fabric.run();
  };
  const wse::RunReport serial = run_noisy(1);
  // 256 errors: the first 32 verbatim plus one suppression summary.
  ASSERT_EQ(serial.errors.size(), 33u);
  EXPECT_NE(serial.errors.back().find("224 more errors suppressed"),
            std::string::npos)
      << serial.errors.back();
  const wse::RunReport parallel = run_noisy(4);
  EXPECT_EQ(serial.errors, parallel.errors);
}

TEST(ParallelFabricTest, RowParallelLoadInternsTheSameSwitchTables) {
  // From kParallelMinPes PEs up, Fabric::load configures rows on several
  // threads that intern switch tables into one shared pool concurrently
  // (the TSan build race-checks this). Pool ids may differ between the
  // loads; what every router decodes, and the run, may not.
  constexpr i32 kSide = 64;
  static_assert(i64{kSide} * kSide >= wse::kParallelMinPes);
  const physics::FlowProblem problem = make_problem(kSide, kSide, 4, 64);
  core::DataflowOptions serial_options;
  serial_options.iterations = 2;
  core::DataflowOptions parallel_options = serial_options;
  parallel_options.execution.threads = 4;
  const core::TpfaLoad serial = core::load_dataflow_tpfa(problem, serial_options);
  const core::TpfaLoad parallel =
      core::load_dataflow_tpfa(problem, parallel_options);
  ASSERT_EQ(parallel.harness->fabric().host_threads(), 4);

  const wse::Fabric& a = serial.harness->fabric();
  const wse::Fabric& b = parallel.harness->fabric();
  for (i32 y = 0; y < kSide; ++y) {
    for (i32 x = 0; x < kSide; ++x) {
      for (u8 c = 0; c < wse::Color::kMaxColors; ++c) {
        const wse::Color color{c};
        const wse::Router& ra = a.router(x, y);
        const wse::Router& rb = b.router(x, y);
        ASSERT_EQ(ra.config(color), rb.config(color))
            << "PE (" << x << ',' << y << ") color " << int{c};
        ASSERT_EQ(ra.current_position(color), rb.current_position(color));
        ASSERT_EQ(ra.configure_count(color), rb.configure_count(color));
      }
    }
  }

  const dataflow::RunInfo serial_run = serial.harness->run();
  const dataflow::RunInfo parallel_run = parallel.harness->run();
  ASSERT_TRUE(serial_run.ok()) << serial_run.errors[0];
  ASSERT_TRUE(parallel_run.ok()) << parallel_run.errors[0];
  const core::TpfaFields serial_fields = core::gather_tpfa(serial);
  const core::TpfaFields parallel_fields = core::gather_tpfa(parallel);
  expect_bitwise_equal(serial_fields.residual, parallel_fields.residual);
  expect_bitwise_equal(serial_fields.pressure, parallel_fields.pressure);
  expect_counters_equal(serial_run.counters, parallel_run.counters);
  EXPECT_EQ(serial_run.color_traffic, parallel_run.color_traffic);
  EXPECT_EQ(serial_run.events_processed, parallel_run.events_processed);
  EXPECT_EQ(serial_run.makespan_cycles, parallel_run.makespan_cycles);
}

// Every PE sends a block east on color 0 and a longer one north on color
// 1, each sized by its coordinates; blocks leaving the fabric are absorbed
// at the edge. The traffic crosses row-strip tiles, and a second run of
// one load repeats it exactly.
class NeighborSendProgram : public wse::PeProgram {
 public:
  explicit NeighborSendProgram(Coord2 c) : c_(c) {}
  void configure_router(wse::Router& router) override {
    using wse::Dir;
    using wse::RouteRule;
    router.configure(wse::Color{0},
                     wse::ColorConfig({wse::position(
                         {RouteRule{Dir::Ramp, {Dir::East}},
                          RouteRule{Dir::West, {Dir::Ramp}}})}));
    router.configure(wse::Color{1},
                     wse::ColorConfig({wse::position(
                         {RouteRule{Dir::Ramp, {Dir::North}},
                          RouteRule{Dir::South, {Dir::Ramp}}})}));
  }
  void on_start(wse::PeApi& api) override {
    api.send(wse::Color{0},
             std::vector<f32>(static_cast<usize>(1 + c_.x), 1.0f));
    api.send(wse::Color{1},
             std::vector<f32>(static_cast<usize>(2 + c_.x + c_.y), 2.0f));
    api.signal_done();
  }
  void on_data(wse::PeApi&, wse::Color, wse::Dir,
               std::span<const u32>) override {}

 private:
  Coord2 c_;
};

TEST(ParallelFabricTest, ColorTrafficIsIdenticalAcrossThreads) {
  // Per-color traffic is counted by each engine tile and summed into the
  // run's record when the run finishes: every thread count must give the
  // serial totals.
  std::array<u64, wse::Color::kMaxColors> serial{};
  for (const i32 threads : {1, 2, 4}) {
    wse::ExecutionOptions exec;
    exec.threads = threads;
    wse::Fabric fabric(8, 8, {}, wse::PeMemory::kDefaultBudget, exec);
    fabric.load([](Coord2 coord, Coord2) {
      return std::make_unique<NeighborSendProgram>(coord);
    });
    const wse::RunReport report = fabric.run();
    ASSERT_TRUE(report.ok()) << "threads=" << threads;
    if (threads == 1) {
      serial = report.color_traffic;
      // Color 0: 8 rows of blocks of 1..8 words, each counted on the
      // sender's East link and, but for the last column, on the
      // receiver's Ramp.
      EXPECT_EQ(serial[0], 8u * (36u + 28u));
      EXPECT_GT(serial[1], 0u);
    } else {
      EXPECT_EQ(report.color_traffic, serial) << "threads=" << threads;
    }
  }
}

TEST(ParallelFabricTest, TraceSequenceIsIdenticalAcrossThreadCounts) {
  auto trace_run = [](i32 threads) {
    const physics::FlowProblem problem = make_problem(8, 8, 4, 99);
    wse::ExecutionOptions exec;
    exec.threads = threads;
    // run_dataflow_tpfa owns its fabric (no tracer hook), so build the
    // same program load directly.
    wse::Fabric fabric(8, 8, {}, wse::PeMemory::kDefaultBudget, exec);
    wse::TraceRecorder recorder(1 << 20);
    fabric.set_tracer(recorder.callback());
    core::TpfaKernelOptions kernel;
    kernel.iterations = 2;
    fabric.load([&](Coord2 coord, Coord2 size) {
      return std::make_unique<core::TpfaPeProgram>(
          coord, size, problem.extents(), kernel, problem.fluid(),
          core::extract_column(problem, coord.x, coord.y));
    });
    const wse::RunReport report = fabric.run();
    EXPECT_TRUE(report.ok());
    return recorder;
  };
  const wse::TraceRecorder serial = trace_run(1);
  const wse::TraceRecorder parallel = trace_run(4);
  ASSERT_EQ(serial.dropped(), 0u);
  ASSERT_EQ(parallel.dropped(), 0u);
  const std::vector<wse::TraceEvent> serial_events = serial.events();
  const std::vector<wse::TraceEvent> parallel_events = parallel.events();
  ASSERT_EQ(serial_events.size(), parallel_events.size());
  for (usize i = 0; i < serial_events.size(); ++i) {
    const wse::TraceEvent& a = serial_events[i];
    const wse::TraceEvent& b = parallel_events[i];
    ASSERT_EQ(a.kind, b.kind) << "trace record " << i;
    ASSERT_EQ(a.time, b.time) << "trace record " << i;
    ASSERT_EQ(a.x, b.x) << "trace record " << i;
    ASSERT_EQ(a.y, b.y) << "trace record " << i;
    ASSERT_EQ(a.color.id(), b.color.id()) << "trace record " << i;
    ASSERT_EQ(a.from, b.from) << "trace record " << i;
    ASSERT_EQ(a.payload_words, b.payload_words) << "trace record " << i;
  }
}

}  // namespace
}  // namespace fvf
