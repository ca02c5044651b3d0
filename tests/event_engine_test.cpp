// Tests of the event-engine execution semantics added with the slab-pool
// engine: thread-count-identical budget exhaustion (checkpoint-cut
// enforcement), graceful router input-buffer overflow with a configurable
// depth, and wafer-scale smoke: construct-and-step at 200x200, and a
// full TPFA run on the paper's 750x994 fabric (gated).
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "core/launcher.hpp"
#include "core/tpfa_program.hpp"
#include "physics/problem.hpp"
#include "wse/fabric.hpp"

namespace fvf {
namespace {

using wse::Color;
using wse::Dir;

// --- budget exhaustion ------------------------------------------------------

constexpr Color kUp{1};
constexpr Color kDown{2};

// PEs ping-pong a block with their vertical partner forever: PE (x, y)
// with odd y pairs with (x, y+1), so on an 8-row fabric every pair
// straddles a tile boundary at --threads 2 and 4. The run can only end
// by exhausting the event budget — the report must not depend on how the
// rows were tiled.
class PingPongProgram : public wse::PeProgram {
 public:
  explicit PingPongProgram(Coord2 c, Coord2 size) : c_(c), size_(size) {}

  void configure_router(wse::Router& router) override {
    router.configure(kUp, wse::ColorConfig({wse::position(
                              {wse::RouteRule{Dir::Ramp, {Dir::North}},
                               wse::RouteRule{Dir::South, {Dir::Ramp}}})}));
    router.configure(kDown, wse::ColorConfig({wse::position(
                                {wse::RouteRule{Dir::Ramp, {Dir::South}},
                                 wse::RouteRule{Dir::North, {Dir::Ramp}}})}));
  }

  void on_start(wse::PeApi& api) override {
    if (c_.y % 2 == 1 && c_.y + 1 < size_.y) {
      api.send(kUp, std::vector<f32>{static_cast<f32>(c_.x)});
    }
  }

  void on_data(wse::PeApi& api, Color color, Dir,
               std::span<const u32> payload) override {
    const f32 value = wse::unpack_f32(payload[0]);
    api.send(color == kUp ? kDown : kUp, std::vector<f32>{value + 1.0f});
  }

 private:
  Coord2 c_;
  Coord2 size_;
};

wse::RunReport run_ping_pong(i32 threads, u64 budget) {
  wse::ExecutionOptions exec;
  exec.threads = threads;
  wse::Fabric fabric(8, 8, {}, wse::PeMemory::kDefaultBudget, exec);
  fabric.load([](Coord2 coord, Coord2 size) {
    return std::make_unique<PingPongProgram>(coord, size);
  });
  return fabric.run(budget);
}

TEST(EventBudgetTest, ExhaustionReportIsByteIdenticalAcrossThreadCounts) {
  // Budgets straddling a few checkpoint cuts, including "awkward" values
  // that land mid-window: the checkpoint-cut semantics must stop every
  // tiling at the same simulated-time prefix.
  for (const u64 budget : {1000u, 1001u, 4096u, 10000u}) {
    const wse::RunReport serial = run_ping_pong(1, budget);
    ASSERT_FALSE(serial.ok()) << "budget " << budget;
    ASSERT_FALSE(serial.errors.empty());
    EXPECT_NE(serial.errors.front().find("event budget exhausted"),
              std::string::npos)
        << serial.errors.front();
    for (const i32 threads : {2, 4}) {
      const wse::RunReport parallel = run_ping_pong(threads, budget);
      EXPECT_EQ(serial.errors, parallel.errors)
          << "budget " << budget << " threads " << threads;
      EXPECT_EQ(serial.events_processed, parallel.events_processed)
          << "budget " << budget << " threads " << threads;
      EXPECT_EQ(serial.pes_done, parallel.pes_done);
      EXPECT_DOUBLE_EQ(serial.makespan_cycles, parallel.makespan_cycles);
    }
  }
}

TEST(EventBudgetTest, CompletedRunsAreNeverFlagged) {
  // A run that finishes at or under the budget must not report
  // exhaustion, at any thread count (the old engine's serial path
  // stopped hard *at* the budget even when the queue was about to
  // drain).
  const physics::FlowProblem problem = physics::make_benchmark_problem(
      Extents3{6, 6, 4}, 11);
  core::DataflowOptions options;
  options.iterations = 1;
  const core::DataflowResult full = core::run_dataflow_tpfa(problem, options);
  ASSERT_TRUE(full.ok());
  EXPECT_GT(full.events_processed, 0u);
}

// --- router input-buffer overflow -------------------------------------------

constexpr Color kParked{3};

// (x, 0) floods its north neighbor on a color whose switch at the
// receiver never accepts input from the South: every block parks in the
// receiver's input buffer, and blocks past the configured depth must be
// dropped with a recorded error — not a process abort.
class FloodProgram : public wse::PeProgram {
 public:
  FloodProgram(Coord2 c, u32 blocks) : c_(c), blocks_(blocks) {}

  void configure_router(wse::Router& router) override {
    // Senders route Ramp->North; the receiving router only has a
    // Ramp->North rule too, so arrivals from the South find no rule for
    // their input (backpressure) while the color stays configured.
    router.configure(kParked, wse::ColorConfig({wse::position(
                                  Dir::Ramp, {Dir::North})}));
  }

  void on_start(wse::PeApi& api) override {
    if (c_.y == 0) {
      for (u32 i = 0; i < blocks_; ++i) {
        api.send(kParked, std::vector<f32>{static_cast<f32>(i)});
      }
    }
    api.signal_done();
  }

  void on_data(wse::PeApi&, Color, Dir, std::span<const u32>) override {}

 private:
  Coord2 c_;
  u32 blocks_;
};

wse::RunReport run_flood(i32 threads, u32 blocks, u32 depth) {
  wse::ExecutionOptions exec;
  exec.threads = threads;
  if (depth != 0) {
    exec.router_buffer_depth = depth;
  }
  wse::Fabric fabric(2, 4, {}, wse::PeMemory::kDefaultBudget, exec);
  fabric.load([blocks](Coord2 coord, Coord2) {
    return std::make_unique<FloodProgram>(coord, blocks);
  });
  return fabric.run();
}

TEST(RouterOverflowTest, OverflowIsARecordedErrorNotAnAbort) {
  // 70 blocks against the default depth of 64: 6 drops per sender
  // column, each a recorded run error mentioning the overflow.
  const wse::RunReport report = run_flood(1, 70, 0);
  ASSERT_FALSE(report.ok());
  u64 overflows = 0;
  for (const std::string& error : report.errors) {
    if (error.find("router input buffer overflow") != std::string::npos) {
      ++overflows;
    }
  }
  EXPECT_EQ(overflows, 2u * 6u);  // two sender columns on the 2-wide fabric
  EXPECT_NE(report.errors[0].find("64 blocks waiting"), std::string::npos)
      << report.errors[0];
}

TEST(RouterOverflowTest, DepthIsConfigurable) {
  // Widening the buffer beyond the flood absorbs it entirely...
  const wse::RunReport wide = run_flood(1, 70, 128);
  for (const std::string& error : wide.errors) {
    EXPECT_EQ(error.find("router input buffer overflow"), std::string::npos)
        << error;
  }
  // ...and narrowing it drops all but `depth` blocks.
  const wse::RunReport narrow = run_flood(1, 20, 4);
  u64 overflows = 0;
  for (const std::string& error : narrow.errors) {
    if (error.find("router input buffer overflow") != std::string::npos) {
      ++overflows;
    }
  }
  EXPECT_EQ(overflows, 2u * 16u);
}

TEST(RouterOverflowTest, OverflowReportIsIdenticalAcrossThreadCounts) {
  const wse::RunReport serial = run_flood(1, 70, 0);
  for (const i32 threads : {2, 4}) {
    const wse::RunReport parallel = run_flood(threads, 70, 0);
    EXPECT_EQ(serial.errors, parallel.errors) << "threads " << threads;
    EXPECT_EQ(serial.events_processed, parallel.events_processed);
  }
}

// --- wafer-scale smoke ------------------------------------------------------

u64 run_wafer_smoke(i32 nx, i32 ny, u64 budget) {
  const physics::FlowProblem problem = physics::make_benchmark_problem(
      Extents3{nx, ny, 4}, 2023);
  core::TpfaKernelOptions kernel;
  kernel.iterations = 1;
  wse::ExecutionOptions exec;
  exec.threads = 1;
  wse::Fabric fabric(nx, ny, {}, wse::PeMemory::kDefaultBudget, exec);
  fabric.load([&](Coord2 coord, Coord2 size) {
    return std::make_unique<core::TpfaPeProgram>(
        coord, size, problem.extents(), kernel, problem.fluid(),
        core::extract_column(problem, coord.x, coord.y));
  });
  const wse::RunReport report = fabric.run(budget);
  // A budget stop is expected at these scales; what the smoke test
  // guards is that construction + stepping neither aborts nor exhausts
  // memory.
  return report.events_processed;
}

TEST(WaferScaleTest, MidScaleFabricConstructsAndSteps) {
  // 200x200 = 40k PEs: always-on smoke at a size CI can afford.
  EXPECT_GT(run_wafer_smoke(200, 200, 500'000), 100'000u);
}

/// Makespan of a 2-iteration, 12-deep TPFA run on an nx x ny fabric
/// through the full launch path (strict lint, load, run to completion,
/// gather) on 4 engine threads.
f64 tpfa_makespan(i32 nx, i32 ny) {
  const physics::FlowProblem problem =
      physics::make_benchmark_problem(Extents3{nx, ny, 12}, 2023);
  core::DataflowOptions options;
  options.iterations = 2;
  options.execution.threads = 4;
  const core::DataflowResult result = core::run_dataflow_tpfa(problem, options);
  EXPECT_TRUE(result.ok()) << nx << 'x' << ny;
  return result.makespan_cycles;
}

TEST(WaferScaleTest, PaperScaleFabricConstructsAndSteps) {
  // The paper's 750x994 fabric (~745k PEs) run to completion: ~23 s of
  // wall clock and 3.3 GB, so gated behind FVF_WAFER_SMOKE=1 (the CI
  // wafer-smoke leg sets it). A PE's work does not depend on the
  // fabric's size, so the wafer's makespan must equal a 10x10 run's bit
  // for bit (the weak scaling of Table 2).
  if (std::getenv("FVF_WAFER_SMOKE") == nullptr) {
    GTEST_SKIP() << "set FVF_WAFER_SMOKE=1 to run the 750x994 smoke";
  }
  const f64 small = tpfa_makespan(10, 10);
  EXPECT_GT(small, 0.0);
  EXPECT_EQ(tpfa_makespan(750, 994), small);
}

}  // namespace
}  // namespace fvf
