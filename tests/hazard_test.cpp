// Dynamic memory-hazard detector (--hazard-check) tests: the two flagged
// classes (shifted dest/source overlap inside one DSD instruction,
// fabric receive into a live-marked buffer), the deliberate exemptions
// (exact aliasing, released buffers), deterministic reporting across
// thread counts including the recording cap, and pure observation — the
// detector is off by default and never changes results.
#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/transport_program.hpp"
#include "physics/problem.hpp"
#include "spec/heat.hpp"
#include "wse/fabric.hpp"
#include "wse/hazard.hpp"
#include "wse/program.hpp"
#include "wse/route.hpp"
#include "wse/router.hpp"

namespace fvf::wse {
namespace {

ExecutionOptions checked(i32 threads = 1) {
  ExecutionOptions exec;
  exec.threads = threads;
  exec.hazard_check = true;
  return exec;
}

/// Runs a single-program fabric to quiescence and returns the report.
RunReport run_fabric(i32 width, i32 height, ExecutionOptions exec,
                     const ProgramFactory& factory) {
  Fabric fabric(width, height, FabricTimings{}, PeMemory::kDefaultBudget,
                exec);
  fabric.load(factory);
  return fabric.run();
}

// --- range/overlap predicates ------------------------------------------------

TEST(HazardPredicateTest, PartialOverlapVsExactAlias) {
  std::vector<f32> buf(8, 0.0f);
  const Dsd whole = Dsd::of(buf);
  EXPECT_FALSE(partial_overlap(whole, whole));  // exact alias: well defined
  EXPECT_TRUE(partial_overlap(whole.window(0, 7), whole.window(1, 7)));
  EXPECT_FALSE(partial_overlap(whole.window(0, 4), whole.window(4, 4)));
  // Same base but different length is *not* the exact-alias case.
  EXPECT_TRUE(partial_overlap(whole, whole.window(0, 4)));
  // Empty or null views never overlap anything.
  EXPECT_FALSE(partial_overlap(Dsd{}, whole));
  EXPECT_FALSE(partial_overlap(whole.window(0, 0), whole));
}

// --- shifted-overlap detection ----------------------------------------------

/// One shifted-overlap fadds on start: the destination window and the
/// second source window overlap by all but one element.
class ShiftedOverlapProgram final : public PeProgram {
 public:
  void configure_router(Router&) override {}
  void on_start(PeApi& api) override {
    const Dsd v = Dsd::of(values_);
    api.fadds(v.window(0, 7), v.window(0, 7), v.window(1, 7));
    api.signal_done();
  }
  void on_data(PeApi&, Color, Dir, std::span<const u32>) override {}

 private:
  std::vector<f32> values_ = std::vector<f32>(8, 1.0f);
};

/// The in-place patterns the shipped kernels rely on: exact aliasing and
/// disjoint windows of one buffer.
class ExactAliasProgram final : public PeProgram {
 public:
  void configure_router(Router&) override {}
  void on_start(PeApi& api) override {
    const Dsd v = Dsd::of(values_);
    api.fadds(v, v, v);
    api.fmuls(v.window(0, 4), v.window(4, 4), 2.0f);
    api.signal_done();
  }
  void on_data(PeApi&, Color, Dir, std::span<const u32>) override {}

 private:
  std::vector<f32> values_ = std::vector<f32>(8, 1.0f);
};

TEST(HazardDetectorTest, ShiftedOverlapIsFlaggedWithPeAndOperand) {
  const RunReport report = run_fabric(1, 1, checked(), [](Coord2, Coord2) {
    return std::make_unique<ShiftedOverlapProgram>();
  });
  EXPECT_TRUE(report.ok());  // hazards are diagnostics, not run failures
  ASSERT_EQ(report.hazards_total, 1u);
  ASSERT_EQ(report.hazards.size(), 1u);
  const std::string& message = report.hazards.front();
  EXPECT_NE(message.find("memory hazard at PE(0,0)"), std::string::npos)
      << message;
  EXPECT_NE(message.find("fadds source operand 2"), std::string::npos)
      << message;
  EXPECT_NE(message.find("partially overlaps the destination"),
            std::string::npos)
      << message;
}

TEST(HazardDetectorTest, ExactAliasAndDisjointWindowsAreExempt) {
  const RunReport report = run_fabric(1, 1, checked(), [](Coord2, Coord2) {
    return std::make_unique<ExactAliasProgram>();
  });
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.hazards_total, 0u);
  EXPECT_TRUE(report.hazards.empty());
}

TEST(HazardDetectorTest, OffByDefaultRecordsNothing) {
  ExecutionOptions exec;  // hazard_check defaults to false
  const RunReport report = run_fabric(1, 1, exec, [](Coord2, Coord2) {
    return std::make_unique<ShiftedOverlapProgram>();
  });
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.hazards_total, 0u);
  EXPECT_TRUE(report.hazards.empty());
}

// --- receive-into-live-buffer detection -------------------------------------

constexpr Color kHaloColor{0};

/// Sends two one-element blocks east on start.
class TwoBlockSender final : public PeProgram {
 public:
  void configure_router(Router& router) override {
    router.configure(kHaloColor,
                     ColorConfig({position(Dir::Ramp, {Dir::East})}));
  }
  void on_start(PeApi& api) override {
    const f32 word = 1.0f;
    api.send(kHaloColor, std::span<const f32>(&word, 1));
    api.send(kHaloColor, std::span<const f32>(&word, 1));
    api.signal_done();
  }
  void on_data(PeApi&, Color, Dir, std::span<const u32>) override {}
};

/// Receives both blocks into the same buffer. After the first receive it
/// marks the buffer live (a handler keeping the view across tasks, as
/// HaloExchange does for stashed blocks); if `release` it gives the view
/// back before the second block lands.
class LiveBufferReceiver final : public PeProgram {
 public:
  explicit LiveBufferReceiver(bool release) : release_(release) {}

  void configure_router(Router& router) override {
    router.configure(kHaloColor,
                     ColorConfig({position(Dir::West, {Dir::Ramp})}));
  }
  void on_start(PeApi&) override {}
  void on_data(PeApi& api, Color, Dir, std::span<const u32> data) override {
    if (release_ && received_ == 1) {
      api.hazard_release(Dsd::of(buffer_));
    }
    api.fmovs(Dsd::of(buffer_), FabricDsd::of(data));
    if (received_ == 0) {
      api.hazard_mark_live(Dsd::of(buffer_), "stashed halo view");
    }
    if (++received_ == 2) {
      api.signal_done();
    }
  }

 private:
  bool release_;
  i32 received_ = 0;
  std::vector<f32> buffer_ = std::vector<f32>(1, 0.0f);
};

RunReport run_receive_pair(bool release) {
  return run_fabric(2, 1, checked(),
                    [release](Coord2 coord, Coord2) -> std::unique_ptr<PeProgram> {
                      if (coord.x == 0) {
                        return std::make_unique<TwoBlockSender>();
                      }
                      return std::make_unique<LiveBufferReceiver>(release);
                    });
}

TEST(HazardDetectorTest, ReceiveIntoLiveBufferIsFlagged) {
  const RunReport report = run_receive_pair(/*release=*/false);
  EXPECT_TRUE(report.ok());
  ASSERT_EQ(report.hazards_total, 1u);
  const std::string& message = report.hazards.front();
  EXPECT_NE(message.find("memory hazard at PE(1,0)"), std::string::npos)
      << message;
  EXPECT_NE(message.find("overwrites live buffer 'stashed halo view'"),
            std::string::npos)
      << message;
}

TEST(HazardDetectorTest, ReleasedBufferIsNotFlagged) {
  const RunReport report = run_receive_pair(/*release=*/true);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.hazards_total, 0u);
}

// --- determinism and the recording cap --------------------------------------

TEST(HazardDetectorTest, ReportsIdenticallyAcrossThreadCountsPastTheCap) {
  // 64 PEs each flag one hazard against the 32-entry recording cap: the
  // total, the suppressed tail, and the recorded messages (in the
  // deterministic event order, plus the summary marker) must be
  // identical for the serial and tiled engines.
  std::vector<std::string> baseline;
  for (const i32 threads : {1, 2, 4}) {
    const RunReport report =
        run_fabric(8, 8, checked(threads), [](Coord2, Coord2) {
          return std::make_unique<ShiftedOverlapProgram>();
        });
    EXPECT_TRUE(report.ok());
    EXPECT_EQ(report.hazards_total, 64u);
    EXPECT_EQ(report.hazards_suppressed, 64u - 32u);
    // 32 recorded messages plus the "... more hazards suppressed" marker.
    ASSERT_EQ(report.hazards.size(), 33u);
    if (threads == 1) {
      baseline = report.hazards;
    } else {
      EXPECT_EQ(report.hazards, baseline) << "threads=" << threads;
    }
  }
}

// --- shipped kernels under the detector -------------------------------------

TEST(HazardDetectorTest, TransportKernelRunsCleanAndBitIdentical) {
  // The transport program reads halo views across tasks (the very
  // pattern the receive check guards), so it is the sharpest clean-bill
  // fixture; and because the detector is pure observation, the checked
  // run's saturations must be bit-identical to the unchecked run's.
  physics::ProblemSpec spec;
  spec.extents = Extents3{4, 3, 2};
  spec.spacing = mesh::Spacing3{25.0, 25.0, 4.0};
  spec.geomodel = physics::GeomodelKind::Lognormal;
  spec.seed = 7;
  const physics::FlowProblem problem(spec);
  const Extents3 ext = problem.extents();
  Array3<f32> saturation(ext);
  saturation.fill(0.2f);
  Array3<f32> well_rate(ext);
  well_rate.fill(0.0f);
  well_rate(0, 0, 0) = 1e-4f;

  auto run = [&](bool hazard_check) {
    core::TransportKernelOptions kernel;
    dataflow::HarnessOptions options;
    kernel.window_seconds = 600.0;
    kernel.pore_volume = 1.0f;
    options.execution.hazard_check = hazard_check;
    return spec::run(
        core::transport_launch(
            problem, saturation, problem.initial_pressure(), well_rate, kernel),
        options, core::gather_transport);
  };
  const core::DataflowTransportResult unchecked = run(false);
  const core::DataflowTransportResult checked_run = run(true);
  ASSERT_TRUE(unchecked.ok());
  ASSERT_TRUE(checked_run.ok());
  EXPECT_EQ(unchecked.hazards_total, 0u);
  EXPECT_EQ(checked_run.hazards_total, 0u)
      << (checked_run.hazards.empty() ? std::string()
                                      : checked_run.hazards.front());
  EXPECT_EQ(checked_run.substeps, unchecked.substeps);
  EXPECT_EQ(checked_run.device_seconds, unchecked.device_seconds);
  for (i64 i = 0; i < ext.cell_count(); ++i) {
    ASSERT_EQ(checked_run.saturation[i], unchecked.saturation[i])
        << "cell " << i;
  }

  // Heat reads the engine-held views at round completion too, with no
  // reduction barrier between its rounds.
  const Array3<f32> initial = spec::heat_initial_field(ext, 7);
  auto run_heat = [&](bool hazard_check) {
    spec::HeatKernelOptions kernel;
    kernel.steps = 6;
    dataflow::HarnessOptions options;
    options.execution.hazard_check = hazard_check;
    return spec::run(spec::heat_launch(initial, kernel), options,
                     spec::gather_heat);
  };
  const spec::DataflowHeatResult heat_unchecked = run_heat(false);
  const spec::DataflowHeatResult heat_checked = run_heat(true);
  ASSERT_TRUE(heat_unchecked.ok());
  ASSERT_TRUE(heat_checked.ok());
  EXPECT_EQ(heat_checked.hazards_total, 0u)
      << (heat_checked.hazards.empty() ? std::string()
                                       : heat_checked.hazards.front());
  EXPECT_EQ(heat_checked.steps_completed, 6);
  EXPECT_EQ(heat_checked.device_seconds, heat_unchecked.device_seconds);
  for (i64 i = 0; i < ext.cell_count(); ++i) {
    ASSERT_EQ(heat_checked.field[i], heat_unchecked.field[i]) << "cell " << i;
  }
}

}  // namespace
}  // namespace fvf::wse
