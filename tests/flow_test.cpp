// fvf::lint flow-analysis suite: the buffer-bound differential (the
// analyzer's computed minimal depth N must be *exact* — the same program
// drops blocks at router_buffer_depth N-1 and runs clean at N, bit-
// identically across host thread counts), the diagnostic surface
// (minimal sufficient depth carried in Diagnostic::bound), and strict
// flow lint over the shipped reliability configuration.
#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <vector>

#include "core/launcher.hpp"
#include "lint/flow.hpp"
#include "lint/lint.hpp"
#include "spec/heat.hpp"
#include "wse/fabric.hpp"
#include "wse/program.hpp"
#include "wse/route.hpp"
#include "wse/router.hpp"

namespace fvf::lint {
namespace {

using wse::Color;
using wse::ColorConfig;
using wse::Dir;
using wse::position;
using wse::RouteRule;

constexpr Color kC{0};
/// Blocks the sender declares (and actually sends): the analyzer's bound.
constexpr u32 kBlocks = 8;
/// Cycle at which the drain control fires — far past the last arrival,
/// so the worst-case occupancy the analyzer predicts is actually reached.
constexpr f64 kDrainCycle = 10000.0;

/// (0,0): injects kBlocks single-word blocks on kC toward the east at
/// cycle zero, and declares exactly that in-flight bound.
class BurstSender final : public wse::PeProgram {
 public:
  void configure_router(wse::Router& router) override {
    router.configure(kC, ColorConfig({position(Dir::Ramp, {Dir::East})}));
  }
  void send_declarations(
      std::vector<wse::SendDeclaration>& sends) const override {
    sends.push_back({kC, false, kBlocks});
  }
  void on_start(wse::PeApi& api) override {
    const f32 word = 1.0f;
    for (u32 i = 0; i < kBlocks; ++i) {
      api.send(kC, std::span<const f32>(&word, 1));
    }
    api.signal_done();
  }
  void on_data(wse::PeApi&, Color, Dir, std::span<const u32>) override {}
};

/// (1,0): position 0 ignores the West input, so the burst parks there;
/// the drain control (arriving on East, which *both* positions accept —
/// the control itself is never parkable) advances the switch to position
/// 1, which delivers the parked blocks to the Ramp.
class ParkingReceiver final : public wse::PeProgram {
 public:
  void configure_router(wse::Router& router) override {
    router.configure(
        kC, ColorConfig({position(Dir::East, {Dir::Ramp}),
                         position({RouteRule{Dir::West, {Dir::Ramp}},
                                   RouteRule{Dir::East, {Dir::Ramp}}})}));
  }
  void on_start(wse::PeApi&) override {}
  // The parked burst delivers only after the drain control advances the
  // switch, so the first delivery marks this PE's work as done (the
  // overflow run drops one block, so an exact count would hang there).
  void on_data(wse::PeApi& api, Color, Dir, std::span<const u32>) override {
    api.signal_done();
  }
};

/// (2,0): arms a timer and releases the parked burst with one control
/// wavelet sent west.
class DrainController final : public wse::PeProgram {
 public:
  void configure_router(wse::Router& router) override {
    router.configure(kC, ColorConfig({position(Dir::Ramp, {Dir::West})}));
  }
  void send_declarations(
      std::vector<wse::SendDeclaration>& sends) const override {
    sends.push_back({kC, true});
  }
  void on_start(wse::PeApi& api) override {
    api.schedule_timer(kDrainCycle, 0);
  }
  void on_timer(wse::PeApi& api, u32) override {
    api.send_control(kC);
    api.signal_done();
  }
  void on_data(wse::PeApi&, Color, Dir, std::span<const u32>) override {}
};

std::unique_ptr<wse::PeProgram> make_program(Coord2 coord, Coord2) {
  if (coord.x == 0) {
    return std::make_unique<BurstSender>();
  }
  if (coord.x == 1) {
    return std::make_unique<ParkingReceiver>();
  }
  return std::make_unique<DrainController>();
}

[[nodiscard]] wse::RunReport run_fixture(u32 depth, i32 threads) {
  wse::ExecutionOptions exec;
  exec.router_buffer_depth = depth;
  exec.threads = threads;
  wse::Fabric fabric(3, 1, {}, wse::PeMemory::kDefaultBudget, exec);
  fabric.load(make_program);
  return fabric.run();
}

// --- the analyzer's bound is exact ------------------------------------------

TEST(FlowAnalysisTest, StaticBoundMatchesDeclaredBurst) {
  wse::Fabric fabric(3, 1);
  fabric.load(make_program);
  const BufferAnalysis analysis = analyze_buffer_occupancy(fabric);
  EXPECT_EQ(analysis.minimal_depth, kBlocks);
  ASSERT_EQ(analysis.per_pe.size(), 1u);
  EXPECT_EQ(analysis.per_pe.front().pe, (Coord2{1, 0}));
  EXPECT_EQ(analysis.per_pe.front().blocks, kBlocks);
  // The burst parks on the West input; the drain control (East input,
  // accepted by every position) must not contribute.
  ASSERT_EQ(analysis.per_pe.front().contributions.size(), 1u);
  EXPECT_EQ(analysis.per_pe.front().contributions.front().input, Dir::West);
  EXPECT_EQ(analysis.per_pe.front().contributions.front().blocks, kBlocks);
}

TEST(FlowAnalysisTest, LintCarriesMinimalSufficientDepth) {
  wse::Fabric fabric(3, 1);
  fabric.load(make_program);

  Options options;
  options.router_buffer_depth = kBlocks - 1;
  const Report tight = run(fabric, options);
  ASSERT_EQ(tight.diagnostics.size(), 1u) << tight.describe();
  const Diagnostic& d = tight.diagnostics.front();
  EXPECT_EQ(d.check, Check::BufferOverflowPossible);
  EXPECT_EQ(d.severity, Severity::Error);
  EXPECT_EQ(d.pe, (Coord2{1, 0}));
  ASSERT_TRUE(d.bound.has_value());
  EXPECT_EQ(*d.bound, kBlocks);

  options.router_buffer_depth = kBlocks;
  const Report exact = run(fabric, options);
  EXPECT_TRUE(exact.clean()) << exact.describe();
}

// --- the differential: N-1 drops, N runs clean, at every thread count -------

TEST(FlowAnalysisTest, DifferentialOverflowAtBoundMinusOneCleanAtBound) {
  // The analyzer's bound, recomputed here rather than assumed, so the
  // differential stays honest if the fixture changes.
  wse::Fabric probe(3, 1);
  probe.load(make_program);
  const u64 bound = analyze_buffer_occupancy(probe).minimal_depth;
  ASSERT_EQ(bound, kBlocks);

  const wse::RunReport clean_ref = run_fixture(static_cast<u32>(bound), 1);
  EXPECT_EQ(clean_ref.errors_total, 0u)
      << (clean_ref.errors.empty() ? "" : clean_ref.errors.front());

  const wse::RunReport drop_ref =
      run_fixture(static_cast<u32>(bound) - 1, 1);
  EXPECT_GT(drop_ref.errors_total, 0u);
  ASSERT_FALSE(drop_ref.errors.empty());
  EXPECT_NE(drop_ref.errors.front().find("buffer"), std::string::npos)
      << drop_ref.errors.front();

  for (const i32 threads : {2, 4}) {
    const wse::RunReport clean = run_fixture(static_cast<u32>(bound),
                                             threads);
    EXPECT_EQ(clean.errors_total, clean_ref.errors_total)
        << "threads=" << threads;
    EXPECT_EQ(clean.makespan_cycles, clean_ref.makespan_cycles)
        << "threads=" << threads;
    EXPECT_EQ(clean.events_processed, clean_ref.events_processed)
        << "threads=" << threads;

    const wse::RunReport drop = run_fixture(static_cast<u32>(bound) - 1,
                                            threads);
    EXPECT_EQ(drop.errors_total, drop_ref.errors_total)
        << "threads=" << threads;
    EXPECT_EQ(drop.makespan_cycles, drop_ref.makespan_cycles)
        << "threads=" << threads;
    ASSERT_FALSE(drop.errors.empty());
    EXPECT_EQ(drop.errors.front(), drop_ref.errors.front())
        << "threads=" << threads;
  }
}

// --- shipped reliability configuration passes strict flow lint --------------

TEST(FlowAnalysisTest, HeatWithReliabilityLintsClean) {
  // The reliability binding adds the NACK colors and their declared
  // ordering (nack -> halo resend) — the wait-for analysis must see the
  // chain terminate at the watchdog timer, not report a cycle.
  dataflow::HarnessOptions options;
  options.reliability = true;
  const Array3<f32> field = spec::heat_initial_field(Extents3{4, 3, 2}, 7);
  const spec::Load<> load = spec::load(spec::heat_launch(field, {}), options);
  const Report report = load.harness->lint_report();
  EXPECT_TRUE(report.clean()) << report.describe();
}

}  // namespace
}  // namespace fvf::lint
