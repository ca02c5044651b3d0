// The fabric-free spec executor (spec::execute, the gpusim backend):
// the counters the kernels charge inside their StencilKernel hooks are
// the fabric's, to the unit, for every kernel of the table; the switch
// protocol's shapes match the fabric bit for bit; the host tree
// fold reproduces the fabric's all-reduce trees bit for bit; launches
// follow the charging hook sweeps; and kernels that disagree on what to
// do next fail loudly instead of running out of step. Both drivers keep
// the one hook contract: a round's completion sees exactly its blocks.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "api/api.hpp"
#include "common/assert.hpp"
#include "common/rng.hpp"
#include "core/launcher.hpp"
#include "dataflow/colors.hpp"
#include "spec/execute.hpp"
#include "spec/heat.hpp"
#include "wse/collectives.hpp"

namespace fvf {
namespace {

f64 summary_value(const api::FieldEquationResult& result,
                  const std::string& name) {
  for (const auto& [key, value] : result.summary) {
    if (key == name) {
      return value;
    }
  }
  ADD_FAILURE() << "no summary value '" << name << "'";
  return 0.0;
}

/// All-reduce rounds a kernel's fabric run performs, by combine: the CG
/// dot products are Sum trees (r'r once, then d'q and r'r per iteration),
/// the transport dt bound is a Min tree (once per substep).
struct Reductions {
  u64 sum = 0;
  u64 min = 0;
};

Reductions reductions_of(const api::FieldEquationResult& result) {
  const auto work = static_cast<u64>(result.work);
  if (result.kernel == "cg") {
    return {1 + 2 * work, 0};
  }
  if (result.kernel == "transport") {
    return {0, work};
  }
  if (result.kernel == "impes") {
    return {work + 2 * static_cast<u64>(summary_value(result, "cg_iterations")),
            static_cast<u64>(summary_value(result, "transport_substeps"))};
  }
  return {};
}

TEST(SpecExecuteTest, HookChargedCountersMatchTheFabric) {
  for (const api::Kernel& kernel : api::kernels()) {
    api::FieldEquationSpec spec;
    spec.kernel = kernel.name;
    spec.nx = 5;  // non-square, so rows and columns of the trees differ
    spec.ny = 4;
    spec.nz = 3;
    spec.threads = 2;  // the fabric leg on the tiled engine
    if (kernel.name == "cg") {
      // Cap CG below its convergence (50 iterations here): the backends
      // fold faces in different orders, and a stop decided by the last
      // bits of r'r would make them run different iteration counts.
      spec.iterations = 30;
    }
    const api::FieldEquationResult wse =
        api::run_field_equation(spec, api::Backend::Wse);
    const api::FieldEquationResult gpu =
        api::run_field_equation(spec, api::Backend::Gpusim);
    // The same work on both backends, so the counters are comparable.
    ASSERT_EQ(wse.work, gpu.work) << kernel.name;
    ASSERT_EQ(wse.summary.size(), gpu.summary.size()) << kernel.name;
    for (usize i = 0; i < wse.summary.size(); ++i) {
      if (wse.summary[i].first.find("iterations") != std::string::npos ||
          wse.summary[i].first.find("substeps") != std::string::npos) {
        ASSERT_EQ(wse.summary[i], gpu.summary[i]) << kernel.name;
      }
    }

    const wse::PeCounters& f = wse.fabric.counters;
    const wse::PeCounters& g = gpu.gpu.counters;
    // Each reduction round combines every PE's partial once but the
    // root's: one FADD (Sum) or FSUB + select (Min) per combine, two
    // loads and a store each.
    const Reductions r = reductions_of(wse);
    const u64 combines_per_round = static_cast<u64>(spec.nx * spec.ny - 1);
    const u64 tree_adds = r.sum * combines_per_round;
    const u64 tree_subs = r.min * combines_per_round;

    // Charged inside the kernels' hooks: identical on both backends.
    EXPECT_EQ(g.fmul, f.fmul) << kernel.name;
    EXPECT_EQ(g.fneg, f.fneg) << kernel.name;
    EXPECT_EQ(g.fma, f.fma) << kernel.name;
    EXPECT_EQ(g.scalar_misc, f.scalar_misc) << kernel.name;
    EXPECT_EQ(g.fadd + tree_adds, f.fadd) << kernel.name;
    EXPECT_EQ(g.fsub + tree_subs, f.fsub) << kernel.name;
    EXPECT_EQ(g.mem_loads + 2 * (tree_adds + tree_subs), f.mem_loads)
        << kernel.name;
    // Fabric-only: receives (each FMOV stores a word), wavelets, tasks.
    EXPECT_EQ(g.mem_stores + f.fmov + tree_adds + tree_subs, f.mem_stores)
        << kernel.name;
    EXPECT_GT(f.fmov, 0u) << kernel.name;
    EXPECT_EQ(g.fmov, 0u) << kernel.name;
    EXPECT_EQ(g.wavelets_sent + g.wavelets_received + g.controls_sent +
                  g.tasks_executed,
              0u)
        << kernel.name;
    // Every kernel charges something, so every gpusim row has counters.
    EXPECT_GT(g.scalar_misc + g.fp_instruction_elements(), 0u)
        << kernel.name;
  }
}

TEST(SpecExecuteTest, SwitchProtocolShapesMatchTheFabricBitwise) {
  // The nine-point exchange, the five-point (cardinal-only) ablation and
  // the unreused-scratch variant, over three rounds on a non-square grid.
  const physics::FlowProblem problem =
      physics::make_benchmark_problem(Extents3{5, 4, 3}, 9);
  for (const bool diagonals : {true, false}) {
    for (const bool reuse : {true, false}) {
      core::DataflowOptions options;
      options.iterations = 3;
      options.kernel.diagonals_enabled = diagonals;
      options.kernel.reuse_buffers = reuse;
      const core::DataflowResult wse =
          core::run_dataflow_tpfa(problem, options);
      core::TpfaKernelOptions kernel = options.kernel;
      kernel.iterations = options.iterations;
      const auto gpu =
          spec::execute(core::tpfa_launch(problem, kernel), core::gather_tpfa);
      for (i64 i = 0; i < wse.residual.size(); ++i) {
        ASSERT_EQ(std::bit_cast<u32>(wse.residual[i]),
                  std::bit_cast<u32>(gpu.residual[i]))
            << "diagonals=" << diagonals << " reuse=" << reuse << " cell "
            << i;
        ASSERT_EQ(std::bit_cast<u32>(wse.pressure[i]),
                  std::bit_cast<u32>(gpu.pressure[i]));
      }
      EXPECT_EQ(gpu.counters.fmul, wse.counters.fmul);
      EXPECT_EQ(gpu.counters.fsub, wse.counters.fsub);
    }
  }
}

TEST(SpecExecuteTest, LaunchesOneKernelPerChargingHookSweep) {
  // Heat: start charges nothing; per step begin_round stages the block
  // (scalar ops), on_block only keeps views, on_round_complete updates.
  const Array3<f32> initial = spec::heat_initial_field(Extents3{4, 3, 2}, 7);
  spec::HeatKernelOptions kernel;
  kernel.steps = 5;
  const auto run =
      spec::execute(spec::heat_launch(initial, kernel), spec::gather_heat);
  EXPECT_EQ(run.kernels_launched, 2u * 5u);
  EXPECT_GT(run.device_seconds, 0.0);
  EXPECT_EQ(run.counters.flops(), 0u);  // heat charges scalar ops only
}

/// Contributes one value per PE to an AllReduceSum and records the result.
class ReduceProbe final : public wse::PeProgram {
 public:
  ReduceProbe(Coord2 coord, Coord2 fabric, wse::ReduceOp op, f32 local)
      : local_(local),
        engine_(dataflow::canonical_allreduce_colors(), coord, fabric, 1, op) {}

  f32 result = 0.0f;

  void configure_router(wse::Router& router) override {
    engine_.configure_router(router);
  }
  void on_start(wse::PeApi& api) override {
    const std::array<f32, 1> local{local_};
    engine_.contribute(api, local, [this](wse::PeApi& a,
                                          std::span<const f32> global) {
      result = global[0];
      a.signal_done();
    });
  }
  void on_data(wse::PeApi& api, wse::Color color, wse::Dir from,
               std::span<const u32> data) override {
    engine_.on_data(api, color, from, data);
  }

 private:
  f32 local_;
  wse::AllReduceSum engine_;
};

TEST(SpecExecuteTest, TreeReduceMatchesTheAllReduceTrees) {
  Xoshiro256 rng(11);
  for (const Coord2 fabric : {Coord2{1, 1}, Coord2{5, 1}, Coord2{1, 4},
                              Coord2{4, 3}, Coord2{7, 5}}) {
    for (const wse::ReduceOp op :
         {wse::ReduceOp::Sum, wse::ReduceOp::Min, wse::ReduceOp::Max}) {
      std::vector<f32> local(static_cast<usize>(fabric.x * fabric.y));
      for (f32& v : local) {
        v = static_cast<f32>(rng.uniform() * 2.0 - 1.0) * 1e3f;
      }
      if (op != wse::ReduceOp::Sum) {
        // Transport contributes +inf from quiescent columns.
        local.front() = std::numeric_limits<f32>::infinity();
      }
      wse::Fabric fab(fabric.x, fabric.y);
      std::vector<ReduceProbe*> probes(local.size());
      fab.load([&](Coord2 coord, Coord2 size) {
        const usize i = static_cast<usize>(coord.y * fabric.x + coord.x);
        auto program = std::make_unique<ReduceProbe>(coord, size, op, local[i]);
        probes[i] = program.get();
        return program;
      });
      ASSERT_TRUE(fab.run().ok());
      const f32 expected = wse::tree_reduce(op, fabric, local);
      for (const ReduceProbe* probe : probes) {
        EXPECT_EQ(std::bit_cast<u32>(probe->result),
                  std::bit_cast<u32>(expected))
            << fabric.x << "x" << fabric.y << " op "
            << static_cast<int>(op);
      }
    }
  }
}

/// Probes the hook contract every exchange kind keeps: on_round_complete
/// receives exactly the blocks on_block saw that round, unchanged, each
/// from the neighbor across its face, and empty views everywhere else.
/// Every PE stamps its block with its coordinates and the round.
class FaceProbe final : public spec::StencilKernel {
 public:
  static constexpr i32 kRounds = 3;

  FaceProbe(Coord2 coord, Extents3 grid, bool nine_point)
      : coord_(coord),
        grid_(grid),
        nine_point_(nine_point),
        block_(static_cast<usize>(grid.nz)) {}

  i32 rounds_done = 0;
  i32 blocks_seen = 0;  ///< on_block calls over the run
  i32 mismatches = 0;   ///< departures from the contract

  [[nodiscard]] std::span<const f32> begin_round(wse::PeCompute&) override {
    for (usize i = 0; i < block_.size(); ++i) {
      block_[i] = stamp(coord_, static_cast<i32>(i));
    }
    seen_ = {};
    return block_;
  }

  void on_block(wse::PeCompute&, mesh::Face face, wse::Dsd block) override {
    ++blocks_seen;
    std::optional<std::vector<f32>>& seen = seen_[static_cast<usize>(face)];
    mismatches += seen.has_value() ? 1 : 0;  // one block per face and round
    seen.emplace(block.base, block.base + block.length);
  }

  [[nodiscard]] spec::RoundOutcome on_round_complete(
      wse::PeCompute&, const FaceBlocks& blocks) override {
    for (const mesh::Face face : mesh::kAllFaces) {
      const Coord3 off = mesh::face_offset(face);
      const Coord2 nb{coord_.x + off.x, coord_.y + off.y};
      const bool expected = !mesh::is_vertical(face) &&
                            (nine_point_ || off.x == 0 || off.y == 0) &&
                            nb.x >= 0 && nb.x < grid_.nx && nb.y >= 0 &&
                            nb.y < grid_.ny;
      const std::optional<wse::Dsd>& view = blocks[static_cast<usize>(face)];
      const std::optional<std::vector<f32>>& seen =
          seen_[static_cast<usize>(face)];
      if (view.has_value() != expected || seen.has_value() != expected) {
        ++mismatches;
        continue;
      }
      if (!expected) {
        continue;
      }
      if (view->length != grid_.nz ||
          static_cast<i32>(seen->size()) != grid_.nz) {
        ++mismatches;
        continue;
      }
      for (i32 i = 0; i < grid_.nz; ++i) {
        if (view->at(i) != (*seen)[static_cast<usize>(i)] ||
            view->at(i) != stamp(nb, i)) {
          ++mismatches;
        }
      }
    }
    ++rounds_done;
    return {rounds_done == kRounds ? spec::RoundAction::Done
                              : spec::RoundAction::Continue};
  }

 private:
  [[nodiscard]] f32 stamp(Coord2 pe, i32 i) const {
    return static_cast<f32>(1000 * rounds_done + 100 * pe.y + 10 * pe.x + i);
  }

  Coord2 coord_;
  Extents3 grid_;
  bool nine_point_;
  std::vector<f32> block_;
  std::array<std::optional<std::vector<f32>>, mesh::kFaceCount> seen_;
};

struct ProbeTally {
  i32 min_rounds = 0;
  i32 blocks_seen = 0;
  i32 mismatches = 0;
};

ProbeTally tally_probes(const spec::KernelGrid& run) {
  ProbeTally tally{FaceProbe::kRounds, 0, 0};
  const Extents3 ext = run.extents();
  for (i32 y = 0; y < ext.ny; ++y) {
    for (i32 x = 0; x < ext.nx; ++x) {
      const FaceProbe& probe = run.kernel_as<FaceProbe>(Coord2{x, y});
      tally.min_rounds = std::min(tally.min_rounds, probe.rounds_done);
      tally.blocks_seen += probe.blocks_seen;
      tally.mismatches += probe.mismatches;
    }
  }
  return tally;
}

spec::Launch probe_launch(Extents3 grid, spec::ExchangeKind exchange,
                          spec::StencilShape shape) {
  spec::StencilSpec s;
  s.name = "face probe";
  s.exchange = exchange;
  s.shape = shape;
  s.block_words_per_cell = 1;
  s.claims.cardinal = "probe cardinal";
  s.claims.diagonal = "probe diagonal";
  s.claims.nack = "probe retransmit";
  if (exchange == spec::ExchangeKind::SwitchProtocol) {
    s.fields = {{"cardinal recv buffers", spec::FieldRole::CardinalRecv, 4, 0},
                {"diagonal recv buffers", spec::FieldRole::DiagonalRecv, 4, 0}};
  } else {
    s.fields = {{"halo buffers", spec::FieldRole::HaloRecv, 8, 0}};
  }
  s.fields.push_back({"code", spec::FieldRole::Code, 0, 1024});
  const bool nine_point = shape == spec::StencilShape::NinePoint;
  return {s, grid, [grid, nine_point](Coord2 coord) {
            return std::make_unique<FaceProbe>(coord, grid, nine_point);
          }};
}

TEST(SpecExecuteTest, RoundCompleteSeesExactlyTheRoundsBlocks) {
  struct Case {
    spec::ExchangeKind exchange;
    spec::StencilShape shape;
    bool reliability;  ///< the halo ack/retransmit layer (fabric only)
  };
  constexpr auto kSwitch = spec::ExchangeKind::SwitchProtocol;
  constexpr auto kHalo = spec::ExchangeKind::StaticHalo;
  constexpr auto kNine = spec::StencilShape::NinePoint;
  constexpr auto kFive = spec::StencilShape::FivePoint;
  // On 4x4x2 some fabric neighbors run a round ahead of a PE that still
  // holds its views (the early-block path of both exchanges).
  for (const Extents3 grid : {Extents3{3, 3, 3}, Extents3{4, 4, 2}}) {
    for (const Case& c :
         {Case{kSwitch, kNine, false}, Case{kSwitch, kFive, false},
          Case{kHalo, kNine, false}, Case{kHalo, kNine, true}}) {
      const i32 cardinal =
          2 * (grid.nx - 1) * grid.ny + 2 * grid.nx * (grid.ny - 1);
      const i32 diagonal = 4 * (grid.nx - 1) * (grid.ny - 1);
      const i32 per_round = cardinal + (c.shape == kNine ? diagonal : 0);
      dataflow::HarnessOptions options;
      options.reliability = c.reliability;
      const auto wse = spec::run(probe_launch(grid, c.exchange, c.shape),
                                 options, tally_probes);
      const auto gpu =
          spec::execute(probe_launch(grid, c.exchange, c.shape), tally_probes);
      for (const auto& [backend, tally] :
           {std::pair<const char*, ProbeTally>{"wse", wse},
            std::pair<const char*, ProbeTally>{"gpusim", gpu}}) {
        SCOPED_TRACE(::testing::Message()
                     << backend << ' ' << grid.nx << 'x' << grid.ny
                     << " exchange=" << static_cast<int>(c.exchange)
                     << " shape=" << static_cast<int>(c.shape)
                     << " reliability=" << c.reliability);
        EXPECT_EQ(tally.min_rounds, FaceProbe::kRounds);
        EXPECT_EQ(tally.blocks_seen, per_round * FaceProbe::kRounds);
        EXPECT_EQ(tally.mismatches, 0);
      }
      EXPECT_TRUE(wse.ok());
    }
  }
}

/// Answers Done on PE (0,0) and Continue everywhere else.
class SplitKernel final : public spec::StencilKernel {
 public:
  explicit SplitKernel(bool first) : first_(first) {}
  [[nodiscard]] spec::RoundOutcome start(wse::PeCompute& api) override {
    api.scalar_ops(1);
    return {first_ ? spec::RoundAction::Done : spec::RoundAction::Continue};
  }

 private:
  bool first_;
};

TEST(SpecExecuteTest, KernelsThatDisagreeFailLoudly) {
  spec::StencilSpec s;
  s.name = "split";
  s.exchange = spec::ExchangeKind::StaticHalo;
  s.block_words_per_cell = 1;
  s.claims.cardinal = "split halo";
  s.claims.diagonal = "split diagonal";
  s.fields = {{"u", spec::FieldRole::State, 1, 0},
              {"halo buffers", spec::FieldRole::HaloRecv, 8, 0},
              {"code", spec::FieldRole::Code, 0, 1024}};
  try {
    (void)spec::execute({s, Extents3{2, 2, 2}, [](Coord2 coord) {
                           return std::make_unique<SplitKernel>(
                               coord.x == 0 && coord.y == 0);
                         }});
    FAIL() << "disagreeing kernels must throw";
  } catch (const ContractViolation& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("PE(1,0) and PE(0,0) answer different"),
              std::string::npos)
        << message;
  }
}

}  // namespace
}  // namespace fvf
