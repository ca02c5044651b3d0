// Tests of the fvf::spec layer: compile-time validation and error
// wording, structural digests, the footprint parity between the facade
// accounting and the compiled spec, bit-identity of the migrated
// programs across event-engine thread counts, the heat kernel's
// serial-oracle differential, strict-lint rejection of defective
// compiled programs, the bounded LRU executor caches, the fvf_spec CLI
// (in-process), and a golden of the generated program's static
// declaration surface (the input fvf::lint trusts).
//
// Regenerate the declaration golden after an *intentional* change with
//   FVF_UPDATE_GOLDEN=1 ./build/tests/spec_test
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/assert.hpp"
#include "core/cg_program.hpp"
#include "core/launcher.hpp"
#include "core/tpfa_program.hpp"
#include "core/transport_program.hpp"
#include "core/wave_program.hpp"
#include "dataflow/color_plan.hpp"
#include "dataflow/fabric_harness.hpp"
#include "golden_file.hpp"
#include "obs/phase.hpp"
#include "physics/problem.hpp"
#include "serve/cache.hpp"
#include "spec/compile.hpp"
#include "spec/heat.hpp"
#include "spec/program.hpp"
#include "tools/fvf_spec_cli.hpp"

namespace fvf {
namespace {

// --- spec::compile validation ------------------------------------------------

/// A minimal well-formed switch-protocol spec the negative tests mutate.
spec::StencilSpec valid_switch_spec() {
  spec::StencilSpec s;
  s.name = "unit";
  s.exchange = spec::ExchangeKind::SwitchProtocol;
  s.shape = spec::StencilShape::FivePoint;
  s.block_words_per_cell = 2;
  s.claims.cardinal = "unit cardinal";
  s.claims.diagonal = "unit diagonal";
  s.fields = {
      {"cardinal recv buffers", spec::FieldRole::CardinalRecv, 8, 0},
      {"diagonal recv buffers", spec::FieldRole::DiagonalRecv, 8, 0},
  };
  return s;
}

std::string compile_error(spec::StencilSpec s) {
  try {
    (void)spec::compile(std::move(s));
  } catch (const ContractViolation& e) {
    return e.what();
  }
  return "";
}

TEST(SpecCompileTest, AcceptsTheValidSpec) {
  EXPECT_NO_THROW((void)spec::compile(valid_switch_spec()));
}

TEST(SpecCompileTest, NamelessSpecIsRejected) {
  spec::StencilSpec s = valid_switch_spec();
  s.name.clear();
  EXPECT_NE(compile_error(std::move(s)).find("spec has no name"),
            std::string::npos);
}

TEST(SpecCompileTest, ErrorsNameTheSpecAndTheField) {
  // Wrong receive-buffer size: the message must carry the spec name and
  // the offending field's name, never a bare index.
  spec::StencilSpec s = valid_switch_spec();
  s.fields[0].words_per_cell = 4;
  const std::string what = compile_error(std::move(s));
  EXPECT_NE(what.find("spec 'unit'"), std::string::npos) << what;
  EXPECT_NE(what.find("'cardinal recv buffers'"), std::string::npos) << what;

  // Missing receive field: named by its role.
  spec::StencilSpec missing = valid_switch_spec();
  missing.fields.erase(missing.fields.begin());
  const std::string what2 = compile_error(std::move(missing));
  EXPECT_NE(what2.find("cardinal"), std::string::npos) << what2;

  // Duplicate field name: named.
  spec::StencilSpec dup = valid_switch_spec();
  dup.fields.push_back({"cardinal recv buffers", spec::FieldRole::State, 1, 0});
  const std::string what3 = compile_error(std::move(dup));
  EXPECT_NE(what3.find("'cardinal recv buffers'"), std::string::npos) << what3;
}

TEST(SpecCompileTest, DigestIsStructuralAndExcludesRounds) {
  const u64 base = spec::compile(valid_switch_spec()).shape_digest();
  EXPECT_EQ(spec::compile(valid_switch_spec()).shape_digest(), base);

  // A renamed field is a different memory layout: different digest.
  spec::StencilSpec renamed = valid_switch_spec();
  renamed.fields.push_back({"extra", spec::FieldRole::State, 1, 0});
  EXPECT_NE(spec::compile(std::move(renamed)).shape_digest(), base);
}

// --- migrated programs: bit-identity across event-engine threads -------------

void expect_bitwise_equal(const Array3<f32>& a, const Array3<f32>& b,
                          const char* label) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(std::memcmp(a.span().data(), b.span().data(),
                        static_cast<usize>(a.size()) * sizeof(f32)),
            0)
      << label;
}

TEST(SpecThreadIdentityTest, CompiledTpfaBitIdenticalAcrossThreads) {
  const physics::FlowProblem problem =
      physics::make_benchmark_problem(Extents3{6, 5, 4}, 42);
  core::DataflowOptions options;
  options.iterations = 3;

  options.execution.threads = 1;
  const core::DataflowResult serial = core::run_dataflow_tpfa(problem, options);
  ASSERT_TRUE(serial.ok());
  for (const i32 threads : {2, 4}) {
    options.execution.threads = threads;
    const core::DataflowResult tiled =
        core::run_dataflow_tpfa(problem, options);
    ASSERT_TRUE(tiled.ok());
    expect_bitwise_equal(serial.pressure, tiled.pressure, "pressure");
    expect_bitwise_equal(serial.residual, tiled.residual, "residual");
  }
}

TEST(SpecThreadIdentityTest, CompiledTransportBitIdenticalAcrossThreads) {
  const physics::FlowProblem problem =
      physics::make_benchmark_problem(Extents3{5, 4, 3}, 7);
  const Extents3 ext = problem.extents();
  Array3<f32> saturation(ext);
  saturation.fill(0.2f);
  Array3<f32> well_rate(ext);
  well_rate.fill(0.0f);
  well_rate(0, 0, 0) = 1e-4f;

  core::TransportKernelOptions kernel;
  dataflow::HarnessOptions options;
  kernel.window_seconds = 120.0;
  kernel.pore_volume = 1.0f;

  options.execution.threads = 1;
  const core::DataflowTransportResult serial = spec::run(
      core::transport_launch(
          problem, saturation, problem.initial_pressure(), well_rate, kernel),
      options, core::gather_transport);
  ASSERT_TRUE(serial.ok());
  for (const i32 threads : {2, 4}) {
    options.execution.threads = threads;
    const core::DataflowTransportResult tiled = spec::run(
        core::transport_launch(
            problem, saturation, problem.initial_pressure(), well_rate, kernel),
        options, core::gather_transport);
    ASSERT_TRUE(tiled.ok());
    EXPECT_EQ(serial.substeps, tiled.substeps);
    expect_bitwise_equal(serial.saturation, tiled.saturation, "saturation");
  }
}

// --- heat: the spec-only kernel vs its serial oracle -------------------------

TEST(HeatSpecTest, MatchesHostMirrorBitwiseAcrossThreads) {
  const Extents3 extents{7, 6, 3};
  const Array3<f32> initial = spec::heat_initial_field(extents, 42);
  spec::HeatKernelOptions kernel;
  dataflow::HarnessOptions options;
  kernel.steps = 6;
  const Array3<f32> host = spec::heat_reference_host(initial, kernel);

  for (const i32 threads : {1, 2, 4}) {
    options.execution.threads = threads;
    const spec::DataflowHeatResult result = spec::run(
        spec::heat_launch(initial, kernel), options, spec::gather_heat);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.steps_completed, kernel.steps);
    expect_bitwise_equal(host, result.field, "heat field");
  }
}

TEST(HeatSpecTest, StrictLintPassesOnTheGeneratedProgram) {
  const Array3<f32> initial = spec::heat_initial_field(Extents3{4, 3, 2}, 1);
  dataflow::HarnessOptions options;
  options.lint = lint::Level::Strict;  // the launch gate raises it anyway
  const spec::Load<> load = spec::load(spec::heat_launch(initial, {}), options);
  EXPECT_TRUE(load.harness->lint_report().clean());
}

// --- the mandatory strict-lint gate on compiled programs ---------------------

TEST(SpecLintGateTest, DefectiveCompiledProgramFailsStrictLoad) {
  spec::StencilSpec broken = valid_switch_spec();
  broken.name = "defective";
  broken.defects.drop_east_data_handler = true;
  const auto compiled = std::make_shared<const spec::CompiledSpec>(
      spec::compile(std::move(broken)));

  dataflow::HarnessOptions options;
  options.lint = lint::Level::Strict;
  dataflow::FabricHarness harness(Coord2{2, 1}, options);
  compiled->claim_colors(harness.colors(), /*reliability=*/false);
  const auto factory = [compiled](Coord2 coord, Coord2 fabric_size) {
    return std::make_unique<spec::SpecPeProgram>(
        coord, fabric_size, 1, compiled,
        spec::SpecPeProgram::LaunchBindings{}, nullptr);
  };
  EXPECT_THROW((void)harness.load<spec::SpecPeProgram>(factory),
               ContractViolation);
}

TEST(SpecLintGateTest, MemoizedPassDoesNotCoverAShallowerRouterBuffer) {
  // The buffer-bound verdict depends on the router depth, so a clean
  // strict pass at the default depth must not let a depth-1 load of the
  // same shape skip lint: that load would drop blocks mid-run.
  const physics::FlowProblem problem =
      physics::make_benchmark_problem(Extents3{8, 8, 4}, 7);
  EXPECT_NO_THROW((void)core::load_dataflow_tpfa(problem, {}));
  core::DataflowOptions shallow;
  shallow.execution.router_buffer_depth = 1;
  try {
    (void)core::load_dataflow_tpfa(problem, shallow);
    FAIL() << "a depth-1 load must be linted, and rejected, at load time";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("[buffer-overflow-possible]"),
              std::string::npos)
        << e.what();
  }
}

// --- the generated program's static declaration surface ---------------------

constexpr const char* kDeclarationGoldenPath =
    FVF_TEST_DATA_DIR "/spec_declarations_3x3.golden";

std::string color_name(wse::Color color) {
  return "c" + std::to_string(static_cast<int>(color.id()));
}

/// Renders every declaration a kernel-less generated program of `spec`
/// makes on each PE of a 3x3 fabric (nz=2): sends, channel dependencies,
/// reductions, channel notes, and per managed color the handler coverage
/// and profiler phase of data and control deliveries, plus the timer
/// phase.
std::string render_declarations(const std::string& label,
                                spec::StencilSpec spec, bool reliability) {
  const auto compiled = std::make_shared<const spec::CompiledSpec>(
      spec::compile(std::move(spec)));
  dataflow::ColorPlan plan;
  spec::SpecPeProgram::LaunchBindings bindings;
  bindings.reduce = compiled->claim_colors(plan, reliability).reduce;
  bindings.reliability = reliability;

  constexpr Coord2 kFabric{3, 3};
  std::ostringstream os;
  os << "== " << label << " reliability=" << (reliability ? "on" : "off")
     << '\n';
  for (i32 y = 0; y < kFabric.y; ++y) {
    for (i32 x = 0; x < kFabric.x; ++x) {
      const spec::SpecPeProgram generated(Coord2{x, y}, kFabric, 2, compiled,
                                          bindings, nullptr);
      const wse::PeProgram& program = generated;
      os << "PE(" << x << ',' << y << ")\n";
      std::vector<wse::SendDeclaration> sends;
      program.send_declarations(sends);
      for (const wse::SendDeclaration& send : sends) {
        os << "  send " << color_name(send.color)
           << (send.control ? " control" : " data")
           << " in_flight=" << send.in_flight << '\n';
      }
      std::vector<wse::ChannelDependency> deps;
      program.channel_dependencies(deps);
      for (const wse::ChannelDependency& dep : deps) {
        os << "  dep " << color_name(dep.prerequisite) << " -> "
           << color_name(dep.dependent) << '\n';
      }
      for (const wse::ReductionDeclaration& reduction :
           program.reduction_declarations()) {
        os << "  reduction '" << reduction.label << "' arrival_order="
           << reduction.folds_in_arrival_order << " colors";
        for (const wse::Color c : reduction.colors) {
          os << ' ' << color_name(c);
        }
        os << '\n';
      }
      for (u8 id = 0; id < dataflow::ColorSpace::kManagedColors; ++id) {
        const wse::Color c(id);
        os << "  " << color_name(c) << " data="
           << (program.handles_color(c, false) ? "handled" : "unhandled")
           << '/' << obs::phase_name(program.task_phase(c, false, false))
           << " control="
           << (program.handles_color(c, true) ? "handled" : "unhandled")
           << '/' << obs::phase_name(program.task_phase(c, true, false));
        const std::string note = program.describe_channel(c);
        if (!note.empty()) {
          os << " note=\"" << note << '"';
        }
        os << '\n';
      }
      os << "  timer="
         << obs::phase_name(program.task_phase(wse::Color(0), false, true))
         << '\n';
    }
  }
  return os.str();
}

TEST(SpecDeclarationGoldenTest, StaticSurfaceMatchesGolden) {
  std::string actual;
  core::TpfaKernelOptions five_point;
  five_point.diagonals_enabled = false;
  actual += render_declarations("tpfa-9pt", core::make_tpfa_spec({}), false);
  actual += render_declarations("tpfa-5pt", core::make_tpfa_spec(five_point),
                                false);
  spec::StencilSpec defective = valid_switch_spec();
  defective.name = "defective";
  defective.defects.drop_east_data_handler = true;
  actual += render_declarations("drop-east-data-handler",
                                std::move(defective), false);
  for (const bool reliability : {false, true}) {
    actual += render_declarations("cg", core::make_cg_spec(), reliability);
    actual += render_declarations("wave", core::make_wave_spec(), reliability);
    actual += render_declarations("transport", core::make_transport_spec(),
                                  reliability);
    actual += render_declarations("heat", spec::make_heat_spec(),
                                  reliability);
  }

  golden::check_against_golden(kDeclarationGoldenPath, actual);
}

// --- serve executor: bounded LRU caches --------------------------------------

TEST(ServeCacheTest, EvictsLeastRecentlyUsedDeterministically) {
  serve::HashCache<int> cache(2);
  (void)cache.get_or_build(1, [] { return 10; });
  (void)cache.get_or_build(2, [] { return 20; });
  // Touch key 1: key 2 becomes the LRU victim.
  ASSERT_NE(cache.lookup(1), nullptr);
  (void)cache.get_or_build(3, [] { return 30; });

  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.lookup(2), nullptr) << "LRU entry must be the one evicted";
  ASSERT_NE(cache.lookup(1), nullptr);
  ASSERT_NE(cache.lookup(3), nullptr);
  EXPECT_EQ(*cache.lookup(1), 10);
  EXPECT_EQ(*cache.lookup(3), 30);
}

TEST(ServeCacheTest, RebindingCapacityEvictsDownToTheNewBound) {
  serve::HashCache<int> cache;  // default: unbounded
  for (int k = 0; k < 5; ++k) {
    (void)cache.get_or_build(static_cast<u64>(k), [k] { return k; });
  }
  EXPECT_EQ(cache.stats().evictions, 0u);
  cache.set_capacity(1);
  EXPECT_EQ(cache.stats().evictions, 4u);
  ASSERT_NE(cache.lookup(4), nullptr) << "the MRU entry must survive";
  EXPECT_EQ(cache.lookup(0), nullptr);
}

TEST(ServeCacheTest, ZeroCapacityMeansUnbounded) {
  serve::HashCache<int> cache(0);
  for (int k = 0; k < 100; ++k) {
    (void)cache.get_or_build(static_cast<u64>(k), [k] { return k; });
  }
  EXPECT_EQ(cache.stats().evictions, 0u);
  EXPECT_NE(cache.lookup(0), nullptr);
}

// --- the fvf_spec CLI (in-process) -------------------------------------------

struct CliRun {
  int code = 0;
  std::string out;
  std::string err;
};

CliRun run_spec_cli(std::vector<const char*> args) {
  args.insert(args.begin(), "fvf_spec");
  std::ostringstream out;
  std::ostringstream err;
  CliRun run;
  run.code = tools::fvf_spec_cli(static_cast<int>(args.size()), args.data(),
                                 out, err);
  run.out = out.str();
  run.err = err.str();
  return run;
}

TEST(SpecCliTest, ListKernelsShowsTheFullInventory) {
  const CliRun run = run_spec_cli({"--list-kernels"});
  EXPECT_EQ(run.code, 0) << run.err;
  for (const char* name : {"tpfa", "cg", "transport", "wave", "impes",
                           "heat"}) {
    EXPECT_NE(run.out.find(name), std::string::npos) << run.out;
  }
  // Each kernel's specs follow its name; IMPES launches two.
  EXPECT_NE(run.out.find("cg+transport"), std::string::npos) << run.out;
}

TEST(SpecCliTest, DumpPlanPrintsTheLoweringSummary) {
  const CliRun run = run_spec_cli({"--dump-plan", "--program", "tpfa"});
  EXPECT_EQ(run.code, 0) << run.err;
  EXPECT_NE(run.out.find("spec 'tpfa'"), std::string::npos) << run.out;
  EXPECT_NE(run.out.find("tpfa cardinal exchange"), std::string::npos);
  EXPECT_NE(run.out.find("shape digest"), std::string::npos);
}

TEST(SpecCliTest, UnknownProgramIsRejectedWithTheInventory) {
  const CliRun run = run_spec_cli({"--dump-plan", "--program", "bogus"});
  EXPECT_EQ(run.code, 2);
  EXPECT_NE(run.err.find("unknown --program 'bogus'"), std::string::npos)
      << run.err;
  EXPECT_NE(run.err.find("heat"), std::string::npos)
      << "rejection must list the registered kernels: " << run.err;
}

}  // namespace
}  // namespace fvf
