// fvf::lint regression suite: golden messages for every diagnostic class
// in the seeded defect corpus, the legacy unclaimed-color contract the
// linter absorbed from the old load-time route audit, clean bills of
// health for the shipped programs, and the fvf_lint CLI (arguments,
// output, exit codes) driven in-process.
//
// Regenerate the golden messages after an *intentional* wording change
// with
//   FVF_UPDATE_GOLDEN=1 ./build/tests/lint_test
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/assert.hpp"
#include "common/thread_pool.hpp"
#include "core/cg_program.hpp"
#include "core/launcher.hpp"
#include "core/linear_stencil.hpp"
#include "core/tpfa_program.hpp"
#include "core/transport_program.hpp"
#include "core/wave_program.hpp"
#include "dataflow/fabric_harness.hpp"
#include "lint/defects.hpp"
#include "lint/lint.hpp"
#include "lint/routing_index.hpp"
#include "physics/problem.hpp"
#include "spec/compile.hpp"
#include "spec/heat.hpp"
#include "spec/program.hpp"
#include "tools/fvf_lint_cli.hpp"
#include "wse/program.hpp"
#include "wse/route.hpp"
#include "wse/router.hpp"

namespace fvf::lint {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// Compares `actual` to the golden file, or rewrites the golden when
/// FVF_UPDATE_GOLDEN is set. Returns true in update mode so the caller
/// can GTEST_SKIP once after refreshing every file.
bool check_against_golden(const std::string& path, const std::string& actual) {
  if (std::getenv("FVF_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    EXPECT_TRUE(out.good()) << "cannot write " << path;
    out << actual;
    return true;
  }
  const std::string expected = read_file(path);
  EXPECT_FALSE(expected.empty())
      << "missing golden file " << path
      << " — run with FVF_UPDATE_GOLDEN=1 to create it";
  EXPECT_EQ(actual, expected) << "diagnostic text diverges from " << path;
  return false;
}

// --- defect corpus ----------------------------------------------------------

TEST(LintCorpusTest, GoldenMessagePerDiagnosticClass) {
  // Every diagnostic class has one seeded fixture; its rendered report is
  // pinned verbatim so message regressions (coordinates, color labels,
  // severities, explanations) show up as diffs.
  bool updated = false;
  for (const Defect& defect : defect_corpus()) {
    const Report report = defect.lint();
    const std::string path = std::string(FVF_TEST_DATA_DIR "/lint/") +
                             std::string(defect.name) + ".golden";
    updated = check_against_golden(path, report.describe()) || updated;
  }
  if (updated) {
    GTEST_SKIP() << "golden lint messages regenerated";
  }
}

TEST(LintCorpusTest, EveryFixtureTripsExactlyItsClass) {
  for (const Defect& defect : defect_corpus()) {
    const Report report = defect.lint();
    ASSERT_EQ(report.diagnostics.size(), 1u)
        << defect.name << ":\n" << report.describe();
    const Diagnostic& d = report.diagnostics.front();
    EXPECT_EQ(d.check, defect.expected) << defect.name;
    EXPECT_EQ(check_name(d.check), defect.name);
    // memory-near-limit and order-sensitive-reduction are the advisory
    // (warning) classes; everything else is a hard error.
    const bool advisory =
        defect.expected == Check::MemoryNearLimit ||
        defect.expected == Check::OrderSensitiveReduction;
    EXPECT_EQ(d.severity,
              advisory ? Severity::Warning : Severity::Error)
        << defect.name;
  }
}

// --- legacy route-audit contract --------------------------------------------

constexpr const char* kLegacyAuditText =
    "router at PE(0,0) configures color 0 which no component claimed in "
    "the ColorPlan";

/// Configures color 0 without any ColorPlan claim — the exact condition
/// the pre-lint FabricHarness::audit_routes caught at load time.
class UnclaimedConfigProgram final : public wse::PeProgram {
 public:
  void configure_router(wse::Router& router) override {
    router.configure(wse::Color{0},
                     wse::ColorConfig({wse::position(wse::Dir::Ramp,
                                                     {wse::Dir::East})}));
  }
  void on_start(wse::PeApi&) override {}
  void on_data(wse::PeApi&, wse::Color, wse::Dir,
               std::span<const u32>) override {}
};

TEST(LintHarnessTest, UnclaimedColorFailsLoadAtEveryLevelWithLegacyText) {
  // The load-time route audit moved into fvf::lint; its fail-fast
  // behaviour and its exact message are load-bearing (tests and users
  // grep for it), so both survive at every lint level — including Off.
  for (const Level level : {Level::Off, Level::Warn, Level::Strict}) {
    dataflow::HarnessOptions options;
    options.lint = level;
    dataflow::FabricHarness harness(Coord2{1, 1}, options);
    try {
      harness.load<UnclaimedConfigProgram>([](Coord2, Coord2) {
        return std::make_unique<UnclaimedConfigProgram>();
      });
      FAIL() << "load must throw on an unclaimed color (level "
             << static_cast<int>(level) << ")";
    } catch (const ContractViolation& e) {
      const std::string message = e.what();
      EXPECT_EQ(message.substr(0, std::string(kLegacyAuditText).size()),
                kLegacyAuditText);
      // The diagnostic still appends the full color map, as the legacy
      // audit did.
      EXPECT_NE(message.find("color map"), std::string::npos) << message;
    }
  }
}

/// Declares a send on a claimed color whose config never accepts the
/// Ramp: a static unrouted-send error, but not an unclaimed color.
class UnroutedSendProgram final : public wse::PeProgram {
 public:
  void configure_router(wse::Router& router) override {
    router.configure(wse::Color{0},
                     wse::ColorConfig({wse::position(wse::Dir::West,
                                                     {wse::Dir::Ramp})}));
  }
  [[nodiscard]] std::vector<wse::SendDeclaration> send_declarations()
      const override {
    return {{wse::Color{0}, false}};
  }
  void on_start(wse::PeApi&) override {}
  void on_data(wse::PeApi&, wse::Color, wse::Dir,
               std::span<const u32>) override {}
};

TEST(LintHarnessTest, StrictFailsLoadOnErrorFinding) {
  dataflow::HarnessOptions options;
  options.lint = Level::Strict;
  dataflow::FabricHarness harness(Coord2{1, 1}, options);
  harness.colors().claim("lint test color", 0, 1);
  try {
    harness.load<UnroutedSendProgram>([](Coord2, Coord2) {
      return std::make_unique<UnroutedSendProgram>();
    });
    FAIL() << "strict lint must reject the unrouted send";
  } catch (const ContractViolation& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("failed static verification"), std::string::npos)
        << message;
    EXPECT_NE(message.find("[unrouted-send]"), std::string::npos) << message;
  }
}

TEST(LintHarnessTest, WarnReportsButLoadsAndOffSkipsChecks) {
  for (const Level level : {Level::Off, Level::Warn}) {
    dataflow::HarnessOptions options;
    options.lint = level;
    dataflow::FabricHarness harness(Coord2{1, 1}, options);
    harness.colors().claim("lint test color", 0, 1);
    // Must not throw: Warn only reports, Off audits claims alone.
    harness.load<UnroutedSendProgram>([](Coord2, Coord2) {
      return std::make_unique<UnroutedSendProgram>();
    });
    // The full report remains available on demand either way.
    const Report report = harness.lint_report();
    EXPECT_EQ(report.error_count(), 1u) << report.describe();
    EXPECT_EQ(report.diagnostics.front().check, Check::UnroutedSend);
  }
}

// --- shipped programs lint clean --------------------------------------------

physics::FlowProblem small_problem() {
  physics::ProblemSpec spec;
  spec.extents = Extents3{4, 3, 2};
  spec.spacing = mesh::Spacing3{25.0, 25.0, 4.0};
  spec.geomodel = physics::GeomodelKind::Lognormal;
  spec.seed = 7;
  return physics::FlowProblem(spec);
}

TEST(LintShippedProgramsTest, TpfaLintsClean) {
  const physics::FlowProblem problem = small_problem();
  const core::TpfaLoad load =
      core::load_dataflow_tpfa(problem, core::DataflowOptions{});
  const Report report = load.harness->lint_report();
  EXPECT_TRUE(report.clean()) << report.describe();
}

TEST(LintShippedProgramsTest, CgLintsCleanWithAndWithoutReliability) {
  const physics::FlowProblem problem = small_problem();
  const core::LinearStencil stencil =
      core::build_linear_stencil(problem, 86400.0);
  Array3<f32> rhs(problem.extents());
  rhs.fill(1.0f);
  for (const bool reliability : {false, true}) {
    core::DataflowCgOptions options;
    options.reliability.enabled = reliability;
    const core::CgLoad load = core::load_dataflow_cg(stencil, rhs, options);
    const Report report = load.harness->lint_report();
    EXPECT_TRUE(report.clean())
        << "reliability=" << reliability << "\n" << report.describe();
  }
}

TEST(LintShippedProgramsTest, TransportLintsClean) {
  const physics::FlowProblem problem = small_problem();
  const Extents3 ext = problem.extents();
  Array3<f32> saturation(ext);
  saturation.fill(0.0f);
  Array3<f32> well_rate(ext);
  well_rate.fill(0.0f);
  core::DataflowTransportOptions options;
  options.kernel.window_seconds = 60.0;
  options.kernel.pore_volume = 1.0f;
  const core::TransportLoad load = core::load_dataflow_transport(
      problem, saturation, problem.initial_pressure(), well_rate, options);
  const Report report = load.harness->lint_report();
  EXPECT_TRUE(report.clean()) << report.describe();
}

TEST(LintShippedProgramsTest, WaveLintsClean) {
  const physics::FlowProblem problem = small_problem();
  const core::LinearStencil stencil =
      core::build_linear_stencil(problem, 3600.0);
  const Array3<f32> pulse =
      core::gaussian_pulse(problem.extents(), 1.0, 2.0);
  const core::WaveLoad load =
      core::load_dataflow_wave(stencil, pulse, core::DataflowWaveOptions{});
  const Report report = load.harness->lint_report();
  EXPECT_TRUE(report.clean()) << report.describe();
}

// --- the routing index -------------------------------------------------------

/// A configured color's positions, decoded from the packed words, must
/// pack back to exactly the same words: the packed form loses nothing of
/// what the program's builder passed in (wse_fabric_test checks the
/// decoder against builder inputs directly).
bool round_trips(const wse::ColorConfig& config) {
  if (!config.configured()) {
    return true;
  }
  const wse::ColorConfig again(config.decoded_positions());
  if (again.position_count() != config.position_count()) {
    return false;
  }
  for (usize p = 0; p < config.position_count(); ++p) {
    if (!std::equal(config.packed_row(p),
                    config.packed_row(p) + wse::kLinkCount,
                    again.packed_row(p))) {
      return false;
    }
  }
  return true;
}

/// Every (PE, color, input) word of the routing index must agree with a
/// direct walk of the router's decoded switch positions: the accepts,
/// parkable and configured bits, and the distinct outputs in
/// first-occurrence order.
void expect_index_matches(const wse::Fabric& fabric, const std::string& what) {
  ThreadPool pool(1);
  const detail::RoutingIndex index(fabric, pool);
  for (u8 c = 0; c < wse::Color::kMaxColors; ++c) {
    const wse::Color color{c};
    const detail::ColorRoutes routes = index.routes(color);
    bool anywhere = false;
    for (i32 y = 0; y < fabric.height(); ++y) {
      for (i32 x = 0; x < fabric.width(); ++x) {
        const wse::ColorConfig& config = fabric.router(x, y).config(color);
        anywhere = anywhere || config.configured();
        ASSERT_TRUE(round_trips(config))
            << what << ": color " << static_cast<int>(c) << " PE(" << x << ','
            << y << ")";
        const std::vector<wse::SwitchPosition> decoded =
            config.decoded_positions();
        for (usize in = 0; in < wse::kLinkCount; ++in) {
          const auto input = static_cast<wse::Dir>(in);
          usize accepting = 0;
          std::vector<wse::Dir> outputs;
          for (const wse::SwitchPosition& pos : decoded) {
            if (const wse::RouteRule* rule = pos.find(input)) {
              ++accepting;
              for (const wse::Dir out : rule->outputs) {
                if (std::find(outputs.begin(), outputs.end(), out) ==
                    outputs.end()) {
                  outputs.push_back(out);
                }
              }
            }
          }
          const usize positions = config.position_count();
          const u32 word = routes[index.node(Coord2{x, y}, input)];
          std::vector<wse::Dir> indexed;
          detail::each_output(word,
                              [&](wse::Dir out) { indexed.push_back(out); });
          const bool matches =
              detail::accepts(word) == (accepting > 0) &&
              detail::parkable(word) ==
                  (positions > 1 && accepting > 0 && accepting < positions) &&
              detail::configured(word) == config.configured() &&
              indexed == outputs;
          ASSERT_TRUE(matches)
              << what << ": color " << static_cast<int>(c) << " PE(" << x
              << ',' << y << ") input " << wse::dir_name(input);
        }
      }
    }
    EXPECT_EQ(routes.configured_anywhere(), anywhere)
        << what << ": color " << static_cast<int>(c);
  }
}

TEST(LintIndexTest, WordsMatchADirectWalkOfTheSwitchPositions) {
  const physics::FlowProblem problem = small_problem();
  const Extents3 ext = problem.extents();
  const core::LinearStencil stencil =
      core::build_linear_stencil(problem, 86400.0);
  Array3<f32> ones(ext);
  ones.fill(1.0f);
  Array3<f32> zeros(ext);
  zeros.fill(0.0f);
  {
    const core::TpfaLoad load =
        core::load_dataflow_tpfa(problem, core::DataflowOptions{});
    expect_index_matches(load.harness->fabric(), "tpfa");
  }
  // IMPES launches the cg and transport programs below on its fabric.
  for (const bool reliability : {false, true}) {
    const std::string suffix = reliability ? " with reliability" : "";
    core::DataflowCgOptions cg;
    cg.reliability.enabled = reliability;
    const core::CgLoad cg_load = core::load_dataflow_cg(stencil, ones, cg);
    expect_index_matches(cg_load.harness->fabric(), "cg" + suffix);

    core::DataflowTransportOptions transport;
    transport.kernel.window_seconds = 60.0;
    transport.kernel.pore_volume = 1.0f;
    transport.reliability.enabled = reliability;
    const core::TransportLoad transport_load = core::load_dataflow_transport(
        problem, zeros, problem.initial_pressure(), zeros, transport);
    expect_index_matches(transport_load.harness->fabric(),
                         "transport" + suffix);

    core::DataflowWaveOptions wave;
    wave.reliability.enabled = reliability;
    const core::WaveLoad wave_load = core::load_dataflow_wave(
        stencil, core::gaussian_pulse(ext, 1.0, 2.0), wave);
    expect_index_matches(wave_load.harness->fabric(), "wave" + suffix);

    spec::DataflowHeatOptions heat;
    heat.reliability.enabled = reliability;
    const Array3<f32> field = spec::heat_initial_field(ext, 7);
    const spec::HeatLoad heat_load = spec::load_dataflow_heat(field, heat);
    expect_index_matches(heat_load.harness->fabric(), "heat" + suffix);
  }
  for (const Defect& defect : defect_corpus()) {
    (void)defect.load([&](const wse::Fabric& fabric, const Options&) {
      expect_index_matches(fabric, std::string(defect.name));
      return Report{};
    });
  }
}

/// Everything a tool reads off a report: the rendered text plus the typed
/// fields fvf_lint --json prints.
std::string rendered(const Report& report) {
  std::ostringstream os;
  os << report.describe();
  for (const Diagnostic& d : report.diagnostics) {
    os << check_name(d.check) << ' ' << static_cast<int>(d.severity) << ' '
       << d.pe.x << ',' << d.pe.y << ' '
       << (d.color.has_value() ? static_cast<int>(d.color->id()) : -1) << ' '
       << (d.bound.has_value() ? std::to_string(*d.bound) : "-") << '\n';
  }
  return os.str();
}

TEST(LintParallelTest, ReportIsIdenticalForEveryThreadCount) {
  // 64 x 64 PEs reaches kParallelMinPes, so threads > 1 lint in parallel.
  constexpr i32 kSide = 64;
  static_assert(i64{kSide} * kSide >= wse::kParallelMinPes);
  physics::ProblemSpec problem_spec;
  problem_spec.extents = Extents3{kSide, kSide, 2};
  problem_spec.spacing = mesh::Spacing3{25.0, 25.0, 4.0};
  problem_spec.geomodel = physics::GeomodelKind::Lognormal;
  problem_spec.seed = 7;
  const physics::FlowProblem problem(problem_spec);
  const core::LinearStencil stencil =
      core::build_linear_stencil(problem, 86400.0);
  Array3<f32> ones(problem.extents());
  ones.fill(1.0f);
  const wse::ProgramFactory tpfa_probe =
      [&problem](Coord2 coord,
                 Coord2 size) -> std::unique_ptr<wse::PeProgram> {
    return std::make_unique<core::TpfaPeProgram>(
        coord, size, problem.extents(), core::TpfaKernelOptions{},
        problem.fluid(), core::extract_column(problem, coord.x, coord.y));
  };

  // The unhandled-delivery corpus spec, at wafer-like scale: one finding
  // per PE with a West neighbour.
  spec::StencilSpec broken;
  broken.name = "unhandled-delivery at scale";
  broken.exchange = spec::ExchangeKind::SwitchProtocol;
  broken.shape = spec::StencilShape::FivePoint;
  broken.block_words_per_cell = 2;
  broken.rounds = 1;
  broken.fields = {
      {"cardinal recv buffers", spec::FieldRole::CardinalRecv, 8, 0},
      {"diagonal recv buffers", spec::FieldRole::DiagonalRecv, 8, 0},
  };
  broken.defects.drop_east_data_handler = true;
  const auto compiled = std::make_shared<const spec::CompiledSpec>(
      spec::compile(std::move(broken)));
  const wse::ProgramFactory defective =
      [compiled](Coord2 coord,
                  Coord2 size) -> std::unique_ptr<wse::PeProgram> {
    return std::make_unique<spec::SpecPeProgram>(
        coord, size, 1, compiled, spec::SpecPeProgram::LaunchBindings{},
        nullptr);
  };

  std::vector<std::string> tpfa;
  std::vector<std::string> tight;
  std::vector<std::string> cg;
  std::vector<std::string> unhandled;
  for (const i32 threads : {1, 2, 4}) {
    core::DataflowOptions tpfa_options;
    tpfa_options.execution.threads = threads;
    const core::TpfaLoad tpfa_load =
        core::load_dataflow_tpfa(problem, tpfa_options);
    const Report clean = tpfa_load.harness->lint_report();
    EXPECT_TRUE(clean.clean()) << clean.describe();
    tpfa.push_back(rendered(clean));

    // The same fabric against a 1-block router buffer and a 1 KiB budget:
    // a buffer-overflow finding, then one memory finding per PE, merged
    // in raster order.
    Options tight_options;
    tight_options.router_buffer_depth = 1;
    tight_options.memory_budget = 1024;
    tight_options.probe_factory = tpfa_probe;
    const Report tight_report =
        run(tpfa_load.harness->fabric(), tight_options);
    EXPECT_EQ(tight_report.error_count(), 1u + kSide * kSide);
    tight.push_back(rendered(tight_report));

    core::DataflowCgOptions cg_options;
    cg_options.execution.threads = threads;
    const core::CgLoad cg_load =
        core::load_dataflow_cg(stencil, ones, cg_options);
    const Report cg_report = cg_load.harness->lint_report();
    EXPECT_TRUE(cg_report.clean()) << cg_report.describe();
    cg.push_back(rendered(cg_report));

    wse::ExecutionOptions exec;
    exec.threads = threads;
    wse::Fabric fabric(kSide, kSide, {}, wse::PeMemory::kDefaultBudget, exec);
    fabric.load(defective);
    Options options;
    options.probe_factory = defective;
    const Report report = run(fabric, options);
    ASSERT_GT(report.error_count(), 1u);
    EXPECT_EQ(report.diagnostics.front().check, Check::UnhandledDelivery);
    unhandled.push_back(rendered(report));
  }
  for (usize i = 1; i < tpfa.size(); ++i) {
    EXPECT_EQ(tpfa[i], tpfa[0]);
    EXPECT_EQ(tight[i], tight[0]);
    EXPECT_EQ(cg[i], cg[0]);
    EXPECT_EQ(unhandled[i], unhandled[0]);
  }
}

// --- the fvf_lint CLI, in-process -------------------------------------------

struct CliRun {
  int code = 0;
  std::string out;
  std::string err;
};

CliRun run_cli(std::vector<const char*> args) {
  args.insert(args.begin(), "fvf_lint");
  std::ostringstream out;
  std::ostringstream err;
  CliRun run;
  run.code = tools::fvf_lint_cli(static_cast<int>(args.size()), args.data(),
                                 out, err);
  run.out = out.str();
  run.err = err.str();
  return run;
}

TEST(LintCliTest, DefectCorpusExitsZeroWhenAllFixturesFlagged) {
  const CliRun run = run_cli({"--defect-corpus"});
  EXPECT_EQ(run.code, 0) << run.out << run.err;
  EXPECT_NE(run.out.find("defect corpus: all fixtures flagged"),
            std::string::npos)
      << run.out;
}

TEST(LintCliTest, BrokenFixtureExitsOne) {
  // The negative leg CI relies on: a corpus fixture is broken by
  // construction, so linting it must fail.
  const CliRun run = run_cli({"--defect", "dead-end"});
  EXPECT_EQ(run.code, 1) << run.out << run.err;
  EXPECT_NE(run.out.find("[dead-end]"), std::string::npos) << run.out;
}

TEST(LintCliTest, UnknownDefectExitsTwoAndListsCorpus) {
  const CliRun run = run_cli({"--defect", "no-such-defect"});
  EXPECT_EQ(run.code, 2);
  EXPECT_NE(run.err.find("unknown defect"), std::string::npos) << run.err;
  EXPECT_NE(run.err.find("routing-cycle"), std::string::npos) << run.err;
}

TEST(LintCliTest, UnknownProgramOrLevelExitsTwo) {
  EXPECT_EQ(run_cli({"--program", "bogus"}).code, 2);
  EXPECT_EQ(run_cli({"--program", "tpfa", "--lint", "pedantic"}).code, 2);
}

TEST(LintCliTest, JsonDefectCarriesTypedFields) {
  const CliRun run = run_cli({"--defect", "buffer-overflow-possible",
                              "--json"});
  EXPECT_EQ(run.code, 1) << run.out << run.err;
  EXPECT_NE(run.out.find("\"defect\": \"buffer-overflow-possible\""),
            std::string::npos)
      << run.out;
  EXPECT_NE(run.out.find("\"check\": \"buffer-overflow-possible\""),
            std::string::npos)
      << run.out;
  EXPECT_NE(run.out.find("\"severity\": \"error\""), std::string::npos)
      << run.out;
  // The fixture parks at PE(1,0) on color 0; the declared 96 in-flight
  // blocks are the minimal sufficient depth the analyzer computes.
  EXPECT_NE(run.out.find("\"pe\": {\"x\": 1, \"y\": 0}"), std::string::npos)
      << run.out;
  EXPECT_NE(run.out.find("\"color\": 0"), std::string::npos) << run.out;
  EXPECT_NE(run.out.find("\"bound\": 96"), std::string::npos) << run.out;
}

TEST(LintCliTest, JsonProgramModeListsCleanPrograms) {
  const CliRun run = run_cli({"--program", "tpfa", "--nx", "3", "--ny", "3",
                              "--nz", "2", "--json"});
  EXPECT_EQ(run.code, 0) << run.out << run.err;
  EXPECT_NE(run.out.find("{\"programs\": ["), std::string::npos) << run.out;
  EXPECT_NE(run.out.find("\"name\": \"tpfa\", \"errors\": 0, "
                         "\"warnings\": 0, \"diagnostics\": []"),
            std::string::npos)
      << run.out;
}

TEST(LintCliTest, ShippedProgramsExitZero) {
  const CliRun run = run_cli({"--program", "all", "--nx", "3", "--ny", "3",
                              "--nz", "2"});
  EXPECT_EQ(run.code, 0) << run.out << run.err;
  // All six registry kernels must lint clean under the default strict
  // level — including the flow analyses (buffer bounds, wait-for,
  // determinism), which run as part of the full report.
  for (const char* name :
       {"tpfa", "cg", "transport", "wave", "impes", "heat"}) {
    EXPECT_NE(run.out.find(std::string("program ") + name +
                           " (3x3x2): clean"),
              std::string::npos)
      << name << "\n" << run.out;
  }
}

}  // namespace
}  // namespace fvf::lint
