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
#include <atomic>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "api/kernels.hpp"
#include "common/assert.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/cg_program.hpp"
#include "core/launcher.hpp"
#include "core/linear_stencil.hpp"
#include "core/tpfa_program.hpp"
#include "core/transport_program.hpp"
#include "core/wave_program.hpp"
#include "dataflow/fabric_harness.hpp"
#include "lint/class_certificate.hpp"
#include "lint/defects.hpp"
#include "lint/lint.hpp"
#include "lint/routing_index.hpp"
#include "obs/json.hpp"
#include "physics/problem.hpp"
#include "spec/compile.hpp"
#include "spec/heat.hpp"
#include "spec/launch.hpp"
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
  void send_declarations(
      std::vector<wse::SendDeclaration>& sends) const override {
    sends.push_back({wse::Color{0}, false});
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

/// Installs the same config for color 0 `count` times during load.
class RepeatedConfigProgram final : public wse::PeProgram {
 public:
  explicit RepeatedConfigProgram(int count) : count_(count) {}
  void configure_router(wse::Router& router) override {
    for (int i = 0; i < count_; ++i) {
      router.configure(wse::Color{0},
                       wse::ColorConfig({wse::position(wse::Dir::Ramp,
                                                       {wse::Dir::East})}));
    }
  }
  void on_start(wse::PeApi&) override {}
  void on_data(wse::PeApi&, wse::Color, wse::Dir,
               std::span<const u32>) override {}

 private:
  int count_;
};

TEST(LintHarnessTest, SaturatedConfigureCountStillReportsReconfiguration) {
  // A router counts a color's configure() calls in one byte, saturating
  // at 255: 300 installs must still be flagged, as "at least 255".
  dataflow::HarnessOptions options;
  options.lint = Level::Off;
  dataflow::FabricHarness harness(Coord2{1, 1}, options);
  harness.colors().claim("lint test color", 0, 1);
  harness.load<RepeatedConfigProgram>([](Coord2, Coord2) {
    return std::make_unique<RepeatedConfigProgram>(300);
  });
  EXPECT_EQ(harness.fabric().router(0, 0).configure_count(wse::Color{0}),
            wse::Router::kMaxConfigureCount);
  const Report report = harness.lint_report();
  ASSERT_EQ(report.diagnostics.size(), 1u) << report.describe();
  const Diagnostic& d = report.diagnostics.front();
  EXPECT_EQ(d.check, Check::SwitchReconfigured);
  EXPECT_NE(d.message.find(" at least 255 times during load"),
            std::string::npos)
      << d.message;
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
    dataflow::HarnessOptions options;
    options.reliability = reliability;
    const spec::Load<> load =
        spec::load(core::cg_launch(stencil, rhs, {}), options);
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
  core::TransportKernelOptions kernel;
  kernel.window_seconds = 60.0;
  kernel.pore_volume = 1.0f;
  const spec::Load<> load = spec::load(
      core::transport_launch(
          problem, saturation, problem.initial_pressure(), well_rate, kernel),
      {});
  const Report report = load.harness->lint_report();
  EXPECT_TRUE(report.clean()) << report.describe();
}

TEST(LintShippedProgramsTest, WaveLintsClean) {
  const physics::FlowProblem problem = small_problem();
  const core::LinearStencil stencil =
      core::build_linear_stencil(problem, 3600.0);
  const Array3<f32> pulse =
      core::gaussian_pulse(problem.extents(), 1.0, 2.0);
  const spec::Load<> load =
      spec::load(core::wave_launch(stencil, pulse, {}), {});
  const Report report = load.harness->lint_report();
  EXPECT_TRUE(report.clean()) << report.describe();
}

TEST(LintShippedProgramsTest, StrictTpfaLoadBuildsOneKernelPerPe) {
  // The memory check reads the loaded programs, so neither the strict
  // load's lint nor a later lint_report() builds another kernel.
  const physics::FlowProblem problem = small_problem();
  spec::Launch launch = core::tpfa_launch(problem, core::TpfaKernelOptions{});
  auto built = std::make_shared<std::atomic<i64>>(0);
  launch.make_kernel = [inner = launch.make_kernel, built](Coord2 coord) {
    built->fetch_add(1);
    return inner(coord);
  };
  dataflow::HarnessOptions options;
  options.lint = Level::Strict;
  const core::TpfaLoad load =
      spec::load<core::TpfaPeProgram>(std::move(launch), options);
  const Extents3 ext = problem.extents();
  EXPECT_EQ(built->load(), i64{ext.nx} * ext.ny);
  const Report report = load.harness->lint_report();
  EXPECT_TRUE(report.clean()) << report.describe();
  EXPECT_EQ(built->load(), i64{ext.nx} * ext.ny);
}

TEST(LintShippedProgramsTest, LintReportOutlivesTheLaunchInputs) {
  // A load holds everything its programs declare: linting it after the
  // FlowProblem the launch read is gone gives the same clean report.
  auto problem = std::make_unique<physics::FlowProblem>(small_problem());
  const core::TpfaLoad load =
      core::load_dataflow_tpfa(*problem, core::DataflowOptions{});
  const std::string before = load.harness->lint_report().describe();
  problem.reset();
  const Report after = load.harness->lint_report();
  EXPECT_TRUE(after.clean()) << after.describe();
  EXPECT_EQ(after.describe(), before);
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
    dataflow::HarnessOptions cg;
    cg.reliability = reliability;
    const spec::Load<> cg_load =
        spec::load(core::cg_launch(stencil, ones, {}), cg);
    expect_index_matches(cg_load.harness->fabric(), "cg" + suffix);

    core::TransportKernelOptions transport_kernel;
    dataflow::HarnessOptions transport;
    transport_kernel.window_seconds = 60.0;
    transport_kernel.pore_volume = 1.0f;
    transport.reliability = reliability;
    const spec::Load<> transport_load =
        spec::load(core::transport_launch(problem, zeros,
                                          problem.initial_pressure(), zeros,
                                          transport_kernel),
                   transport);
    expect_index_matches(transport_load.harness->fabric(),
                         "transport" + suffix);

    dataflow::HarnessOptions wave;
    wave.reliability = reliability;
    const Array3<f32> pulse = core::gaussian_pulse(ext, 1.0, 2.0);
    const spec::Load<> wave_load =
        spec::load(core::wave_launch(stencil, pulse, {}), wave);
    expect_index_matches(wave_load.harness->fabric(), "wave" + suffix);

    dataflow::HarnessOptions heat;
    heat.reliability = reliability;
    const Array3<f32> field = spec::heat_initial_field(ext, 7);
    const spec::Load<> heat_load =
        spec::load(spec::heat_launch(field, {}), heat);
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
       << (d.bound.has_value() ? std::to_string(*d.bound) : "-") << ' '
       << d.count << '\n';
  }
  return os.str();
}

TEST(LintParallelTest, ReportIsIdenticalForEveryThreadCount) {
  // 64 x 64 PEs reaches kParallelMinPes, so threads > 1 lint in parallel.
  // Every report comes from the per-PE checks (detail::run_per_pe): the
  // class certificate would skip them on the clean fabrics.
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
  // The unhandled-delivery corpus spec, at wafer-like scale: one finding
  // per PE with a West neighbour.
  spec::StencilSpec broken;
  broken.name = "unhandled-delivery at scale";
  broken.exchange = spec::ExchangeKind::SwitchProtocol;
  broken.shape = spec::StencilShape::FivePoint;
  broken.block_words_per_cell = 2;
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
    const Report clean =
        detail::run_per_pe(tpfa_load.harness->fabric(),
                           tpfa_load.harness->lint_options(/*full=*/true));
    EXPECT_TRUE(clean.clean()) << clean.describe();
    tpfa.push_back(rendered(clean));

    // The same fabric against a 1-block router buffer and a 1 KiB budget:
    // a buffer-overflow finding, then one memory finding per PE, merged
    // in raster order. The memory check reads the loaded programs.
    Options tight_options;
    tight_options.router_buffer_depth = 1;
    tight_options.memory_budget = 1024;
    const Report tight_report =
        detail::run_per_pe(tpfa_load.harness->fabric(), tight_options);
    EXPECT_EQ(tight_report.error_count(), 1u + kSide * kSide);
    // The per-tag breakdown, pinned literally: every field of the TPFA
    // spec's memory layout at nz = 2, in declaration order.
    const auto over = std::find_if(
        tight_report.diagnostics.begin(), tight_report.diagnostics.end(),
        [](const Diagnostic& d) {
          return d.check == Check::MemoryOverBudget;
        });
    ASSERT_NE(over, tight_report.diagnostics.end());
    EXPECT_EQ(over->message,
              "PE(0,0) declares 7144 bytes of static PE memory, exceeding "
              "the 1024-byte budget by 6120 bytes ('code+runtime' 6800, "
              "'p/rho/r columns' 24, 'own elevations' 8, 'neighbor "
              "elevations' 64, 'transmissibilities' 80, 'cardinal recv "
              "buffers' 64, 'diagonal recv buffers' 64, 'scratch columns' "
              "32, 'vertical flux column' 8)");
    tight.push_back(rendered(tight_report));

    dataflow::HarnessOptions cg_options;
    cg_options.execution.threads = threads;
    const spec::Load<> cg_load =
        spec::load(core::cg_launch(stencil, ones, {}), cg_options);
    const Report cg_report =
        detail::run_per_pe(cg_load.harness->fabric(),
                           cg_load.harness->lint_options(/*full=*/true));
    EXPECT_TRUE(cg_report.clean()) << cg_report.describe();
    cg.push_back(rendered(cg_report));

    wse::ExecutionOptions exec;
    exec.threads = threads;
    wse::Fabric fabric(kSide, kSide, {}, wse::PeMemory::kDefaultBudget, exec);
    fabric.load(defective);
    const Report report = detail::run_per_pe(fabric, Options{});
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

// --- the class certificate --------------------------------------------------

/// A kernel-less, unlinted load of `compiled`: lint reads no field data.
spec::Load<> kernel_less_load(
    const std::shared_ptr<const spec::CompiledSpec>& compiled,
    Extents3 extents, dataflow::HarnessOptions options) {
  options.lint = Level::Off;
  return spec::detail::load_compiled<spec::SpecPeProgram>(
      compiled, extents,
      [](Coord2) { return std::unique_ptr<spec::StencilKernel>(); }, options,
      spec::detail::reliable(compiled->spec(), options));
}

TEST(LintCertificateTest, HoldsForTheShippedStencilsAtEverySize) {
  // A silent fallback to the per-PE checks would keep every report right
  // and lose the gain; this pins the gain. The class count does not grow
  // with the fabric.
  struct Case {
    std::string_view kernel;
    Extents3 extents;
  };
  const Case cases[] = {
      {"tpfa", {64, 64, 12}},     {"tpfa", {256, 256, 12}},
      {"tpfa", {750, 96, 12}},    {"transport", {64, 64, 12}},
      {"wave", {64, 64, 12}},     {"heat", {64, 64, 12}},
      {"cg", {64, 64, 12}},
  };
  for (const Case& c : cases) {
    const api::Kernel* kernel = api::find_kernel(c.kernel);
    ASSERT_NE(kernel, nullptr) << c.kernel;
    for (const api::SpecFactory make : kernel->specs) {
      dataflow::HarnessOptions harness;
      harness.execution.threads = 4;
      const spec::Load<> load = kernel_less_load(
          std::make_shared<const spec::CompiledSpec>(spec::compile(make())),
          c.extents, harness);
      const Options options = load.harness->lint_options(/*full=*/true);
      const detail::ClassCertificate certificate =
          detail::certify(load.harness->fabric(), options);
      const std::string what = std::string(c.kernel) + " at " +
                               std::to_string(c.extents.nx) + "x" +
                               std::to_string(c.extents.ny);
      EXPECT_TRUE(certificate.holds) << what;
      EXPECT_LE(certificate.classes, 16u) << what;
      EXPECT_TRUE(run(load.harness->fabric(), options).clean()) << what;
    }
  }
}

/// One case of the soundness gate: a StencilSpec variant, the launch
/// options it runs under and the depth it is linted against.
struct DrawnSpec {
  spec::StencilSpec spec;
  bool reliability = false;
  Extents3 extents;
  u32 router_buffer_depth = 0;
};

DrawnSpec draw_spec(Xoshiro256& rng, usize index) {
  // The extents the gate draws from; 64 x 64 is the smallest fabric lint
  // spreads over several threads.
  static constexpr Coord2 kSides[] = {{1, 1}, {1, 5}, {5, 1},   {2, 2},  {3, 3},
                                      {4, 7}, {9, 6}, {16, 16}, {64, 64}};
  // Small, near-limit and over-budget code footprints.
  static constexpr usize kCodeBytes[] = {64, 4096, 46000, 60000};
  // The fabric's own depth, and depths a parked program overflows.
  static constexpr u32 kDepths[] = {0, 0, 1, 2};
  DrawnSpec drawn;
  spec::StencilSpec& s = drawn.spec;
  s.name = "drawn " + std::to_string(index);
  s.exchange = static_cast<spec::ExchangeKind>(rng.below(3));
  s.shape = rng.below(2) == 0 ? spec::StencilShape::FivePoint
                              : spec::StencilShape::NinePoint;
  s.block_words_per_cell = 1 + static_cast<i32>(rng.below(3));
  if (rng.below(2) == 0) {
    s.reduction = spec::ReductionSpec{
        rng.below(2) == 0 ? wse::ReduceOp::Sum : wse::ReduceOp::Min, 1};
  }
  drawn.reliability = rng.below(2) == 0;
  s.defects.drop_east_data_handler = rng.below(2) == 0;
  const i32 block = s.block_words_per_cell;
  s.fields.push_back({"state", spec::FieldRole::State,
                      1 + static_cast<i32>(rng.below(4)), 0});
  if (s.exchange == spec::ExchangeKind::SwitchProtocol) {
    s.fields.push_back(
        {"cardinal recv", spec::FieldRole::CardinalRecv, 4 * block, 0});
    s.fields.push_back(
        {"diagonal recv", spec::FieldRole::DiagonalRecv, 4 * block, 0});
  }
  if (s.exchange == spec::ExchangeKind::StaticHalo) {
    s.fields.push_back({"halo recv", spec::FieldRole::HaloRecv, 8 * block, 0});
  }
  s.fields.push_back({"code+runtime", spec::FieldRole::Code, 0,
                      kCodeBytes[rng.below(std::size(kCodeBytes))]});
  s.claims = {"drawn cardinal", "drawn diagonal", "drawn allreduce",
              "drawn nack"};
  const Coord2 side = kSides[rng.below(std::size(kSides))];
  drawn.extents = Extents3{side.x, side.y, 1 + static_cast<i32>(rng.below(3))};
  drawn.router_buffer_depth = kDepths[rng.below(std::size(kDepths))];
  return drawn;
}

struct GateTally {
  usize certified = 0;
  usize fell_back = 0;
  usize mismatches = 0;
};

/// lint::run must equal the per-PE report, text and every typed field,
/// whichever way the certificate decides. Where the certificate holds,
/// the per-PE checks must find nothing but claim and memory findings.
void expect_certified_equals_per_pe(const wse::Fabric& fabric,
                                    const Options& options,
                                    const std::string& what,
                                    GateTally& tally) {
  const Report per_pe = detail::run_per_pe(fabric, options);
  const std::string certified = rendered(run(fabric, options));
  EXPECT_EQ(certified, rendered(per_pe)) << what;
  tally.mismatches += certified == rendered(per_pe) ? 0 : 1;
  if (!detail::certify(fabric, options).holds) {
    ++tally.fell_back;
    return;
  }
  ++tally.certified;
  for (const Diagnostic& d : per_pe.diagnostics) {
    const bool outside = d.check == Check::UnclaimedColor ||
                         d.check == Check::MemoryOverBudget ||
                         d.check == Check::MemoryNearLimit;
    EXPECT_TRUE(outside) << what << ": certified, yet the per-PE checks report "
                         << check_name(d.check) << ": " << d.message;
    tally.mismatches += outside ? 0 : 1;
  }
}

/// A fabric no program was loaded on, with routers configured by hand on
/// some PEs: an East chain on every other row (clean: a forwarding chain
/// never closes), plus a ring or a chain that stops short (a cycle, or
/// a dead end).
void lint_unloaded_fabrics(i32 threads, GateTally& tally) {
  using wse::Dir;
  constexpr i32 kSide = 64;
  const Dir down = wse::dir_offset(Dir::South).y > 0 ? Dir::South : Dir::North;
  const Dir up = wse::opposite(down);
  const auto config = [](Dir input, std::vector<Dir> outputs) {
    return wse::ColorConfig({wse::position(input, std::move(outputs))});
  };
  for (const std::string_view extra : {"none", "ring", "dead-end"}) {
    wse::ExecutionOptions exec;
    exec.threads = threads;
    wse::Fabric fabric(kSide, kSide, {}, wse::PeMemory::kDefaultBudget, exec);
    const wse::ColorConfig chain({wse::position(
        {wse::RouteRule{Dir::Ramp, {Dir::East}},
         wse::RouteRule{Dir::West, {Dir::Ramp, Dir::East}}})});
    for (i32 y = 0; y < kSide; y += 2) {
      for (i32 x = 0; x < kSide; ++x) {
        fabric.router(x, y).configure(wse::Color{0}, chain);
      }
    }
    if (extra == "ring") {
      const wse::Color ring{1};
      fabric.router(0, 0).configure(ring, config(down, {Dir::East}));
      fabric.router(1, 0).configure(ring, config(Dir::West, {down}));
      fabric.router(1, 1).configure(ring, config(up, {Dir::West}));
      fabric.router(0, 1).configure(ring, config(Dir::East, {up}));
    }
    if (extra == "dead-end") {
      for (i32 x = 0; x < kSide / 2; ++x) {
        fabric.router(x, 1).configure(wse::Color{2},
                                      config(Dir::West, {Dir::East}));
      }
    }
    expect_certified_equals_per_pe(
        fabric, Options{},
        "unloaded fabric, " + std::string(extra) + ", " +
            std::to_string(threads) + " threads",
        tally);
  }
}

/// A hand-built program: one switch table on color 0, and optionally a
/// data send and an arrival-order fold on it.
class ChainProgram final : public wse::PeProgram {
 public:
  ChainProgram(std::optional<wse::SwitchPosition> routes, bool sends,
               bool folds)
      : routes_(std::move(routes)), sends_(sends), folds_(folds) {}

  void configure_router(wse::Router& router) override {
    if (routes_.has_value()) {
      router.configure(wse::Color{0}, wse::ColorConfig({*routes_}));
    }
  }
  void send_declarations(
      std::vector<wse::SendDeclaration>& sends) const override {
    if (sends_) {
      sends.push_back({wse::Color{0}, false});
    }
  }
  [[nodiscard]] std::vector<wse::ReductionDeclaration> reduction_declarations()
      const override {
    if (!folds_) {
      return {};
    }
    return {{{wse::Color{0}}, true, "chain sum"}};
  }
  void on_start(wse::PeApi&) override {}
  void on_data(wse::PeApi&, wse::Color, wse::Dir,
               std::span<const u32>) override {}

 private:
  std::optional<wse::SwitchPosition> routes_;
  bool sends_;
  bool folds_;
};

/// A fold class with two possible West neighbors. On row 0 it folds what
/// a forwarding sender and the sender behind it inject (two senders: an
/// order-sensitive-reduction finding); on row 1 a lone sender feeds it.
/// The bound must take the worse of the two neighbors, not the better.
void lint_two_upstream_classes(i32 threads, GateTally& tally) {
  using wse::Dir;
  using wse::RouteRule;
  wse::ExecutionOptions exec;
  exec.threads = threads;
  wse::Fabric fabric(3, 2, {}, wse::PeMemory::kDefaultBudget, exec);
  fabric.load([](Coord2 at, Coord2) -> std::unique_ptr<wse::PeProgram> {
    if (at.x == 2) {
      return std::make_unique<ChainProgram>(
          wse::position(Dir::West, {Dir::Ramp}), false, true);
    }
    if (at.x == 1 && at.y == 0) {
      return std::make_unique<ChainProgram>(
          wse::position({RouteRule{Dir::Ramp, {Dir::East}},
                         RouteRule{Dir::West, {Dir::East}}}),
          true, false);
    }
    if (at.y == 0 || at.x == 1) {
      return std::make_unique<ChainProgram>(
          wse::position(Dir::Ramp, {Dir::East}), true, false);
    }
    return std::make_unique<ChainProgram>(std::nullopt, false, false);
  });
  expect_certified_equals_per_pe(
      fabric, Options{},
      "two upstream classes, " + std::to_string(threads) + " threads", tally);
}

TEST(LintCertificateTest, CertifiedReportEqualsThePerPeReport) {
  // The soundness gate: seeded StencilSpec variants, every defect-corpus
  // fixture and unloaded fabrics, each linted with and without the
  // certificate at 1 and 4 threads.
  constexpr usize kDraws = 120;
  Xoshiro256 rng(31);
  GateTally tally;
  usize rejected = 0;
  for (usize i = 0; i < kDraws; ++i) {
    const DrawnSpec drawn = draw_spec(rng, i);
    std::shared_ptr<const spec::CompiledSpec> compiled;
    try {
      compiled = std::make_shared<const spec::CompiledSpec>(
          spec::compile(drawn.spec));
    } catch (const ContractViolation&) {
      ++rejected;  // an invalid combination, rejected by name
      continue;
    }
    for (const i32 threads : {1, 4}) {
      dataflow::HarnessOptions harness;
      harness.reliability = drawn.reliability;
      harness.execution.threads = threads;
      const spec::Load<> load =
          kernel_less_load(compiled, drawn.extents, harness);
      Options options = load.harness->lint_options(/*full=*/true);
      options.router_buffer_depth = drawn.router_buffer_depth;
      std::ostringstream what;
      what << drawn.spec.name << " (exchange "
           << static_cast<int>(drawn.spec.exchange) << ", shape "
           << static_cast<int>(drawn.spec.shape) << ", reliability "
           << drawn.reliability << ", " << drawn.extents.nx << "x"
           << drawn.extents.ny << "x" << drawn.extents.nz << ", depth "
           << drawn.router_buffer_depth << ", " << threads << " threads)";
      expect_certified_equals_per_pe(load.harness->fabric(), options,
                                     what.str(), tally);
    }
  }
  for (const Defect& defect : defect_corpus()) {
    (void)defect.load([&](const wse::Fabric& fabric, const Options& options) {
      expect_certified_equals_per_pe(fabric, options,
                                     std::string(defect.name), tally);
      return Report{};
    });
  }
  for (const i32 threads : {1, 4}) {
    lint_unloaded_fabrics(threads, tally);
    lint_two_upstream_classes(threads, tally);
  }
  std::cout << "class certificate gate: " << tally.certified
            << " cases certified, " << tally.fell_back
            << " fell back to the per-PE checks, " << rejected
            << " drawn specs rejected by spec::compile, " << tally.mismatches
            << " mismatches\n";
  EXPECT_EQ(tally.mismatches, 0u);
  // Both paths must be exercised, or the gate proves nothing.
  EXPECT_GT(tally.certified, 0u);
  EXPECT_GT(tally.fell_back, 0u);
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

TEST(LintCliTest, IdenticalMemoryFindingsAggregateIntoOne) {
  // At the paper's depth TPFA declares 49,112 and transport 44,440 of the
  // 49,152 budget bytes on every PE: one near-limit warning for the 100
  // PEs, not 100. The CLI lints each spec without kernels and must print
  // exactly the report of the kernel-bearing load.
  const physics::FlowProblem problem =
      physics::make_benchmark_problem(Extents3{10, 10, 246}, 7);
  const Array3<f32> zeros(problem.extents(), 0.0f);
  const core::TpfaLoad tpfa =
      core::load_dataflow_tpfa(problem, core::DataflowOptions{});
  const spec::Load<> transport = spec::load(
      core::transport_launch(problem, zeros, problem.initial_pressure(),
                             zeros,
                             {.window_seconds = 60.0, .pore_volume = 1.0f}),
      dataflow::HarnessOptions{});
  struct Case {
    std::string name;
    Report report;
    std::string message;
  };
  const Case cases[] = {
      {"tpfa", tpfa.harness->lint_report(),
       "PE(0,0) declares 49112 bytes of static PE memory, 99% of the "
       "49152-byte budget (and 99 more PEs with the same declaration)"},
      {"transport", transport.harness->lint_report(),
       "PE(0,0) declares 44440 bytes of static PE memory, 90% of the "
       "49152-byte budget (and 99 more PEs with the same declaration)"},
  };
  for (const Case& c : cases) {
    ASSERT_EQ(c.report.diagnostics.size(), 1u)
        << c.name << "\n" << c.report.describe();
    const Diagnostic& d = c.report.diagnostics.front();
    EXPECT_EQ(d.check, Check::MemoryNearLimit) << c.name;
    EXPECT_EQ(d.pe.x, 0);
    EXPECT_EQ(d.pe.y, 0);
    EXPECT_EQ(d.count, 100u) << c.name;
    EXPECT_EQ(c.report.describe(),
              "warning[memory-near-limit] " + c.message + "\n");

    const CliRun run = run_cli({"--program", c.name.c_str(), "--nx", "10",
                                "--ny", "10", "--nz", "246"});
    EXPECT_EQ(run.code, 1) << c.name;  // a warning fails --lint strict
    EXPECT_EQ(run.out, "program " + c.name +
                           " (10x10x246): 0 error(s), 1 warning(s)\n" +
                           c.report.describe());
    EXPECT_EQ(run.err, "") << c.name;
  }

  const CliRun run = run_cli({"--program", "tpfa", "--nx", "10", "--ny",
                              "10", "--nz", "246", "--json"});
  EXPECT_NE(run.out.find("\"check\": \"memory-near-limit\""),
            std::string::npos)
      << run.out;
  EXPECT_NE(run.out.find("\"pe\": {\"x\": 0, \"y\": 0}"),
            std::string::npos)
      << run.out;
  EXPECT_NE(run.out.find("\"count\": 100"), std::string::npos) << run.out;
}

TEST(LintCliTest, OverBudgetProgramPrintsItsReportAndExitsOne) {
  // TPFA at nz=300 declares 58,400 bytes per PE. The strict load gate
  // refuses such a program, but the CLI must still print the whole
  // report, in both modes, and leave stderr empty.
  const std::vector<const char*> args = {"--program", "tpfa", "--nx", "4",
                                         "--ny", "4", "--nz", "300"};
  const CliRun text = run_cli(args);
  EXPECT_EQ(text.code, 1) << text.out << text.err;
  EXPECT_EQ(text.out.rfind("program tpfa (4x4x300): 16 error(s), 0 "
                           "warning(s)\n",
                           0),
            0u)
      << text.out;
  EXPECT_EQ(text.err, "");

  std::vector<const char*> json_args = args;
  json_args.push_back("--json");
  const CliRun json = run_cli(json_args);
  EXPECT_EQ(json.code, 1) << json.out << json.err;
  EXPECT_EQ(json.err, "");
  const obs::JsonValue doc = obs::parse_json(json.out);
  const obs::JsonValue* programs = doc.find("programs");
  ASSERT_TRUE(programs != nullptr && programs->is_array()) << json.out;
  ASSERT_EQ(programs->array.size(), 1u);
  const obs::JsonValue* diagnostics = programs->array[0].find("diagnostics");
  ASSERT_TRUE(diagnostics != nullptr && diagnostics->is_array());
  ASSERT_EQ(diagnostics->array.size(), 16u);
  for (const obs::JsonValue& diagnostic : diagnostics->array) {
    const obs::JsonValue* check = diagnostic.find("check");
    ASSERT_NE(check, nullptr);
    EXPECT_EQ(check->string, "memory-over-budget");
  }
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
  // Every table kernel must lint clean under the default strict level —
  // including the flow analyses (buffer bounds, wait-for, determinism),
  // which run as part of the full report — with and without the halo
  // reliability layer's NACK routes.
  for (const bool reliability : {false, true}) {
    std::vector<const char*> args = {"--program", "all", "--nx", "3",
                                     "--ny", "3", "--nz", "2"};
    if (reliability) {
      args.push_back("--reliability");
    }
    const CliRun run = run_cli(args);
    EXPECT_EQ(run.code, 0) << run.out << run.err;
    for (const api::Kernel& kernel : api::kernels()) {
      EXPECT_NE(run.out.find("program " + std::string(kernel.name) +
                             " (3x3x2): clean"),
                std::string::npos)
          << kernel.name << " reliability=" << reliability << "\n"
          << run.out;
    }
  }
}

}  // namespace
}  // namespace fvf::lint
