#include "tools/fvf_lint_cli.hpp"

#include <algorithm>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "api/kernels.hpp"
#include "common/assert.hpp"
#include "common/cli.hpp"
#include "core/cg_program.hpp"
#include "core/launcher.hpp"
#include "core/linear_stencil.hpp"
#include "core/transport_program.hpp"
#include "core/wave_program.hpp"
#include "dataflow/harness_cli.hpp"
#include "lint/defects.hpp"
#include "lint/lint.hpp"
#include "physics/problem.hpp"
#include "spec/heat.hpp"

namespace fvf::tools {

namespace {

constexpr const char* kUsage =
    "usage: fvf_lint [--program all|tpfa|cg|transport|wave|impes|heat]\n"
    "                [--nx N --ny N --nz N] [--lint warn|strict]\n"
    "                [--reliability] [--seed S] [--json]\n"
    "       fvf_lint --defect-corpus\n"
    "       fvf_lint --defect <name> [--json]\n";

struct LintJob {
  std::string name;
  lint::Report report;
};

/// The inputs the CLI's kernel launches read; they outlive every load.
struct Fixture {
  physics::FlowProblem problem;
  core::LinearStencil stencil;
  Array3<f32> ones;
  Array3<f32> zeros;
  Array3<f32> pulse;
  Array3<f32> heat;

  Fixture(Extents3 extents, u64 seed)
      : problem([&] {
          physics::ProblemSpec spec;
          spec.extents = extents;
          spec.spacing = mesh::Spacing3{25.0, 25.0, 4.0};
          spec.geomodel = physics::GeomodelKind::Lognormal;
          spec.seed = seed;
          return physics::FlowProblem(spec);
        }()),
        stencil(core::build_linear_stencil(problem, 86400.0)),
        ones(extents, 1.0f),
        zeros(extents, 0.0f),
        pulse(core::gaussian_pulse(extents, 1.0, 2.0)),
        heat(spec::heat_initial_field(extents, 7)) {}
};

/// The launches each shipped kernel makes, in launch order (IMPES: the CG
/// pressure solve, then the transport window on the same fabric).
[[nodiscard]] std::vector<spec::Launch> kernel_launches(const Fixture& fx,
                                                        std::string_view name) {
  const auto transport = [&] {
    return core::transport_launch(
        fx.problem, fx.zeros, fx.problem.initial_pressure(), fx.zeros,
        {.window_seconds = 60.0, .pore_volume = 1.0f});
  };
  if (name == "tpfa") {
    return {core::tpfa_launch(fx.problem, {})};
  }
  if (name == "cg") {
    return {core::cg_launch(fx.stencil, fx.ones, {})};
  }
  if (name == "transport") {
    return {transport()};
  }
  if (name == "wave") {
    return {core::wave_launch(fx.stencil, fx.pulse, {})};
  }
  if (name == "impes") {
    return {core::cg_launch(fx.stencil, fx.ones, {}), transport()};
  }
  if (name == "heat") {
    return {spec::heat_launch(fx.heat, {})};
  }
  FVF_REQUIRE_MSG(false, "kernel '" << name << "' has no lint fixture");
  return {};
}

/// The load half of the launch pipeline (colors claimed, routers
/// configured, programs bound) for each of a kernel's launches, then the
/// full static verifier via FabricHarness::lint_report, in one report.
[[nodiscard]] lint::Report lint_kernel(const Fixture& fx,
                                       std::string_view name,
                                       bool reliability) {
  dataflow::HarnessOptions options;
  options.reliability = reliability;
  lint::Report combined;
  for (spec::Launch& launch : kernel_launches(fx, name)) {
    lint::Report report =
        spec::load(std::move(launch), options).harness->lint_report();
    combined.diagnostics.insert(
        combined.diagnostics.end(),
        std::make_move_iterator(report.diagnostics.begin()),
        std::make_move_iterator(report.diagnostics.end()));
  }
  return combined;
}

/// Minimal JSON string escaping: quotes, backslashes, and control bytes
/// (diagnostic messages never carry anything beyond printable ASCII, but
/// the escaping must still be lossless).
void json_escape(std::ostream& out, std::string_view text) {
  for (const char c : text) {
    switch (c) {
      case '"':
        out << "\\\"";
        break;
      case '\\':
        out << "\\\\";
        break;
      case '\n':
        out << "\\n";
        break;
      case '\t':
        out << "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          const char* hex = "0123456789abcdef";
          out << "\\u00" << hex[(c >> 4) & 0xF] << hex[c & 0xF];
        } else {
          out << c;
        }
    }
  }
}

/// One diagnostic as a JSON object: typed fields first (check slug,
/// severity, PE coordinates, color id or null, computed bound or null,
/// count of PEs it stands for), then the rendered message.
void write_diagnostic_json(std::ostream& out, const lint::Diagnostic& d,
                           const char* indent) {
  out << indent << "{\"check\": \"" << lint::check_name(d.check)
      << "\", \"severity\": \""
      << (d.severity == lint::Severity::Error ? "error" : "warning")
      << "\", \"pe\": {\"x\": " << d.pe.x << ", \"y\": " << d.pe.y
      << "}, \"color\": ";
  if (d.color.has_value()) {
    out << static_cast<int>(d.color->id());
  } else {
    out << "null";
  }
  out << ", \"bound\": ";
  if (d.bound.has_value()) {
    out << *d.bound;
  } else {
    out << "null";
  }
  out << ", \"count\": " << d.count << ", \"message\": \"";
  json_escape(out, d.message);
  out << "\"}";
}

void write_report_json(std::ostream& out, const lint::Report& report,
                       const char* item_indent, const char* close_indent) {
  out << "[";
  for (usize i = 0; i < report.diagnostics.size(); ++i) {
    out << (i == 0 ? "\n" : ",\n");
    write_diagnostic_json(out, report.diagnostics[i], item_indent);
  }
  if (!report.diagnostics.empty()) {
    out << "\n" << close_indent;
  }
  out << "]";
}

[[nodiscard]] int exit_code(usize errors, usize warnings, lint::Level level) {
  if (errors > 0) {
    return 1;
  }
  return (warnings > 0 && level == lint::Level::Strict) ? 1 : 0;
}

/// Corpus self-check: every seeded fixture must trip its own diagnostic
/// class and nothing else — a linter that stops flagging a corpus entry
/// (or starts over-flagging one) is broken.
[[nodiscard]] int run_defect_corpus(std::ostream& out, std::ostream& err) {
  bool all_ok = true;
  for (const lint::Defect& defect : lint::defect_corpus()) {
    const lint::Report report = defect.lint();
    const bool tripped =
        std::any_of(report.diagnostics.begin(), report.diagnostics.end(),
                    [&](const lint::Diagnostic& d) {
                      return d.check == defect.expected;
                    });
    const bool nothing_else =
        std::all_of(report.diagnostics.begin(), report.diagnostics.end(),
                    [&](const lint::Diagnostic& d) {
                      return d.check == defect.expected;
                    });
    if (tripped && nothing_else) {
      out << "ok   " << defect.name << " (" << report.diagnostics.size()
          << " finding(s))\n";
    } else {
      all_ok = false;
      err << "FAIL " << defect.name << ": expected only "
          << lint::check_name(defect.expected) << " findings, got "
          << report.diagnostics.size() << ":\n"
          << report.describe();
    }
  }
  out << (all_ok ? "defect corpus: all fixtures flagged\n"
                 : "defect corpus: FAILURES\n");
  return all_ok ? 0 : 1;
}

/// Lints one corpus fixture with normal reporting. The fixture is broken
/// by construction, so a clean report exits 0 only if the linter failed
/// to flag it — callers use this as the negative (must-fail) leg.
[[nodiscard]] int run_single_defect(const std::string& name, bool json,
                                    std::ostream& out, std::ostream& err) {
  for (const lint::Defect& defect : lint::defect_corpus()) {
    if (defect.name == name) {
      const lint::Report report = defect.lint();
      if (json) {
        out << "{\"defect\": \"" << defect.name << "\", \"diagnostics\": ";
        write_report_json(out, report, "  ", "");
        out << "}\n";
      } else {
        out << report.describe();
      }
      return report.clean() ? 0 : 1;
    }
  }
  err << "fvf_lint: unknown defect '" << name << "'; corpus:\n";
  for (const lint::Defect& defect : lint::defect_corpus()) {
    err << "  " << defect.name << " — " << defect.description << '\n';
  }
  return 2;
}

}  // namespace

int fvf_lint_cli(int argc, const char* const* argv, std::ostream& out,
                 std::ostream& err) {
  try {
    const CliParser cli(argc, argv);
    if (cli.has("help")) {
      out << kUsage;
      return 0;
    }
    if (cli.has("defect-corpus")) {
      return run_defect_corpus(out, err);
    }
    if (cli.has("defect")) {
      return run_single_defect(cli.get_string("defect", ""),
                               cli.has("json"), out, err);
    }

    const std::string level_name = cli.get_string("lint", "strict");
    lint::Level level = lint::Level::Strict;
    if (level_name == "warn") {
      level = lint::Level::Warn;
    } else if (level_name != "strict") {
      err << "fvf_lint: unknown --lint level '" << level_name << "'\n"
          << kUsage;
      return 2;
    }

    std::vector<std::string> known;
    for (const api::Kernel& kernel : api::kernels()) {
      known.emplace_back(kernel.name);
    }
    constexpr std::string_view kAll[] = {"all"};
    const std::string program =
        dataflow::parse_program_flag(cli, "all", known, kAll);
    const std::vector<std::string> selected =
        program == "all" ? known : std::vector<std::string>{program};

    const Extents3 extents{static_cast<i32>(cli.get_int("nx", 6)),
                           static_cast<i32>(cli.get_int("ny", 5)),
                           static_cast<i32>(cli.get_int("nz", 4))};
    if (extents.nx < 1 || extents.ny < 1 || extents.nz < 1) {
      err << "fvf_lint: extents must be positive\n" << kUsage;
      return 2;
    }
    const u64 seed = static_cast<u64>(cli.get_int("seed", 42));
    const bool reliability = cli.has("reliability");
    const Fixture fx(extents, seed);

    std::vector<LintJob> jobs;
    for (const std::string& name : selected) {
      jobs.push_back(LintJob{name, lint_kernel(fx, name, reliability)});
    }

    usize errors = 0;
    usize warnings = 0;
    const bool json = cli.has("json");
    if (json) {
      out << "{\"programs\": [";
    }
    for (usize i = 0; i < jobs.size(); ++i) {
      const LintJob& job = jobs[i];
      if (json) {
        out << (i == 0 ? "\n" : ",\n");
        out << "  {\"name\": \"" << job.name << "\", \"errors\": "
            << job.report.error_count() << ", \"warnings\": "
            << job.report.warning_count() << ", \"diagnostics\": ";
        write_report_json(out, job.report, "    ", "  ");
        out << "}";
      } else {
        out << "program " << job.name << " (" << extents.nx << 'x'
            << extents.ny << 'x' << extents.nz << "): ";
        if (job.report.clean()) {
          out << "clean\n";
        } else {
          out << job.report.error_count() << " error(s), "
              << job.report.warning_count() << " warning(s)\n"
              << job.report.describe();
        }
      }
      errors += job.report.error_count();
      warnings += job.report.warning_count();
    }
    if (json) {
      out << "\n]}\n";
    }
    return exit_code(errors, warnings, level);
  } catch (const std::exception& e) {
    err << "fvf_lint: " << e.what() << '\n';
    return 2;
  }
}

}  // namespace fvf::tools
