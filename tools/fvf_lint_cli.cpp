#include "tools/fvf_lint_cli.hpp"

#include <algorithm>
#include <ostream>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "api/kernels.hpp"
#include "common/cli.hpp"
#include "lint/defects.hpp"
#include "lint/lint.hpp"
#include "spec/launch.hpp"

namespace fvf::tools {

namespace {

[[nodiscard]] std::string usage() {
  return "usage: fvf_lint [--program all|" + api::kernel_name_list() +
         "]\n"
         "                [--nx N --ny N --nz N] [--lint warn|strict]\n"
         "                [--reliability] [--json]\n"
         "       fvf_lint --defect-corpus\n"
         "       fvf_lint --defect <name> [--json]\n";
}

struct LintJob {
  std::string_view name;
  lint::Report report;
};

/// Every spec the kernel launches, in launch order, loaded without
/// kernels onto an `extents` fabric and linted in full, in one report.
[[nodiscard]] lint::Report lint_kernel(const api::Kernel& kernel,
                                       Extents3 extents, bool reliability) {
  dataflow::HarnessOptions options;
  options.reliability = reliability;
  lint::Report combined;
  for (const api::SpecFactory make : kernel.specs) {
    lint::Report report = spec::lint_report(make(), extents, options);
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
      out << usage();
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
          << usage();
      return 2;
    }

    const std::span<const api::Kernel> selected =
        cli.get_string("program", "all") == "all"
            ? api::kernels()
            : std::span<const api::Kernel>(&api::parse_program_flag(cli), 1);

    const Extents3 extents{static_cast<i32>(cli.get_int("nx", 6)),
                           static_cast<i32>(cli.get_int("ny", 5)),
                           static_cast<i32>(cli.get_int("nz", 4))};
    if (extents.nx < 1 || extents.ny < 1 || extents.nz < 1) {
      err << "fvf_lint: extents must be positive\n" << usage();
      return 2;
    }
    const bool reliability = cli.has("reliability");

    std::vector<LintJob> jobs;
    for (const api::Kernel& kernel : selected) {
      jobs.push_back(
          LintJob{kernel.name, lint_kernel(kernel, extents, reliability)});
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
