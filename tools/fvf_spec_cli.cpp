#include "tools/fvf_spec_cli.hpp"

#include <algorithm>
#include <iomanip>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "api/kernels.hpp"
#include "common/assert.hpp"
#include "common/cli.hpp"
#include "dataflow/color_plan.hpp"
#include "dataflow/harness_cli.hpp"
#include "lint/lint.hpp"
#include "spec/compile.hpp"
#include "spec/program.hpp"
#include "wse/fabric.hpp"
#include "wse/memory.hpp"

namespace fvf::tools {

namespace {

constexpr const char* kUsage =
    "usage: fvf_spec --list-kernels\n"
    "       fvf_spec --dump-plan --program <kernel>\n"
    "       fvf_spec --lint --program <kernel> [--nx N --ny N --nz N]\n"
    "                [--reliability]\n";

/// The names of the specs `kernel` launches, joined with '+'.
[[nodiscard]] std::string spec_names(const api::Kernel& kernel) {
  std::string names;
  for (const api::SpecFactory make : kernel.specs) {
    if (!names.empty()) {
      names += '+';
    }
    names += make().name;
  }
  return names;
}

int list_kernels(std::ostream& out) {
  out << "registered kernels:\n";
  for (const api::Kernel& kernel : api::kernels()) {
    out << "  " << std::left << std::setw(10) << kernel.name << std::setw(14)
        << spec_names(kernel) << kernel.summary << "\n";
  }
  return 0;
}

/// Resolves --program against the kernel table.
[[nodiscard]] const api::Kernel& require_kernel(const CliParser& cli) {
  std::vector<std::string> known;
  for (const api::Kernel& kernel : api::kernels()) {
    known.emplace_back(kernel.name);
  }
  return *api::find_kernel(dataflow::parse_program_flag(cli, "", known));
}

int dump_plan(const spec::CompiledSpec& compiled, std::ostream& out) {
  out << compiled.describe();

  dataflow::ColorPlan plan;
  compiled.claim_colors(plan, /*reliability=*/false);
  out << "color plan after claiming:\n" << plan.describe() << "\n";

  constexpr i32 kNz = 4;
  out << "footprint (nz=" << kNz
      << "): data=" << compiled.data_footprint_bytes(kNz)
      << " bytes, code=" << compiled.code_footprint_bytes()
      << " bytes (budget " << wse::PeMemory::kDefaultBudget << ")\n";
  out << "shape digest: 0x" << std::hex << compiled.shape_digest()
      << std::dec << "\n";
  return 0;
}

/// Static verification from the spec alone: claims the colors on a fresh
/// plan, loads a kernel-less generated program onto a small fabric, and
/// runs the full linter (claim audit, routing, handlers, memory).
int lint_spec(std::shared_ptr<const spec::CompiledSpec> compiled,
              const CliParser& cli, std::ostream& out) {
  const bool reliability = cli.has("reliability");
  const i32 nx = static_cast<i32>(cli.get_int("nx", 4));
  const i32 ny = static_cast<i32>(cli.get_int("ny", 3));
  const i32 nz = static_cast<i32>(cli.get_int("nz", 2));
  FVF_REQUIRE_MSG(nx >= 1 && ny >= 1 && nz >= 1,
                  "fvf_spec: extents must be positive");

  auto plan = std::make_shared<dataflow::ColorPlan>();
  const spec::CompiledSpec::Claims claims =
      compiled->claim_colors(*plan, reliability);
  spec::SpecPeProgram::LaunchBindings bindings;
  bindings.reduce = claims.reduce;
  bindings.reliability = reliability;

  wse::Fabric fabric(nx, ny);
  const wse::ProgramFactory factory =
      [compiled, nz, bindings](
          Coord2 coord, Coord2 fabric_size) -> std::unique_ptr<wse::PeProgram> {
    return std::make_unique<spec::SpecPeProgram>(coord, fabric_size, nz,
                                                 compiled, bindings, nullptr);
  };
  fabric.load(factory);

  lint::Options options;
  options.probe_factory = factory;
  options.memory_budget = wse::PeMemory::kDefaultBudget;
  options.color_claimed = [plan](wse::Color c) { return plan->claimed(c); };
  options.color_map = [plan] { return plan->describe(); };
  const lint::Report report = lint::run(fabric, options);

  out << "spec '" << compiled->name() << "' on " << nx << 'x' << ny
      << " fabric (nz=" << nz << "): ";
  if (report.clean()) {
    out << "clean\n";
    return 0;
  }
  out << report.error_count() << " error(s), " << report.warning_count()
      << " warning(s)\n"
      << report.describe();
  return 1;
}

}  // namespace

int fvf_spec_cli(int argc, const char* const* argv, std::ostream& out,
                 std::ostream& err) {
  try {
    const CliParser cli(argc, argv);
    if (cli.has("help")) {
      out << kUsage;
      return 0;
    }
    if (cli.has("list-kernels")) {
      return list_kernels(out);
    }
    if (cli.has("dump-plan") || cli.has("lint")) {
      // Every spec the kernel launches, in launch order; the worst exit
      // code wins.
      int code = 0;
      for (const api::SpecFactory make : require_kernel(cli).specs) {
        auto compiled =
            std::make_shared<const spec::CompiledSpec>(spec::compile(make()));
        code = std::max(code, cli.has("dump-plan")
                                  ? dump_plan(*compiled, out)
                                  : lint_spec(std::move(compiled), cli, out));
      }
      return code;
    }
    err << kUsage;
    return 2;
  } catch (const std::exception& e) {
    err << "fvf_spec: " << e.what() << '\n';
    return 2;
  }
}

}  // namespace fvf::tools
