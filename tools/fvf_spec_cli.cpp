#include "tools/fvf_spec_cli.hpp"

#include <iomanip>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "common/assert.hpp"
#include "common/cli.hpp"
#include "core/kernel_registry.hpp"
#include "dataflow/color_plan.hpp"
#include "dataflow/harness_cli.hpp"
#include "lint/lint.hpp"
#include "spec/program.hpp"
#include "spec/registry.hpp"
#include "wse/fabric.hpp"
#include "wse/memory.hpp"

namespace fvf::tools {

namespace {

constexpr const char* kUsage =
    "usage: fvf_spec --list-kernels\n"
    "       fvf_spec --dump-plan --program <kernel>\n"
    "       fvf_spec --lint --program <kernel> [--nx N --ny N --nz N]\n"
    "                [--reliability]\n";

int list_kernels(std::ostream& out) {
  out << "registered kernels:\n";
  for (const spec::KernelInfo& kernel : spec::registered_kernels()) {
    out << "  " << std::left << std::setw(10) << kernel.name
        << (kernel.compiled ? "[spec]   " : "[legacy] ") << kernel.summary
        << "\n";
  }
  return 0;
}

/// Resolves --program against the registry and requires the spec path.
[[nodiscard]] spec::KernelInfo require_compiled(const CliParser& cli,
                                                std::ostream& err,
                                                bool& failed) {
  std::vector<std::string> known;
  for (const spec::KernelInfo& kernel : spec::registered_kernels()) {
    known.push_back(kernel.name);
  }
  const std::string name = dataflow::parse_program_flag(cli, "", known);
  spec::KernelInfo kernel = spec::find_kernel(name);
  if (!kernel.compiled || kernel.compile_spec == nullptr) {
    err << "fvf_spec: '" << name
        << "' uses the legacy hand-written path; no spec to lower "
           "(spec kernels:";
    for (const spec::KernelInfo& k : spec::registered_kernels()) {
      if (k.compiled) {
        err << ' ' << k.name;
      }
    }
    err << ")\n";
    failed = true;
  }
  return kernel;
}

int dump_plan(const spec::KernelInfo& kernel, std::ostream& out) {
  const spec::CompiledSpec compiled = kernel.compile_spec();
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
int lint_spec(const spec::KernelInfo& kernel, const CliParser& cli,
              std::ostream& out) {
  const auto compiled =
      std::make_shared<const spec::CompiledSpec>(kernel.compile_spec());
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
  bindings.reliability.enabled = reliability;

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
    core::register_builtin_kernels();
    if (cli.has("help")) {
      out << kUsage;
      return 0;
    }
    if (cli.has("list-kernels")) {
      return list_kernels(out);
    }
    if (cli.has("dump-plan") || cli.has("lint")) {
      bool failed = false;
      const spec::KernelInfo kernel = require_compiled(cli, err, failed);
      if (failed) {
        return 2;
      }
      return cli.has("dump-plan") ? dump_plan(kernel, out)
                                  : lint_spec(kernel, cli, out);
    }
    err << kUsage;
    return 2;
  } catch (const std::exception& e) {
    err << "fvf_spec: " << e.what() << '\n';
    return 2;
  }
}

}  // namespace fvf::tools
