#include "tools/fvf_spec_cli.hpp"

#include <iomanip>
#include <ostream>
#include <string>

#include "api/kernels.hpp"
#include "common/cli.hpp"
#include "dataflow/color_plan.hpp"
#include "spec/compile.hpp"
#include "wse/memory.hpp"

namespace fvf::tools {

namespace {

constexpr const char* kUsage =
    "usage: fvf_spec --list-kernels\n"
    "       fvf_spec --dump-plan --program <kernel>\n";

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

void dump_plan(const spec::CompiledSpec& compiled, std::ostream& out) {
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
    if (cli.has("dump-plan")) {
      // Every spec the kernel launches, in launch order.
      for (const api::SpecFactory make : api::parse_program_flag(cli).specs) {
        dump_plan(spec::compile(make()), out);
      }
      return 0;
    }
    err << kUsage;
    return 2;
  } catch (const std::exception& e) {
    err << "fvf_spec: " << e.what() << '\n';
    return 2;
  }
}

}  // namespace fvf::tools
