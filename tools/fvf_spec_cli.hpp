/// \file fvf_spec_cli.hpp
/// \brief The `fvf_spec` tool as a library entry point, so the test
///        suite can drive the exact tool (arguments, output, exit codes)
///        in-process.
#pragma once

#include <iosfwd>

namespace fvf::tools {

/// Runs the fvf_spec CLI: `--list-kernels` or `--dump-plan --program X`.
/// Exit codes: 0 ok, 2 usage error or unknown kernel. `fvf_lint
/// --program X` lints the same specs.
int fvf_spec_cli(int argc, const char* const* argv, std::ostream& out,
                 std::ostream& err);

}  // namespace fvf::tools
