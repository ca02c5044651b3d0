/// \file fvf_lint_cli.hpp
/// \brief The fvf_lint command-line tool as a library entry point, so the
///        test suite can drive the exact CLI (arguments, output, exit
///        codes) in-process.
///
/// Usage:
///
///   fvf_lint [--program all|<kernel>] [--nx N --ny N --nz N]
///            [--lint warn|strict] [--reliability] [--json]
///   fvf_lint --defect-corpus
///   fvf_lint --defect <name> [--json]
///
/// The first form lints every spec the named kernel(s) of api::kernels()
/// launch: each is compiled, its colors claimed and its programs loaded
/// without kernels (spec::lint_report), so what a kernel computes never
/// changes the report. `--reliability` enables the halo ack/retransmit
/// layer so the NACK color routes are verified too. The second form is
/// the linter's self-check: every seeded defect fixture must trip
/// exactly its diagnostic class. The third lints a single corpus fixture
/// with normal reporting, for exit-code tests.
///
/// Exit codes (mirroring bench_compare): 0 verification clean (or, for
/// --defect-corpus, every fixture behaved), 1 findings (with --lint
/// warn, warning-severity findings alone do not fail), 2 usage error.
#pragma once

#include <iosfwd>

namespace fvf::tools {

[[nodiscard]] int fvf_lint_cli(int argc, const char* const* argv,
                               std::ostream& out, std::ostream& err);

}  // namespace fvf::tools
