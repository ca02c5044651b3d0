// Dataflow linear solver demo: conjugate gradients running ON the
// simulated wafer-scale engine (the paper's future-work direction,
// Section 9). The matrix-free TPFA operator is applied via the same
// 10-neighbor halo exchange as the flux kernel; the global dot products
// run over chain-reduction trees on the fabric.
//
//   ./dataflow_solver [--nx 8] [--ny 8] [--nz 8] [--tol 1e-6] [--threads N]
//                     [--fault-seed S --fault-rate R] [--trace-json out.json]
//                     [--lint off|warn|strict] [--hazard-check]
//
// --fault-rate > 0 runs the solve under seeded fault injection (link
// stalls, payload bit flips, transient PE halts at the same per-event
// rate); the halo ack/retransmit layer recovers dropped blocks and the
// run prints the injected/detected/recovered/unrecovered accounting.
#include <cmath>
#include <iostream>
#include <vector>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "dataflow/harness_cli.hpp"
#include "core/cg_program.hpp"
#include "core/linear_stencil.hpp"
#include "obs/phase.hpp"
#include "physics/problem.hpp"
#include "solver/krylov.hpp"

int main(int argc, const char** argv) {
  using namespace fvf;
  const CliParser cli(argc, argv);
  const i32 nx = static_cast<i32>(cli.get_int("nx", 8));
  const i32 ny = static_cast<i32>(cli.get_int("ny", 8));
  const i32 nz = static_cast<i32>(cli.get_int("nz", 8));
  const f32 tol = static_cast<f32>(cli.get_double("tol", 1e-6));

  const physics::FlowProblem problem = physics::make_benchmark_problem(
      Extents3{nx, ny, nz}, static_cast<u64>(cli.get_int("seed", 42)));
  // A short implicit step (1 h) gives the strong diagonal shift typical
  // of the early transient; the log-normal permeability still makes the
  // off-diagonal coupling heterogeneous across four decades.
  const f64 dt = cli.get_double("dt", 3600.0);
  const core::LinearStencil stencil = core::build_linear_stencil(problem, dt);
  const core::ManufacturedSystem sys = core::manufacture_solution(stencil);

  std::cout << "Solving the linearized TPFA pressure system A x = b on a "
            << nx << "x" << ny << " fabric (" << problem.cell_count()
            << " unknowns)\n";
  std::cout << "Operator symmetry defect: " << stencil.max_asymmetry()
            << "\n\n";

  // Jacobi-scaled system A~ y = b~ (x = D^{-1/2} y): the standard
  // diagonal preconditioning, applied as a pre-transform so the fabric
  // kernel stays plain CG.
  const core::ScaledSystem scaled = core::jacobi_scale(stencil);
  const Array3<f32> scaled_rhs = core::scale_rhs(scaled, sys.rhs);

  // --- fabric CG ------------------------------------------------------------
  core::CgKernelOptions kernel;
  kernel.relative_tolerance = tol;
  kernel.max_iterations = static_cast<i32>(cli.get_int("max-iterations", 500));
  dataflow::HarnessOptions options;
  // Tiled parallel event engine; every value produces bit-identical
  // results (the default stays serial).
  options.execution.threads = static_cast<i32>(cli.get_int("threads", 1));
  // Seeded fault scenario (same rate for all three fault classes); a
  // given seed/rate is bit-for-bit reproducible across --threads values.
  const f64 fault_rate = cli.get_double("fault-rate", 0.0);
  options.execution.fault = wse::FaultConfig::uniform(
      static_cast<u64>(cli.get_int("fault-seed", 1)), fault_rate);
  // Leave the (unprotected) AllReduce colors out of the flip campaign;
  // the halo retransmit layer recovers everything else.
  options.execution.fault.flip_color_mask = 0x00FFu;
  // Perfetto/Chrome trace_event timeline (open at ui.perfetto.dev);
  // includes fault instants when injection is on.
  options.trace_json_path = cli.get_string("trace-json", "");
  // Static lint level and dynamic hazard detector (both off by default;
  // the detector never changes results, only diagnoses).
  dataflow::apply_verification_flags(options, cli);
  const core::DataflowCgResult fabric =
      spec::run(core::cg_launch(scaled.stencil, scaled_rhs, kernel), options,
                core::gather_cg);
  dataflow::print_hazard_summary(fabric, options.execution.hazard_check,
                                 std::cout);
  if (fault_rate > 0.0) {
    const wse::FaultStats& fs = fabric.faults;
    std::cout << "Fault injection: " << fs.injected() << " injected ("
              << fs.stalls_injected << " stalls, " << fs.flips_injected
              << " flips, " << fs.halts_injected << " halts), "
              << fs.detected() << " detected, " << fs.recovered()
              << " recovered, " << fs.unrecovered() << " unrecovered\n\n";
  }
  if (!fabric.ok()) {
    std::cerr << "fabric CG failed: " << fabric.errors[0] << "\n";
    return 1;
  }
  const Array3<f32> fabric_x = core::unscale_solution(scaled, fabric.solution);

  // --- host CG reference (Jacobi-preconditioned, f64) --------------------------
  const usize n = static_cast<usize>(problem.cell_count());
  std::vector<f64> rhs(n), x_host(n, 0.0), diag(n);
  for (i64 i = 0; i < problem.cell_count(); ++i) {
    rhs[static_cast<usize>(i)] = sys.rhs[i];
    diag[static_cast<usize>(i)] = stencil.diag[i];
  }
  solver::KrylovOptions host_options;
  host_options.relative_tolerance = tol;
  host_options.max_iterations = kernel.max_iterations;
  const solver::KrylovResult host = solver::conjugate_gradient(
      [&stencil](std::span<const f64> u, std::span<f64> out) {
        stencil.apply_f64(u, out);
      },
      rhs, x_host, host_options,
      solver::make_jacobi_preconditioner(std::move(diag)));

  // --- compare -----------------------------------------------------------------
  f64 err_exact = 0.0, err_host = 0.0, scale = 0.0;
  for (i64 i = 0; i < problem.cell_count(); ++i) {
    err_exact = std::max(err_exact, std::abs(static_cast<f64>(fabric_x[i]) -
                                             sys.exact[i]));
    err_host = std::max(err_host, std::abs(static_cast<f64>(fabric_x[i]) -
                                           x_host[static_cast<usize>(i)]));
    scale = std::max(scale, std::abs(static_cast<f64>(sys.exact[i])));
  }

  TextTable table({"metric", "fabric CG", "host CG (f64)"},
                  {Align::Left, Align::Right, Align::Right});
  table.add_row({"converged", fabric.converged ? "yes" : "NO",
                 host.converged ? "yes" : "NO"});
  table.add_row({"iterations", std::to_string(fabric.iterations),
                 std::to_string(host.iterations)});
  table.add_row({"||r0||", format_fixed(fabric.initial_residual_norm, 4),
                 format_fixed(host.initial_residual_norm, 4)});
  table.add_row({"||r||", format_fixed(fabric.final_residual_norm, 8),
                 format_fixed(host.final_residual_norm, 8)});
  table.add_row({"simulated device time",
                 format_fixed(fabric.device_seconds * 1e6, 1) + " us", "-"});
  table.add_row({"fabric wavelets",
                 format_count(static_cast<i64>(
                     fabric.counters.wavelets_sent)),
                 "-"});
  std::cout << table.render();
  if (const f64 phase_total = fabric.phase_cycles.total();
      phase_total > 0.0) {
    std::cout << "\nfabric time split:";
    for (u8 p = 0; p < obs::kPhaseCount; ++p) {
      const obs::Phase phase = static_cast<obs::Phase>(p);
      std::cout << (p == 0 ? " " : ", ") << obs::phase_name(phase) << " "
                << format_fixed(
                       fabric.phase_cycles[phase] / phase_total * 100.0, 1)
                << "%";
    }
    std::cout << "\n";
  }
  std::cout << "\nmax |x_fabric - x_exact| / |x_exact| = "
            << format_fixed(err_exact / scale, 8) << "\n";
  std::cout << "max |x_fabric - x_host|  / |x_exact| = "
            << format_fixed(err_host / scale, 8) << "\n";
  return fabric.converged && err_exact < scale * 1e-2 ? 0 : 1;
}
