#include "core/fabric_impes.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"
#include "physics/residual.hpp"

namespace fvf::core {

FabricImpesSimulator::FabricImpesSimulator(
    const physics::FlowProblem& problem, FabricImpesOptions options)
    : problem_(problem),
      options_(options),
      saturation_(problem.extents(), 0.0f),
      pressure_(problem.extents(),
                static_cast<f32>(options.anchor_pressure)),
      well_rate_(problem.extents(), 0.0f) {
  FVF_REQUIRE(options_.porosity > 0.0 && options_.porosity < 1.0);
  FVF_REQUIRE(problem.extents().contains(options_.anchor_cell.x,
                                         options_.anchor_cell.y,
                                         options_.anchor_cell.z));
}

void FabricImpesSimulator::add_well(Coord3 cell, f64 volume_rate) {
  FVF_REQUIRE(problem_.extents().contains(cell.x, cell.y, cell.z));
  FVF_REQUIRE(volume_rate >= 0.0);
  well_rate_(cell.x, cell.y, cell.z) += static_cast<f32>(volume_rate);
}

void FabricImpesSimulator::restore_state(const Array3<f32>& saturation,
                                         const Array3<f32>& pressure) {
  FVF_REQUIRE_MSG(saturation.extents() == problem_.extents() &&
                      pressure.extents() == problem_.extents(),
                  "checkpointed fields do not match the problem extents");
  saturation_ = saturation;
  pressure_ = pressure;
}

f64 FabricImpesSimulator::co2_in_place() const {
  const f64 pore_volume = problem_.mesh().cell_volume() * options_.porosity;
  f64 total = 0.0;
  for (i64 i = 0; i < saturation_.size(); ++i) {
    total += static_cast<f64>(saturation_[i]) * pore_volume;
  }
  return total;
}

ScaledSystem FabricImpesSimulator::pressure_system(
    Array3<f32>& scaled_rhs) const {
  const physics::FlowProblem& problem = problem_;
  const Array3<f32>& saturation = saturation_;
  const Array3<f32>& pressure = pressure_;
  const Coord3 anchor = options_.anchor_cell;
  const Extents3 ext = problem.extents();
  const mesh::CartesianMesh& m = problem.mesh();
  const TransportFluid& fl = options_.fluid;
  const f64 g = fl.gravity;
  const Array3<f32> elev = physics::cell_elevations(m);

  LinearStencil stencil;
  stencil.extents = ext;
  stencil.diag = Array3<f32>(ext);
  for (auto& c : stencil.offdiag) {
    c = Array3<f32>(ext);
  }
  Array3<f32> rhs(ext);

  const auto kr = [&](f64 s) {
    return std::pow(std::clamp(s, 0.0, 1.0),
                    static_cast<f64>(fl.corey_exponent));
  };

  // Lagged per-face phase mobilities with phase-potential upwinding on
  // the previous pressure; the total-mobility coefficient is shared by
  // both sides, so the operator is symmetric (SPD with the penalty).
  f64 diag_sum = 0.0;
  for (i32 z = 0; z < ext.nz; ++z) {
    for (i32 y = 0; y < ext.ny; ++y) {
      for (i32 x = 0; x < ext.nx; ++x) {
        f64 diag = 0.0;
        for (const mesh::Face f : mesh::kAllFaces) {
          const auto nb = m.neighbor(x, y, z, f);
          if (!nb) {
            continue;
          }
          const f64 t = problem.transmissibility().at(x, y, z, f);
          const f64 dz = static_cast<f64>(elev(x, y, z)) -
                         elev(nb->x, nb->y, nb->z);
          const f64 dp = static_cast<f64>(pressure(x, y, z)) -
                         pressure(nb->x, nb->y, nb->z);
          const f64 dphi_n = dp + fl.density_nonwetting * g * dz;
          const f64 dphi_w = dp + fl.density_wetting * g * dz;
          const f64 s_n = dphi_n > 0.0 ? saturation(x, y, z)
                                       : saturation(nb->x, nb->y, nb->z);
          const f64 s_w = dphi_w > 0.0 ? saturation(x, y, z)
                                       : saturation(nb->x, nb->y, nb->z);
          const f64 mob_n = kr(s_n) / fl.viscosity_nonwetting;
          const f64 mob_w = kr(1.0 - s_w) / fl.viscosity_wetting;
          const f64 coeff = t * (mob_n + mob_w);
          diag += coeff;
          stencil.offdiag[static_cast<usize>(f)](x, y, z) =
              static_cast<f32>(-coeff);
          // Gravity contribution to this cell's RHS (cell-based: each
          // side adds its own half; antisymmetric dz keeps it globally
          // consistent).
          rhs(x, y, z) -= static_cast<f32>(
              t * g * dz * (mob_n * fl.density_nonwetting +
                            mob_w * fl.density_wetting));
        }
        rhs(x, y, z) += well_rate_(x, y, z);
        stencil.diag(x, y, z) = static_cast<f32>(diag);
        diag_sum += diag;
      }
    }
  }

  // Anchor penalty pins the incompressible system's pressure level.
  const f64 penalty =
      std::max(diag_sum / static_cast<f64>(ext.cell_count()), 1e-30) * 1e3;
  stencil.diag(anchor.x, anchor.y, anchor.z) += static_cast<f32>(penalty);
  rhs(anchor.x, anchor.y, anchor.z) +=
      static_cast<f32>(penalty * options_.anchor_pressure);
  ScaledSystem scaled = jacobi_scale(stencil);
  scaled_rhs = scale_rhs(scaled, rhs);
  return scaled;
}

TransportKernelOptions FabricImpesSimulator::transport_kernel(
    f64 seconds) const {
  TransportKernelOptions kernel;
  kernel.fluid = options_.fluid;
  kernel.cfl = options_.cfl;
  kernel.window_seconds = seconds;
  kernel.max_substeps = options_.max_substeps_per_window;
  kernel.pore_volume =
      static_cast<f32>(problem_.mesh().cell_volume() * options_.porosity);
  return kernel;
}

namespace {

/// Adds a finished fabric launch's accounting to `window` and hands back
/// its fields.
template <typename Fields>
Fields account(FabricImpesWindow& window,
               spec::Result<Fields, dataflow::RunInfo> done) {
  FVF_REQUIRE_MSG(done.ok(), "fabric launch failed: " << done.errors.front());
  window.device_seconds += done.device_seconds;
  window.hazards += done.hazards_total;
  dataflow::accumulate(window.fabric, done);
  return std::move(static_cast<Fields&>(done));
}

/// The same for a gpusim launch.
template <typename Fields>
Fields account(FabricImpesWindow& window,
               spec::Result<Fields, gpusim::GpuRunInfo> done) {
  gpusim::accumulate(window.gpu, done);
  window.device_seconds += done.device_seconds;
  return std::move(static_cast<Fields&>(done));
}

}  // namespace

FabricImpesWindow FabricImpesSimulator::advance_window(f64 seconds,
                                                       spec::Backend backend) {
  FVF_REQUIRE(seconds > 0.0);
  FabricImpesWindow window;

  const auto into_window = [&window](auto done) {
    return account(window, std::move(done));
  };

  Array3<f32> rhs;
  const ScaledSystem scaled = pressure_system(rhs);
  const CgFields cg =
      spec::run_on(backend, cg_launch(scaled.stencil, rhs, options_.cg),
                   options_.harness, gather_cg, into_window);
  FVF_REQUIRE_MSG(cg.converged, "pressure solve did not converge ("
                                    << cg.iterations << " iterations, ||r|| "
                                    << cg.final_residual_norm << ")");
  pressure_ = unscale_solution(scaled, cg.solution);
  window.cg_iterations = cg.iterations;
  window.cg_converged = cg.converged;

  const TransportFields transport = spec::run_on(
      backend,
      transport_launch(problem_, saturation_, pressure_, well_rate_,
                       transport_kernel(seconds)),
      options_.harness, gather_transport, into_window);
  saturation_ = transport.saturation;
  window.transport_substeps = transport.substeps;
  return window;
}

}  // namespace fvf::core
