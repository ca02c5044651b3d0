// Cross-backend parity: the executed kernels against the serial oracles
// (bitwise), the fvf::api entry point across both backends, the launch
// and occupancy model invariants, and the serve-layer backend routing
// and memo isolation.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <string>
#include <string_view>

#include "api/api.hpp"
#include "api/backend.hpp"
#include "common/assert.hpp"
#include "core/cg_program.hpp"
#include "core/linear_stencil.hpp"
#include "core/transport_program.hpp"
#include "core/wave_program.hpp"
#include "gpusim/launch.hpp"
#include "gpusim/occupancy.hpp"
#include "physics/problem.hpp"
#include "serve/request.hpp"
#include "serve/service.hpp"
#include "spec/heat.hpp"

namespace fvf {
namespace {

/// Bitwise field comparison; reports the first mismatching cell.
void expect_bitwise_equal(const Array3<f32>& a, const Array3<f32>& b) {
  ASSERT_EQ(a.extents(), b.extents());
  for (i64 i = 0; i < a.size(); ++i) {
    ASSERT_EQ(std::bit_cast<u32>(a[i]), std::bit_cast<u32>(b[i]))
        << "first bitwise mismatch at linear index " << i << ": " << a[i]
        << " vs " << b[i];
  }
}

f64 max_rel_diff(const Array3<f32>& a, const Array3<f32>& b) {
  f64 scale = 0.0;
  for (i64 i = 0; i < a.size(); ++i) {
    scale = std::max(scale, std::abs(static_cast<f64>(a[i])));
  }
  f64 max_diff = 0.0;
  for (i64 i = 0; i < a.size(); ++i) {
    const f64 diff = std::abs(static_cast<f64>(a[i]) - static_cast<f64>(b[i]));
    max_diff = std::max(max_diff, scale > 0.0 ? diff / scale : diff);
  }
  return max_diff;
}

// ------------------------------------------------------- occupancy ----

TEST(OccupancyModelTest, PartialWarpBlockIsChargedAtWarpGranularity) {
  // A 33-thread block occupies two full warps of scheduler slots and
  // registers. With the default register-heavy kernel (64 regs/thread):
  // regs/block = 64 * 2 * 32 = 4096 -> 16 blocks by registers, which is
  // the binding limit (threads/warps/blocks allow 32).
  const gpusim::OccupancyEstimate estimate =
      gpusim::estimate_occupancy(gpusim::BlockDim{33, 1, 1});
  EXPECT_EQ(estimate.blocks_per_sm, 16);
  EXPECT_EQ(estimate.warps_per_sm, 32);
  EXPECT_DOUBLE_EQ(estimate.theoretical_occupancy, 0.5);
}

TEST(OccupancyModelTest, TinyBlocksAreLimitedByWarpSlotsNotThreads) {
  // A 1-thread block still occupies one warp: 64 warp slots and the
  // 32-block ceiling bound residency, not 2048 raw thread slots.
  const gpusim::OccupancyEstimate estimate = gpusim::estimate_occupancy(
      gpusim::BlockDim{1, 1, 1}, gpusim::KernelResources{.registers_per_thread = 16});
  EXPECT_EQ(estimate.blocks_per_sm, 32);
  EXPECT_EQ(estimate.warps_per_sm, 32);
  EXPECT_DOUBLE_EQ(estimate.theoretical_occupancy, 0.5);
}

TEST(OccupancyModelTest, PaperBlockKeepsItsCalibratedOccupancy) {
  // The warp-granularity fix must not move the paper's 16x8x8 numbers:
  // 1024 threads = 32 warps exactly, register-bound to one block.
  const gpusim::OccupancyEstimate estimate =
      gpusim::estimate_occupancy(gpusim::BlockDim{16, 8, 8});
  EXPECT_EQ(estimate.blocks_per_sm, 1);
  EXPECT_EQ(estimate.warps_per_sm, 32);
  EXPECT_DOUBLE_EQ(estimate.theoretical_occupancy, 0.5);
  EXPECT_NEAR(estimate.achieved_warps_per_sm, 30.79, 1e-9);
}

// ---------------------------------------------------------- launch ----

TEST(LaunchTest, EmptyAndNegativeDomainsAreRejectedBeforeAnyWork) {
  gpusim::Device device;
  const gpusim::KernelTraffic traffic{.dram_bytes = 1.0, .flops = 1.0};
  auto noop = [](i32, i32, i32) {};
  EXPECT_THROW((void)gpusim::launch_3d(device, Extents3{0, 4, 4},
                                       gpusim::BlockDim{4, 4, 4}, traffic,
                                       noop),
               ContractViolation);
  EXPECT_THROW((void)gpusim::launch_3d(device, Extents3{4, -1, 4},
                                       gpusim::BlockDim{4, 4, 4}, traffic,
                                       noop),
               ContractViolation);
  // The rejected launches must leave the device timeline untouched: no
  // kernel recorded, no simulated time advanced.
  EXPECT_EQ(device.kernels_launched(), 0u);
  EXPECT_DOUBLE_EQ(
      gpusim::Device::elapsed_seconds(gpusim::DeviceEvent{}, device.record_event()),
      0.0);
}

TEST(LaunchTest, StatsCountFullGridThreadsAndInDomainCells) {
  gpusim::Device device;
  const Extents3 domain{5, 3, 2};
  const gpusim::BlockDim block{4, 2, 2};
  i64 visited = 0;
  const gpusim::LaunchStats stats = gpusim::launch_3d(
      device, domain, block, gpusim::KernelTraffic{.dram_bytes = 1.0},
      [&](i32, i32, i32) { ++visited; });
  // Grid is ceil-div: 2 x 2 x 1 blocks of 16 threads each.
  EXPECT_EQ(stats.threads_launched, 4 * 16);
  EXPECT_EQ(stats.cells_processed, domain.cell_count());
  EXPECT_EQ(visited, domain.cell_count());
  EXPECT_EQ(device.kernels_launched(), 1u);
  EXPECT_GT(stats.simulated_seconds, 0.0);
}

// ----------------------------------- executor vs serial oracles ------

TEST(GpusimOracleTest, TransportMatchesReferenceHostBitwise) {
  const Extents3 ext{6, 6, 4};
  const physics::FlowProblem problem = physics::make_benchmark_problem(ext, 42);
  const Array3<f32> saturation = api::transport_initial_saturation(ext);
  const Array3<f32> wells = api::transport_well_rate(ext);

  core::TransportKernelOptions kernel;
  kernel.window_seconds = 900.0;
  kernel.pore_volume = static_cast<f32>(problem.mesh().cell_volume() * 0.2);

  const auto gpu = spec::execute(
      core::transport_launch(
          problem, saturation, problem.initial_pressure(), wells, kernel),
      core::gather_transport);
  const Array3<f32> reference = core::transport_reference_host(
      problem, saturation, problem.initial_pressure(), wells, kernel);

  EXPECT_GT(gpu.substeps, 0);
  EXPECT_GT(gpu.kernels_launched, 0u);
  expect_bitwise_equal(gpu.saturation, reference);
}

TEST(GpusimOracleTest, HeatMatchesReferenceHostBitwise) {
  const Extents3 ext{7, 5, 3};
  const Array3<f32> initial = spec::heat_initial_field(ext, 42);

  spec::HeatKernelOptions kernel;
  kernel.steps = 6;
  const auto gpu =
      spec::execute(spec::heat_launch(initial, kernel), spec::gather_heat);
  const Array3<f32> reference = spec::heat_reference_host(initial, kernel);

  EXPECT_EQ(gpu.steps_completed, 6);
  expect_bitwise_equal(gpu.field, reference);
}

/// Serial dot product in the executor's order: each PE column sums its
/// cells bottom to top, then the column partials fold in the all-reduce
/// trees' order (each row from its east end, then column 0 from its
/// north end). The product rounds to f32 before the add here and on the
/// device (fp contraction is off build-wide), so the sums agree bitwise.
f32 raster_dot(const Array3<f32>& a, const Array3<f32>& b) {
  const Extents3 ext = a.extents();
  Array3<f32> partial(Extents3{ext.nx, ext.ny, 1});
  for (i32 y = 0; y < ext.ny; ++y) {
    for (i32 x = 0; x < ext.nx; ++x) {
      f32 sum = 0.0f;
      for (i32 z = 0; z < ext.nz; ++z) {
        sum += a(x, y, z) * b(x, y, z);
      }
      partial(x, y, 0) = sum;
    }
  }
  f32 column = 0.0f;
  for (i32 y = ext.ny - 1; y >= 0; --y) {
    f32 row = partial(ext.nx - 1, y, 0);
    for (i32 x = ext.nx - 2; x >= 0; --x) {
      row = partial(x, y, 0) + row;
    }
    column = y == ext.ny - 1 ? row : row + column;
  }
  return column;
}

/// Serial stencil apply in the executor's face order: the diagonal, then
/// the vertical couplings (z+ then z-), then every in-domain XY neighbor
/// in mesh::kAllFaces order, each term accumulated as c * u + acc.
Array3<f32> raster_apply(const core::LinearStencil& stencil,
                         const Array3<f32>& u) {
  const Extents3 ext = stencil.extents;
  const auto term = [&](mesh::Face f, i32 x, i32 y, i32 z, f32 acc) {
    const Coord3 off = mesh::face_offset(f);
    if (!ext.contains(x + off.x, y + off.y, z + off.z)) {
      return acc;
    }
    return stencil.offdiag[static_cast<usize>(f)](x, y, z) *
               u(x + off.x, y + off.y, z + off.z) +
           acc;
  };
  Array3<f32> out(ext);
  for (i32 z = 0; z < ext.nz; ++z) {
    for (i32 y = 0; y < ext.ny; ++y) {
      for (i32 x = 0; x < ext.nx; ++x) {
        f32 acc = stencil.diag(x, y, z) * u(x, y, z);
        acc = term(mesh::Face::ZPlus, x, y, z, acc);
        acc = term(mesh::Face::ZMinus, x, y, z, acc);
        for (const mesh::Face f : mesh::kAllFaces) {
          if (!mesh::is_vertical(f)) {
            acc = term(f, x, y, z, acc);
          }
        }
        out(x, y, z) = acc;
      }
    }
  }
  return out;
}

TEST(GpusimOracleTest, CgMatchesRasterOracleBitwise) {
  const physics::FlowProblem problem =
      physics::make_benchmark_problem(Extents3{6, 6, 3}, 42);
  const core::LinearStencil stencil =
      core::build_linear_stencil(problem, 3600.0);
  const core::ScaledSystem scaled = core::jacobi_scale(stencil);
  const core::ManufacturedSystem manufactured =
      core::manufacture_solution(scaled.stencil);

  core::CgKernelOptions kernel;
  kernel.max_iterations = 200;
  kernel.relative_tolerance = 1e-5f;
  const auto gpu = spec::execute(
      core::cg_launch(scaled.stencil, manufactured.rhs, kernel),
      core::gather_cg);

  // Serial oracle: the identical decision sequence with the executor's
  // canonical-order applies and dots, written as the kernel writes its
  // vector updates.
  const Extents3 ext = scaled.stencil.extents;
  Array3<f32> x(ext);
  Array3<f32> r = manufactured.rhs;
  Array3<f32> d = manufactured.rhs;
  i32 iterations = 0;
  bool converged = false;
  f32 rho = raster_dot(r, r);
  const f64 rho0 = static_cast<f64>(rho);
  if (rho0 <= 0.0) {
    converged = true;
  } else {
    const f32 tol2 = kernel.relative_tolerance * kernel.relative_tolerance;
    while (true) {
      const Array3<f32> q = raster_apply(scaled.stencil, d);
      const f32 dot_dq = raster_dot(d, q);
      ASSERT_NE(dot_dq, 0.0f);
      const f32 alpha = rho / dot_dq;
      for (i64 i = 0; i < x.size(); ++i) {
        x[i] = x[i] + d[i] * alpha;
        r[i] = r[i] - q[i] * alpha;
      }
      const f32 rr = raster_dot(r, r);
      ++iterations;
      if (rr <= tol2 * static_cast<f32>(rho0) ||
          iterations >= kernel.max_iterations) {
        converged = rr <= tol2 * static_cast<f32>(rho0);
        break;
      }
      const f32 beta = rr / rho;
      rho = rr;
      for (i64 i = 0; i < d.size(); ++i) {
        d[i] = d[i] * beta + r[i];
      }
    }
  }

  EXPECT_TRUE(gpu.converged);
  EXPECT_EQ(gpu.converged, converged);
  EXPECT_EQ(gpu.iterations, iterations);
  EXPECT_GT(gpu.kernels_launched, 0u);
  expect_bitwise_equal(gpu.solution, x);
}

TEST(GpusimOracleTest, WaveMatchesRasterOracleBitwise) {
  const physics::FlowProblem problem =
      physics::make_benchmark_problem(Extents3{6, 6, 3}, 42);
  const core::ScaledSystem scaled =
      core::jacobi_scale(core::build_linear_stencil(problem, 3600.0));
  const Array3<f32> initial =
      core::gaussian_pulse(scaled.stencil.extents, 1.0, 2.0);
  const f32 kappa = 0.4f;
  const i32 steps = 5;

  core::WaveKernelOptions kernel;
  kernel.timesteps = steps;
  kernel.kappa = kappa;
  const auto gpu = spec::execute(
      core::wave_launch(scaled.stencil, initial, kernel), core::gather_wave);

  // Leapfrog oracle with the kernel's per-cell update order,
  // 2u + (-u_prev + q (-kappa)). (The f64 wave_reference_host is not
  // bit-comparable; this one is.)
  Array3<f32> u_prev = initial;
  Array3<f32> u_cur = initial;
  for (i32 step = 0; step < steps; ++step) {
    const Array3<f32> q = raster_apply(scaled.stencil, u_cur);
    Array3<f32> u_next(scaled.stencil.extents);
    for (i64 i = 0; i < u_next.size(); ++i) {
      u_next[i] = u_cur[i] * 2.0f + (-u_prev[i] + q[i] * -kappa);
    }
    u_prev = u_cur;
    u_cur = u_next;
  }

  EXPECT_GT(gpu.kernels_launched, 0u);
  expect_bitwise_equal(gpu.field, u_cur);
}

// -------------------------------------------- fvf::api dispatch ------

/// Kernels whose gpusim result must equal the fabric result bitwise: the
/// ones that fold neighbor data in canonical order (cg, wave and impes
/// accumulate faces in the fabric's arrival order).
bool bitwise_kernel(std::string_view kernel) {
  return kernel == "tpfa" || kernel == "transport" || kernel == "heat";
}

TEST(FieldEquationApiTest, EveryRegistryKernelRunsOnBothBackends) {
  i32 kernels_checked = 0;
  for (const api::Kernel& kernel : api::kernels()) {
    // Iterations and dt take the table defaults.
    api::FieldEquationSpec spec;
    spec.kernel = kernel.name;
    spec.nx = 6;
    spec.ny = 6;
    spec.nz = 3;

    const api::FieldEquationResult wse =
        api::run_field_equation(spec, api::Backend::Wse);
    const api::FieldEquationResult gpu =
        api::run_field_equation(spec, api::Backend::Gpusim);

    EXPECT_EQ(wse.backend, api::Backend::Wse);
    EXPECT_EQ(gpu.backend, api::Backend::Gpusim);
    EXPECT_EQ(wse.kernel, kernel.name);
    EXPECT_EQ(gpu.kernel, kernel.name);
    ASSERT_EQ(wse.field.extents(), gpu.field.extents()) << kernel.name;
    EXPECT_NE(wse.result_digest, 0u) << kernel.name;
    EXPECT_NE(gpu.result_digest, 0u) << kernel.name;
    EXPECT_GT(wse.device_seconds, 0.0) << kernel.name;
    EXPECT_GT(gpu.device_seconds, 0.0) << kernel.name;
    EXPECT_GT(gpu.gpu.kernels_launched, 0u) << kernel.name;

    if (bitwise_kernel(kernel.name)) {
      EXPECT_EQ(wse.result_digest, gpu.result_digest)
          << kernel.name << ": order-insensitive kernels must agree bitwise";
      expect_bitwise_equal(wse.field, gpu.field);
    } else {
      // The fabric folds CG/wave faces in arrival order, the executor in
      // mesh::kAllFaces order: the f32 sums agree to tolerance only.
      EXPECT_LT(max_rel_diff(wse.field, gpu.field), 1e-3) << kernel.name;
    }
    ++kernels_checked;
  }
  EXPECT_EQ(kernels_checked, 6);
}

TEST(FieldEquationApiTest, ResultsAreDeterministicPerBackend) {
  api::FieldEquationSpec spec;
  spec.kernel = "cg";
  spec.nx = 6;
  spec.ny = 6;
  spec.nz = 3;
  spec.iterations = 120;
  for (const api::Backend backend :
       {api::Backend::Wse, api::Backend::Gpusim}) {
    const api::FieldEquationResult first =
        api::run_field_equation(spec, backend);
    const api::FieldEquationResult second =
        api::run_field_equation(spec, backend);
    EXPECT_EQ(first.result_digest, second.result_digest);
    EXPECT_DOUBLE_EQ(first.device_seconds, second.device_seconds);
  }
}

TEST(FieldEquationApiTest, EveryKernelTakesTheCallersLaunchOptions) {
  // A wse run launches under the caller's HarnessOptions whole: at half
  // the clock rate the same cycles take exactly twice the simulated time.
  for (const api::Kernel& kernel : api::kernels()) {
    api::FieldEquationSpec raw;
    raw.kernel = kernel.name;
    raw.nx = 4;
    raw.ny = 4;
    raw.nz = 2;
    const api::FieldEquationSpec spec = api::resolve_spec(raw);
    api::RunContext context = api::fresh_context(kernel, spec);
    const api::FieldEquationResult base =
        kernel.run(spec, api::Backend::Wse, context);
    context.harness.timings.clock_hz /= 2.0;
    const api::FieldEquationResult slow =
        kernel.run(spec, api::Backend::Wse, context);
    ASSERT_GT(base.device_seconds, 0.0) << kernel.name;
    EXPECT_EQ(slow.device_seconds, 2.0 * base.device_seconds) << kernel.name;
  }
}

TEST(FieldEquationApiTest, UnknownKernelFailsLoudlyWithInventory) {
  api::FieldEquationSpec spec;
  spec.kernel = "maxwell";
  try {
    (void)api::run_field_equation(spec, api::Backend::Wse);
    FAIL() << "unknown kernel must throw";
  } catch (const ContractViolation& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("maxwell"), std::string::npos);
    EXPECT_NE(message.find("tpfa"), std::string::npos)
        << "error must list the registered kernels: " << message;
  }
}

TEST(BackendParseTest, UnknownBackendFailsLoudlyWithInventory) {
  EXPECT_EQ(api::parse_backend("wse"), api::Backend::Wse);
  EXPECT_EQ(api::parse_backend("gpusim"), api::Backend::Gpusim);
  try {
    (void)api::parse_backend("cuda");
    FAIL() << "unknown backend must throw";
  } catch (const ContractViolation& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("cuda"), std::string::npos);
    EXPECT_NE(message.find("wse"), std::string::npos) << message;
    EXPECT_NE(message.find("gpusim"), std::string::npos) << message;
  }
}

// --------------------------------------------- serve integration -----

TEST(ServeBackendTest, AutoResolvesByPriority) {
  using serve::BackendChoice;
  const serve::ScenarioRequest background = serve::resolve_defaults(
      serve::parse_request("program=heat priority=background"));
  EXPECT_EQ(background.backend, BackendChoice::Gpusim);

  const serve::ScenarioRequest batch =
      serve::resolve_defaults(serve::parse_request("program=heat"));
  EXPECT_EQ(batch.backend, BackendChoice::Wse);

  // An explicit backend always wins over the priority-based routing.
  const serve::ScenarioRequest pinned = serve::resolve_defaults(
      serve::parse_request("program=heat priority=background backend=wse"));
  EXPECT_EQ(pinned.backend, BackendChoice::Wse);
}

TEST(ServeBackendTest, UnknownBackendValueThrows) {
  EXPECT_THROW((void)serve::parse_request("program=cg backend=cuda"),
               ContractViolation);
}

TEST(ServeBackendTest, BackendIsAHashedContentField) {
  const serve::ScenarioRequest wse =
      serve::parse_request("program=heat nx=6 ny=6 nz=3 backend=wse");
  const serve::ScenarioRequest gpu =
      serve::parse_request("program=heat nx=6 ny=6 nz=3 backend=gpusim");
  EXPECT_NE(serve::canonical_content(wse), serve::canonical_content(gpu));
  EXPECT_NE(serve::scenario_hash(wse), serve::scenario_hash(gpu));

  // Auto-routed background requests hash identically to an explicit
  // gpusim request: the memo key is the *resolved* backend, so the two
  // spellings share one cache entry.
  const serve::ScenarioRequest routed = serve::parse_request(
      "program=heat nx=6 ny=6 nz=3 priority=background");
  EXPECT_EQ(serve::scenario_hash(routed), serve::scenario_hash(gpu));
}

TEST(ServeBackendTest, MemoNeverCrossesBackendsAndResultsAgree) {
  serve::ServiceOptions options;
  options.workers = 0;  // deterministic: drain on this thread
  serve::ScenarioService service(options);

  for (const api::Kernel& kernel : api::kernels()) {
    const std::string content = "program=" + std::string(kernel.name) +
                                " nx=6 ny=6 nz=3";
    auto wse_first = service.submit_line(content + " backend=wse");
    service.drain();
    // Replay of the identical wse scenario: answered from the memo. The
    // gpusim spelling has a different hash, so it must run cold.
    auto wse_second = service.submit_line(content + " backend=wse");
    auto gpu_first = service.submit_line(content + " backend=gpusim");
    service.drain();

    const serve::ScenarioResponse& a = wse_first.get();
    const serve::ScenarioResponse& b = wse_second.get();
    const serve::ScenarioResponse& g = gpu_first.get();
    ASSERT_TRUE(a.ok()) << content << ": " << a.error;
    ASSERT_TRUE(b.ok()) << content << ": " << b.error;
    ASSERT_TRUE(g.ok()) << content << ": " << g.error;

    // Identical wse requests share one scenario; the gpusim request is a
    // different scenario and must run cold (no cross-backend memo hit).
    EXPECT_EQ(a.scenario_hash, b.scenario_hash) << content;
    EXPECT_TRUE(b.cache_hit) << content;
    EXPECT_NE(g.scenario_hash, a.scenario_hash) << content;
    EXPECT_FALSE(g.cache_hit) << content;

    // The canonical-order kernels publish the same result digest on both
    // backends even though they are distinct memo entries.
    if (bitwise_kernel(kernel.name)) {
      EXPECT_EQ(a.result_digest, g.result_digest) << content;
    }
  }
}

TEST(ServeBackendTest, ServeAndApiRunTheSameScenario) {
  // Both front ends run a kernel through its one table entry, so a
  // request and an api call with the same content fields must publish
  // the same result, and on the fabric the same makespan.
  serve::ServiceOptions options;
  options.workers = 0;
  serve::ScenarioService service(options);
  for (const api::Kernel& kernel : api::kernels()) {
    for (const api::Backend backend :
         {api::Backend::Wse, api::Backend::Gpusim}) {
      const std::string line =
          "program=" + std::string(kernel.name) +
          " nx=5 ny=4 nz=3 seed=11 backend=" +
          std::string(api::backend_name(backend));
      const auto future = service.submit_line(line);
      service.drain();
      const serve::ScenarioResponse& response = future.get();
      ASSERT_TRUE(response.ok()) << line << ": " << response.error;

      api::FieldEquationSpec spec;
      spec.kernel = kernel.name;
      spec.nx = 5;
      spec.ny = 4;
      spec.nz = 3;
      spec.seed = 11;
      const api::FieldEquationResult result =
          api::run_field_equation(spec, backend);
      EXPECT_EQ(response.result_digest, result.result_digest) << line;
      if (backend == api::Backend::Wse) {
        EXPECT_EQ(response.info.makespan_cycles,
                  result.fabric.makespan_cycles)
            << line;
      }
    }
  }
}

}  // namespace
}  // namespace fvf
