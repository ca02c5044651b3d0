#include "core/launcher.hpp"

#include <memory>

#include "common/assert.hpp"
#include "physics/residual.hpp"
#include "spec/compile.hpp"
#include "spec/launch.hpp"

namespace fvf::core {

using namespace dataflow;

PeColumnData extract_column(const physics::FlowProblem& problem, i32 x,
                            i32 y) {
  const Extents3 ext = problem.extents();
  FVF_REQUIRE(x >= 0 && x < ext.nx && y >= 0 && y < ext.ny);
  const mesh::CartesianMesh& m = problem.mesh();
  const Array3<f32>& p0 = problem.initial_pressure();
  const mesh::TransmissibilityField& trans = problem.transmissibility();

  PeColumnData data(ext.nz);
  const std::span<f32> pressure = data.column(PeColumnData::kPressure);
  const std::span<f32> elevation = data.column(PeColumnData::kElevation);
  for (i32 z = 0; z < ext.nz; ++z) {
    pressure[static_cast<usize>(z)] = p0(x, y, z);
    elevation[static_cast<usize>(z)] = static_cast<f32>(m.elevation(x, y, z));
  }

  for (const mesh::Face f : mesh::kAllFaces) {
    const std::span<f32> col =
        data.column(PeColumnData::kTrans + static_cast<usize>(f));
    for (i32 z = 0; z < ext.nz; ++z) {
      col[static_cast<usize>(z)] = trans.at(x, y, z, f);
    }
  }

  // Static neighbor geometry (elevation columns), exchanged once at setup;
  // columns of missing neighbors stay zero.
  const auto fill_neighbor_elevation = [&](usize column, mesh::Face face) {
    const Coord3 off = mesh::face_offset(face);
    const i32 nx_ = x + off.x;
    const i32 ny_ = y + off.y;
    if (nx_ < 0 || nx_ >= ext.nx || ny_ < 0 || ny_ >= ext.ny) {
      return;
    }
    const std::span<f32> out = data.column(column);
    for (i32 z = 0; z < ext.nz; ++z) {
      out[static_cast<usize>(z)] = static_cast<f32>(m.elevation(nx_, ny_, z));
    }
  };
  for (const wse::Color c : kCardinalColors) {
    fill_neighbor_elevation(
        PeColumnData::kElevationCardinal + cardinal_index(c),
        cardinal_face(c));
  }
  for (const wse::Color c : kDiagonalColors) {
    fill_neighbor_elevation(
        PeColumnData::kElevationDiagonal + diagonal_index(c),
        diagonal_face(c));
  }
  return data;
}

TpfaLoad load_dataflow_tpfa(const physics::FlowProblem& problem,
                            const DataflowOptions& options) {
  const Extents3 ext = problem.extents();
  FVF_REQUIRE(options.iterations >= 1);

  TpfaKernelOptions kernel = options.kernel;
  kernel.iterations = options.iterations;
  const physics::FluidProperties fluid = problem.fluid();

  // Compile the declarative spec and verify the lowered program: every
  // compiled launch passes strict lint before the fabric runs (memoized
  // per program shape, so replayed scenarios only pay it once).
  // One compile per launch, shared by every PE's program.
  const auto compiled = std::make_shared<const spec::CompiledSpec>(
      spec::compile(make_tpfa_spec(kernel)));
  const Coord2 extents{ext.nx, ext.ny};
  const HarnessOptions effective = spec::verified_options(
      *compiled, extents, ext.nz, options, /*reliability_enabled=*/false);

  TpfaLoad load;
  load.harness = std::make_unique<FabricHarness>(extents, effective);
  compiled->claim_colors(load.harness->colors(), /*reliability=*/false);

  // Everything local is captured by value: the probe factory the harness
  // keeps must stay valid after this function returns.
  load.grid = load.harness->load<TpfaPeProgram>(
      [&problem, ext, kernel, fluid, compiled](Coord2 coord,
                                               Coord2 fabric_size) {
        return std::make_unique<TpfaPeProgram>(
            coord, fabric_size, ext, kernel, fluid,
            extract_column(problem, coord.x, coord.y), compiled);
      });
  spec::record_verified(*compiled, extents, ext.nz, effective,
                        /*reliability_enabled=*/false);
  return load;
}

DataflowResult run_dataflow_tpfa(const physics::FlowProblem& problem,
                                 const DataflowOptions& options) {
  const TpfaLoad load = load_dataflow_tpfa(problem, options);

  DataflowResult result;
  static_cast<RunInfo&>(result) = load.harness->run();
  const Extents3 ext = problem.extents();
  result.residual = Array3<f32>(ext);
  result.pressure = Array3<f32>(ext);
  load.grid.gather(result.residual,
                   [](const TpfaPeProgram& p) { return p.residual(); });
  load.grid.gather(result.pressure,
                   [](const TpfaPeProgram& p) { return p.pressure(); });
  return result;
}

}  // namespace fvf::core
