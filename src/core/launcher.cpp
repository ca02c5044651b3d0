#include "core/launcher.hpp"

#include <memory>

#include "common/assert.hpp"
#include "physics/residual.hpp"

namespace fvf::core {

using namespace dataflow;

PeColumnData extract_column(const physics::FlowProblem& problem, i32 x,
                            i32 y, usize columns) {
  const Extents3 ext = problem.extents();
  FVF_REQUIRE(x >= 0 && x < ext.nx && y >= 0 && y < ext.ny);
  const mesh::CartesianMesh& m = problem.mesh();
  const Array3<f32>& p0 = problem.initial_pressure();
  const mesh::TransmissibilityField& trans = problem.transmissibility();

  PeColumnData data(ext.nz, columns);
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

spec::Launch tpfa_launch(const physics::FlowProblem& problem,
                         const TpfaKernelOptions& kernel) {
  FVF_REQUIRE(kernel.iterations >= 1);
  // Locals are captured by value: the launch outlives this call.
  return {make_tpfa_spec(kernel), problem.extents(),
          [&problem, kernel, fluid = problem.fluid(),
           columns = tpfa_kernel_columns(kernel)](Coord2 coord) {
            return make_tpfa_kernel(
                coord, problem.extents(), kernel, fluid,
                extract_column(problem, coord.x, coord.y, columns));
          }};
}

TpfaFields gather_tpfa(const spec::KernelGrid& run) {
  return {spec::gather<spec::StencilKernel>(run, tpfa_residual),
          spec::gather<spec::StencilKernel>(run, tpfa_pressure)};
}

namespace {

[[nodiscard]] TpfaKernelOptions kernel_of(const DataflowOptions& options) {
  TpfaKernelOptions kernel = options.kernel;
  kernel.iterations = options.iterations;
  return kernel;
}

}  // namespace

TpfaLoad load_dataflow_tpfa(const physics::FlowProblem& problem,
                            const DataflowOptions& options) {
  return spec::load<TpfaPeProgram>(tpfa_launch(problem, kernel_of(options)),
                                   options);
}

DataflowResult run_dataflow_tpfa(const physics::FlowProblem& problem,
                                 const DataflowOptions& options) {
  return spec::run(tpfa_launch(problem, kernel_of(options)), options,
                   gather_tpfa);
}

}  // namespace fvf::core
