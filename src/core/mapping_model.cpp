#include "core/mapping_model.hpp"

namespace fvf::core {

MappingCost cell_based_cost(i32 nx, i32 ny, i32 nz) {
  MappingCost cost;
  cost.name = "cell-based (paper)";
  cost.pes = static_cast<i64>(nx) * ny;
  // The TPFA program's resident data: p/rho/r, own + 8 neighbor
  // elevations, 10 transmissibility columns, 8 receive buffers of 2 Nz,
  // 4 scratch columns, 1 vertical-flux column = 43 Nz words (see
  // spec::compile(make_tpfa_spec(o)).data_footprint_bytes(nz)).
  cost.words_per_pe = 43 * static_cast<i64>(nz);
  // Each interior PE drains 8 blocks x 2 Nz words per iteration.
  cost.fabric_words_per_iteration = cost.pes * 16 * static_cast<i64>(nz);
  // Cell-based computes every interior face twice (once per side):
  // 10 faces per cell.
  cost.flux_computations_per_iteration =
      cost.pes * static_cast<i64>(nz) * 10;
  return cost;
}

MappingCost face_based_cost(i32 nx, i32 ny, i32 nz) {
  MappingCost cost;
  cost.name = "face-based";
  // One PE per owned-face column (x+, y+, z+, two owned diagonals) plus
  // the cell PEs that accumulate the residual.
  const i64 columns = static_cast<i64>(nx) * ny;
  cost.pes = 5 * columns + columns;
  // A face PE holds both adjacent cells' (p, rho) columns (4 Nz), its
  // transmissibility column, a flux column, and scratch (~4 Nz).
  cost.words_per_pe = 10 * static_cast<i64>(nz);
  // Per column per iteration: 5 face PEs each receive 2 cell columns of
  // 2 Nz words (20 Nz) and scatter a flux column to 2 cell PEs (10 Nz).
  cost.fabric_words_per_iteration = columns * 30 * static_cast<i64>(nz);
  // Each face computed once: 5 owned faces per cell.
  cost.flux_computations_per_iteration =
      columns * static_cast<i64>(nz) * 5;
  return cost;
}

}  // namespace fvf::core
