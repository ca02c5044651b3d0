#include "mesh/row_split.hpp"

#include <algorithm>

namespace fvf::mesh {

namespace {

/// Blocks per thread: enough that boundary rows, which are cheaper, do
/// not leave a thread idle at the end, few enough that the pool's lock
/// is taken rarely.
constexpr i64 kBlocksPerThread = 4;

}  // namespace

RowSplit::RowSplit(Extents3 extents)
    : extents_(extents),
      pool_(extents.cell_count() >= kParallelBuildMinCells
                ? ThreadPool::hardware_threads()
                : 1) {}

void RowSplit::for_each_row(const std::function<void(i32, i32)>& row_fn) {
  const i64 rows =
      extents_.nx > 0 ? static_cast<i64>(extents_.ny) * extents_.nz : 0;
  const i64 blocks = std::min(rows, kBlocksPerThread * pool_.size());
  pool_.run_indexed(blocks, [&](i64 block) {
    const i64 end = (block + 1) * rows / blocks;
    for (i64 row = block * rows / blocks; row < end; ++row) {
      row_fn(static_cast<i32>(row % extents_.ny),
             static_cast<i32>(row / extents_.ny));
    }
  });
}

}  // namespace fvf::mesh
