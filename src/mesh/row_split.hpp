/// \file row_split.hpp
/// \brief Splits a per-cell build step of the geomodel over the host's
///        threads by (y, z) rows.
///
/// The steps split this way write each output cell as a fixed expression
/// of inputs no task writes, so the split decides only which thread
/// computes a cell: results are byte-identical to one thread. Callers
/// allocate every array before the split, on the calling thread, and the
/// rows only fill them; glibc's per-thread arenas therefore stay empty.
#pragma once

#include <functional>

#include "common/array3d.hpp"
#include "common/thread_pool.hpp"
#include "common/types.hpp"

namespace fvf::mesh {

/// Cell count from which a RowSplit uses ThreadPool::hardware_threads().
/// Below it the rows run in order on the calling thread and no thread
/// starts. On a 4-vCPU host, splitting make_benchmark_problem costs more
/// than it saves at 32×32×16 (16,384 cells), about breaks even at
/// 64×64×8 (32,768) and builds ~25% faster at 64×64×16 (65,536).
inline constexpr i64 kParallelBuildMinCells = 65536;

/// Runs row functions over the (y, z) rows of one mesh, on the host's
/// threads from kParallelBuildMinCells cells up. One RowSplit starts its
/// threads once and serves any number of for_each_row calls.
class RowSplit {
 public:
  explicit RowSplit(Extents3 extents);

  /// Threads the rows run on (1 below kParallelBuildMinCells).
  [[nodiscard]] i32 threads() const noexcept { return pool_.size(); }

  /// Calls row_fn(y, z) once for every row and returns when all are
  /// done. Rows go to the threads in contiguous blocks.
  void for_each_row(const std::function<void(i32 y, i32 z)>& row_fn);

 private:
  Extents3 extents_;
  ThreadPool pool_;
};

}  // namespace fvf::mesh
