/// \file execute.hpp
/// \brief `spec::execute` — the fabric-free driver of a spec kernel, and
///        the gpusim backend.
///
/// One kernel body, two drivers. A launcher writes one per-PE kernel
/// factory and one gather; `spec::load` runs them on the simulated
/// fabric (wse), `spec::execute` runs the same kernels bulk-synchronously
/// over every PE column with no fabric at all (gpusim). The executor
/// calls the kernel's own hooks in a canonical order:
///
///   - SwitchProtocol, per round: local_compute on every PE, then each
///     PE's send_halves are staged, then per PE process_block for every
///     existing neighbor in mesh::kAllFaces order and finalize_round.
///   - StaticHalo: start; then per answer of the kernels (which must
///     agree across PEs) either a round — begin_round on every PE, then
///     per PE on_block for every XY neighbor in mesh::kAllFaces order and
///     on_round_complete — or a reduction of the contributions in
///     wse::tree_reduce order followed by on_reduced.
///   - None: local_compute once.
///
/// Blocks are copies of the neighbor's staged send, exactly what the
/// fabric delivers. A view a hook receives stays valid until that PE's
/// finalize_round / on_round_complete returns. The reduction follows the
/// trees' order, so a kernel that folds neighbor data in canonical order
/// computes the fabric's bits; one that folds in delivery order (CG and
/// wave through core::PeStencil) sees kAllFaces order here and the
/// fabric's arrival order there.
///
/// Kernels charge a wse::PeCompute handle. Each hook sweep is one
/// gpusim::Device::record_kernel, with the flops it counted and 4 B x
/// (loads + stores) as DRAM traffic; a sweep whose hooks charged nothing
/// launches nothing. The counters are the ones the fabric charges inside
/// the same hooks; the fabric's receives, wavelets, tasks and tree
/// combines have no counterpart here.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "common/array3d.hpp"
#include "common/assert.hpp"
#include "gpusim/run_info.hpp"
#include "spec/stencil_spec.hpp"

namespace fvf::spec {

/// Builds PE `coord`'s kernel. A launcher's one factory serves both
/// spec::load and spec::execute; it must be copyable and callable
/// concurrently (see dataflow::FabricHarness::load).
using KernelFactory =
    std::function<std::unique_ptr<StencilKernel>(Coord2 coord)>;

/// A finished executor run: the device accounting and every PE column's
/// kernel, for gathering results.
struct Execution {
  gpusim::GpuRunInfo info;
  Coord2 extents{};
  /// Row-major: y * extents.x + x.
  std::vector<std::unique_ptr<StencilKernel>> kernels;

  /// PE `coord`'s kernel as the concrete type the factory built.
  template <typename Kernel>
  [[nodiscard]] const Kernel& kernel_as(Coord2 coord) const {
    FVF_REQUIRE(coord.x >= 0 && coord.x < extents.x && coord.y >= 0 &&
                coord.y < extents.y);
    const auto* kernel = dynamic_cast<const Kernel*>(
        kernels[static_cast<usize>(coord.y) * static_cast<usize>(extents.x) +
                static_cast<usize>(coord.x)]
            .get());
    FVF_REQUIRE_MSG(kernel != nullptr, "executed kernel type mismatch");
    return *kernel;
  }
};

/// Runs `spec` over an `extents` grid of PE columns of depth `nz`, every
/// column's kernel from `make_kernel`. The spec is compiled (validated)
/// first; nothing is routed, claimed, linted or reserved.
[[nodiscard]] Execution execute(StencilSpec spec, Coord2 extents, i32 nz,
                                const KernelFactory& make_kernel);

/// Gathers one f32 column per PE into `out` from a finished run — a
/// spec::Load (wse) or a spec::Execution (gpusim), so one gather serves
/// both backends. `column(kernel)` returns PE (x, y)'s Nz values.
template <typename Kernel, typename Run, typename ColumnFn>
void gather(const Run& run, Array3<f32>& out, ColumnFn&& column) {
  const Extents3 ext = out.extents();
  for (i32 y = 0; y < ext.ny; ++y) {
    for (i32 x = 0; x < ext.nx; ++x) {
      const std::span<const f32> col =
          column(run.template kernel_as<Kernel>(Coord2{x, y}));
      FVF_REQUIRE(static_cast<i32>(col.size()) >= ext.nz);
      for (i32 z = 0; z < ext.nz; ++z) {
        out(x, y, z) = col[static_cast<usize>(z)];
      }
    }
  }
}

}  // namespace fvf::spec
