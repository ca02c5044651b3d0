/// \file execute.hpp
/// \brief `spec::Launch` — a kernel's launch, described once for both
///        drivers — and `spec::execute`, its fabric-free driver (the
///        gpusim backend).
///
/// One kernel body, two drivers. A kernel module writes one launch
/// builder (spec, extents and per-PE kernel factory) and one gather;
/// `spec::load` / `spec::run` run the launch on the simulated fabric
/// (wse), `spec::execute` runs the same kernels bulk-synchronously over
/// every PE column with no fabric at all (gpusim), and the gather reads
/// the result fields from either through a KernelGrid. The executor
/// calls the kernel's hooks in a canonical order, the same for every
/// exchange kind: start; then per answer of the kernels (which must agree
/// across PEs) either a round — begin_round on every PE, then per PE
/// on_block for every neighbor block in mesh::kAllFaces order and
/// on_round_complete with those blocks — or a reduction of the
/// contributions in wse::tree_reduce order followed by on_reduced.
/// ExchangeKind::None calls no hook.
///
/// Blocks are copies of the neighbor's staged send, exactly what the
/// fabric delivers. A view a hook receives stays valid until that PE's
/// on_round_complete returns. The reduction follows the trees' order, so
/// a kernel that folds neighbor data in canonical order computes the
/// fabric's bits; one that folds in delivery order (CG and wave through
/// core::PeStencil) sees kAllFaces order here and the fabric's arrival
/// order there.
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

/// The two drivers of a launch: the simulated wafer-scale engine
/// (spec::run) and the simulated GPU (spec::execute).
enum class Backend : u8 { Wse = 0, Gpusim = 1 };

/// Builds PE `coord`'s kernel. It must be copyable and callable
/// concurrently (see dataflow::FabricHarness::load).
using KernelFactory =
    std::function<std::unique_ptr<StencilKernel>(Coord2 coord)>;

/// A kernel's launch, described once for both drivers: the spec, the
/// extents (an nx x ny PE grid, one PE per mesh column, of column depth
/// nz) and the per-PE kernel factory. Whatever the factory references
/// must outlive every driver call.
struct Launch {
  StencilSpec spec;
  Extents3 extents{};
  KernelFactory make_kernel;
};

/// Every PE's kernel of a finished run, from either driver: a spec::Load
/// (wse) or a spec::Execution (gpusim). A kernel's one gather reads its
/// result fields through this.
class KernelGrid {
 public:
  KernelGrid(const KernelGrid&) = delete;
  KernelGrid& operator=(const KernelGrid&) = delete;
  virtual ~KernelGrid() = default;

  /// The launch's extents: the PE grid and the column depth.
  [[nodiscard]] virtual Extents3 extents() const = 0;
  [[nodiscard]] virtual const StencilKernel& kernel(Coord2 coord) const = 0;

  /// PE `coord`'s kernel as the concrete type the factory built.
  template <typename Kernel>
  [[nodiscard]] const Kernel& kernel_as(Coord2 coord) const {
    const auto* kernel = dynamic_cast<const Kernel*>(&this->kernel(coord));
    FVF_REQUIRE_MSG(kernel != nullptr, "launched kernel type mismatch");
    return *kernel;
  }

 protected:
  KernelGrid() = default;
  KernelGrid(KernelGrid&&) = default;
  KernelGrid& operator=(KernelGrid&&) = default;
};

/// A kernel's gathered result fields on one driver's accounting
/// (dataflow::RunInfo on wse, gpusim::GpuRunInfo on gpusim).
template <typename Fields, typename Info>
struct Result : Info, Fields {};

/// A kernel's one gather: its result fields from a finished run of
/// either driver.
template <typename Fields>
using Gather = Fields (*)(const KernelGrid& run);

/// A finished executor run: the device accounting and every PE column's
/// kernel.
class Execution final : public KernelGrid {
 public:
  Execution(Extents3 extents,
            std::vector<std::unique_ptr<StencilKernel>> kernels,
            gpusim::GpuRunInfo accounting);

  gpusim::GpuRunInfo info;

  [[nodiscard]] Extents3 extents() const override { return extents_; }
  [[nodiscard]] const StencilKernel& kernel(Coord2 coord) const override;

 private:
  Extents3 extents_;
  /// Row-major: y * nx + x.
  std::vector<std::unique_ptr<StencilKernel>> kernels_;
};

/// Runs `launch` over its grid of PE columns with no fabric. The spec is
/// compiled (validated) first; nothing is routed, claimed, linted or
/// reserved.
[[nodiscard]] Execution execute(const Launch& launch);

/// Executes `launch` and gathers its result fields — the gpusim half of
/// every kernel's run.
template <typename Fields>
[[nodiscard]] Result<Fields, gpusim::GpuRunInfo> execute(
    const Launch& launch, Gather<Fields> gather) {
  const Execution run = execute(launch);
  return {run.info, gather(run)};
}

/// Gathers one f32 column per PE of a finished run into an array of the
/// launch's extents. `column(kernel)` returns PE (x, y)'s nz values.
template <typename Kernel, typename ColumnFn>
[[nodiscard]] Array3<f32> gather(const KernelGrid& run, ColumnFn&& column) {
  Array3<f32> out(run.extents());
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
  return out;
}

}  // namespace fvf::spec
