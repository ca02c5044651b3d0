/// \file launch.hpp
/// \brief The one launch path of every spec kernel, and its mandatory
///        verification gate.
///
/// `spec::load` is the whole sequence a kernel's launcher used to write
/// out by hand: reliability under bit flips, `spec::compile`, the strict
/// lint gate, the FabricHarness with its color claims, the per-PE load,
/// and the record of the passed gate. Launchers only say which spec,
/// which fabric, and how to build one PE's kernel — the same kernel
/// factory `spec::execute` runs without a fabric.
///
/// Every spec-compiled launch must pass `fvf::lint` in strict mode
/// before the FabricHarness hands the fabric to the event engine. The
/// harness runs the linter during load, but its lint level is fixed at
/// construction — so `load` asks `verified_options` for the effective
/// HarnessOptions *before* constructing the harness, and calls
/// `record_verified` once the load (and therefore the strict lint pass)
/// succeeded.
///
/// To keep repeated launches cheap (the scenario service replays the
/// same shapes thousands of times), passes are memoized process-wide by
/// the spec's structural digest + fabric extents + column depth + memory
/// budget + router depth + reliability: two launches with equal keys
/// lower to identical colors, routes, handlers, and memory reservations,
/// so one strict pass proves both.
#pragma once

#include <memory>

#include "dataflow/fabric_harness.hpp"
#include "dataflow/run_info.hpp"
#include "spec/compile.hpp"
#include "spec/execute.hpp"
#include "spec/program.hpp"

namespace fvf::spec {

/// A loaded-but-not-run launch: the harness (for static lint or an
/// actual run) plus the typed program grid for gathering results.
/// Whatever the program factory references must outlive the load: the
/// lint probe factory builds programs from it on demand.
template <typename Program = SpecPeProgram>
struct Load {
  std::unique_ptr<dataflow::FabricHarness> harness;
  dataflow::ProgramGrid<Program> grid;

  /// PE `coord`'s kernel as the concrete type the factory built (for
  /// spec::gather).
  template <typename Kernel>
  [[nodiscard]] const Kernel& kernel_as(Coord2 coord) const {
    return grid.at(coord.x, coord.y).template kernel_as<Kernel>();
  }
};

/// `base` with lint raised to Strict unless this exact program shape
/// already passed strict lint in this process (a stricter base level is
/// never lowered).
[[nodiscard]] dataflow::HarnessOptions verified_options(
    const CompiledSpec& compiled, Coord2 extents, i32 nz,
    const dataflow::HarnessOptions& base, bool reliability_enabled);

/// Records a successful strict-lint pass for the shape. Call after the
/// harness load succeeded with options returned by verified_options.
void record_verified(const CompiledSpec& compiled, Coord2 extents, i32 nz,
                     const dataflow::HarnessOptions& effective,
                     bool reliability_enabled);

/// Compiles `spec` and loads it onto an `extents` fabric of column depth
/// `nz` without running the event engine — the fvf_lint entry point, and
/// the first half of every kernel's run. A StaticHalo launch under bit
/// flips turns `reliability` on: corrupted blocks are dropped, and the
/// implicit-FIFO halo protocol cannot survive a drop. Every PE runs a
/// `Program` (SpecPeProgram or a facade with its constructor) around
/// `make_kernel(coord)`, with the one compile of the launch and the
/// colors claimed for it; `make_kernel` must be copyable and callable
/// concurrently (see FabricHarness::load).
template <typename Program = SpecPeProgram, typename MakeKernel>
[[nodiscard]] Load<Program> load(StencilSpec spec, Coord2 extents, i32 nz,
                                 const dataflow::HarnessOptions& options,
                                 dataflow::HaloReliabilityOptions reliability,
                                 MakeKernel make_kernel) {
  if (spec.exchange == ExchangeKind::StaticHalo &&
      options.execution.fault.bit_flip_rate > 0.0) {
    reliability.enabled = true;
  }
  const auto compiled =
      std::make_shared<const CompiledSpec>(compile(std::move(spec)));
  const dataflow::HarnessOptions effective = verified_options(
      *compiled, extents, nz, options, reliability.enabled);

  Load<Program> load;
  load.harness = std::make_unique<dataflow::FabricHarness>(extents, effective);
  const SpecPeProgram::LaunchBindings bindings{
      compiled->claim_colors(load.harness->colors(), reliability.enabled)
          .reduce,
      reliability};
  load.grid = load.harness->template load<Program>(
      [make_kernel = std::move(make_kernel), compiled, bindings, nz](
          Coord2 coord, Coord2 fabric_size) {
        return std::make_unique<Program>(coord, fabric_size, nz, compiled,
                                         bindings, make_kernel(coord));
      });
  record_verified(*compiled, extents, nz, effective, reliability.enabled);
  return load;
}

}  // namespace fvf::spec
