/// \file launch.hpp
/// \brief The fabric driver of every spec kernel — `spec::load` and
///        `spec::run` over a spec::Launch — and its mandatory
///        verification gate.
///
/// `spec::load` is the whole sequence a kernel's launcher used to write
/// out by hand: reliability under bit flips, `spec::compile`, the strict
/// lint gate, the FabricHarness with its color claims, the per-PE load,
/// and the record of the passed gate. A kernel module only describes its
/// launch (which spec, which extents, how to build one PE's kernel — the
/// same Launch `spec::execute` runs without a fabric) and gathers.
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
///
/// `spec::lint_report` is the other load of a spec: the same lowering
/// with the gate off and no kernels, returning the full lint report
/// instead of enforcing it.
#pragma once

#include <memory>
#include <utility>

#include "dataflow/fabric_harness.hpp"
#include "dataflow/run_info.hpp"
#include "spec/compile.hpp"
#include "spec/execute.hpp"
#include "spec/program.hpp"

namespace fvf::spec {

/// A loaded-but-not-run launch: the harness (for static lint or an
/// actual run) plus the typed program grid. It holds everything its
/// programs need: the launch's kernel factory is not kept.
template <typename Program = SpecPeProgram>
struct Load final : KernelGrid {
  std::unique_ptr<dataflow::FabricHarness> harness;
  dataflow::ProgramGrid<Program> grid;
  i32 nz = 0;

  [[nodiscard]] Extents3 extents() const override {
    const Coord2 xy = harness->extents();
    return Extents3{xy.x, xy.y, nz};
  }
  [[nodiscard]] const StencilKernel& kernel(Coord2 coord) const override {
    return grid.at(coord.x, coord.y).kernel();
  }
};

/// `base` with lint raised to Strict unless this exact program shape
/// already passed strict lint in this process (a stricter base level is
/// never lowered).
[[nodiscard]] dataflow::HarnessOptions verified_options(
    const CompiledSpec& compiled, Extents3 extents,
    const dataflow::HarnessOptions& base, bool reliable);

/// Records a successful strict-lint pass for the shape. Call after the
/// harness load succeeded with options returned by verified_options.
void record_verified(const CompiledSpec& compiled, Extents3 extents,
                     const dataflow::HarnessOptions& effective, bool reliable);

namespace detail {

/// Whether a launch of `spec` under `options` runs the halo reliability
/// layer: HarnessOptions::reliability, forced on under bit flips for a
/// StaticHalo exchange — corrupted blocks are dropped, and the
/// implicit-FIFO halo protocol cannot survive a drop.
[[nodiscard]] inline bool reliable(const StencilSpec& spec,
                                   const dataflow::HarnessOptions& options) {
  return spec.exchange == ExchangeKind::StaticHalo &&
         (options.reliability || options.execution.fault.bit_flip_rate > 0.0);
}

/// The lowering every load of one compiled spec shares: the harness under
/// `effective`, the spec's color claims, and a `Program` on every PE
/// around the kernel `make_kernel` builds for it.
template <typename Program>
[[nodiscard]] Load<Program> load_compiled(
    std::shared_ptr<const CompiledSpec> compiled, Extents3 ext,
    KernelFactory make_kernel, const dataflow::HarnessOptions& effective,
    bool reliable) {
  Load<Program> load;
  load.nz = ext.nz;
  load.harness = std::make_unique<dataflow::FabricHarness>(
      Coord2{ext.nx, ext.ny}, effective);
  const SpecPeProgram::LaunchBindings bindings{
      compiled->claim_colors(load.harness->colors(), reliable).reduce,
      reliable};
  load.grid = load.harness->template load<Program>(
      [make_kernel = std::move(make_kernel), compiled, bindings,
       nz = ext.nz](Coord2 coord, Coord2 fabric_size) {
        return std::make_unique<Program>(coord, fabric_size, nz, compiled,
                                         bindings, make_kernel(coord));
      });
  return load;
}

}  // namespace detail

/// Compiles the launch's spec and loads it onto its fabric without
/// running the event engine — the first half of spec::run. The halo
/// reliability layer is detail::reliable. Every PE runs a `Program`
/// (SpecPeProgram or a facade with its constructor) around the launch's
/// kernel, with the one compile of the launch and the colors claimed for
/// it.
template <typename Program = SpecPeProgram>
[[nodiscard]] Load<Program> load(Launch launch,
                                 const dataflow::HarnessOptions& options) {
  const bool reliable = detail::reliable(launch.spec, options);
  const Extents3 ext = launch.extents;
  const auto compiled =
      std::make_shared<const CompiledSpec>(compile(std::move(launch.spec)));
  const dataflow::HarnessOptions effective =
      verified_options(*compiled, ext, options, reliable);
  Load<Program> load = detail::load_compiled<Program>(
      compiled, ext, std::move(launch.make_kernel), effective, reliable);
  record_verified(*compiled, ext, effective, reliable);
  return load;
}

/// The full fvf::lint report of `spec` on an `extents` fabric under
/// `options`, enforcing nothing — the `fvf_lint` entry point. It lowers
/// the spec as spec::load does, with no lint gate and no kernels: the
/// linter reads only what the compiled spec declares.
[[nodiscard]] lint::Report lint_report(StencilSpec spec, Extents3 extents,
                                       const dataflow::HarnessOptions& options);

/// Loads `launch` onto the fabric, runs the event engine to quiescence
/// and gathers its result fields — the wse half of every kernel's run.
template <typename Fields>
[[nodiscard]] Result<Fields, dataflow::RunInfo> run(
    Launch launch, const dataflow::HarnessOptions& options,
    Gather<Fields> gather) {
  const Load<> load = spec::load(std::move(launch), options);
  dataflow::RunInfo info = load.harness->run();
  return {std::move(info), gather(load)};
}

/// Runs `launch` on `backend` — spec::run under `options`, or
/// spec::execute, which ignores them — and hands the finished
/// spec::Result to `finish`, which must return the same type for both.
template <typename Fields, typename Finish>
[[nodiscard]] auto run_on(Backend backend, Launch launch,
                          const dataflow::HarnessOptions& options,
                          Gather<Fields> gather, Finish&& finish) {
  if (backend == Backend::Gpusim) {
    return finish(execute(launch, gather));
  }
  return finish(run(std::move(launch), options, gather));
}

}  // namespace fvf::spec
