/// \file fabric_harness.hpp
/// \brief Layer 2 of the fvf::dataflow runtime: the single launch
///        pipeline shared by every dataflow program.
///
/// A FabricHarness builds the fabric from the mesh's XY extents, applies
/// the shared HarnessOptions (timings, execution/fault model, trace
/// recorder, PE memory budget), registers color claims through its
/// ColorPlan, loads one typed program per PE, audits that every
/// router-configured color was claimed, runs the event engine to
/// quiescence, and returns the complete RunInfo every program result
/// embeds. The per-program pipelines that used to copy-paste all of this
/// shrink to: claim colors, construct programs, gather columns.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "common/array3d.hpp"
#include "common/assert.hpp"
#include "dataflow/color_plan.hpp"
#include "dataflow/run_info.hpp"
#include "wse/fabric.hpp"

namespace fvf::dataflow {

/// Typed handle to the per-PE program instances of one load, used to
/// gather results back to host arrays after the run.
template <typename Program>
class ProgramGrid {
 public:
  ProgramGrid() = default;

  [[nodiscard]] Program& at(i32 x, i32 y) const {
    FVF_REQUIRE(x >= 0 && x < extents_.x && y >= 0 && y < extents_.y);
    Program* program =
        programs_[static_cast<usize>(y) * static_cast<usize>(extents_.x) +
                  static_cast<usize>(x)];
    FVF_ASSERT(program != nullptr);
    return *program;
  }

  /// Gathers one f32 column per PE into `out` (whose XY extents must
  /// match the fabric): `column(program)` returns the Nz-length span of
  /// PE (x, y)'s values for z = 0..Nz-1.
  template <typename ColumnFn>
  void gather(Array3<f32>& out, ColumnFn&& column) const {
    const Extents3 ext = out.extents();
    FVF_REQUIRE(ext.nx == extents_.x && ext.ny == extents_.y);
    for (i32 y = 0; y < ext.ny; ++y) {
      for (i32 x = 0; x < ext.nx; ++x) {
        const std::span<const f32> col = column(at(x, y));
        FVF_REQUIRE(static_cast<i32>(col.size()) >= ext.nz);
        for (i32 z = 0; z < ext.nz; ++z) {
          out(x, y, z) = col[static_cast<usize>(z)];
        }
      }
    }
  }

 private:
  friend class FabricHarness;

  Coord2 extents_{};
  std::vector<Program*> programs_;
};

class FabricHarness {
 public:
  /// Builds the fabric for an `extents.x` x `extents.y` PE grid under the
  /// shared launch options (one PE per mesh column).
  FabricHarness(Coord2 extents, const HarnessOptions& options);

  /// The color registry of this launch. Claim blocks *before* load so
  /// the post-load audit can vouch for the routing tables.
  [[nodiscard]] ColorPlan& colors() noexcept { return colors_; }
  [[nodiscard]] const ColorPlan& colors() const noexcept { return colors_; }

  [[nodiscard]] wse::Fabric& fabric() noexcept { return fabric_; }
  [[nodiscard]] Coord2 extents() const noexcept { return extents_; }

  /// Instantiates `make(coord, fabric_size)` (returning a
  /// unique_ptr<Program>) on every PE, then statically verifies the
  /// loaded fabric at the configured HarnessOptions::lint level
  /// (fvf::lint). A configured-but-unclaimed color fails fast at every
  /// level with a diagnostic naming the PE, the color, and the full
  /// color map; Strict additionally fails the load on any other
  /// error-severity finding, and Warn prints findings to stderr.
  ///
  /// `make` is called only during the load, and must be callable
  /// concurrently: on a fabric of at least wse::kParallelMinPes
  /// PEs with ExecutionOptions::threads > 1, the load builds PE rows on
  /// several threads at once. Every shipped factory reads only const
  /// captures.
  template <typename Program, typename MakeFn>
  ProgramGrid<Program> load(MakeFn&& make) {
    ProgramGrid<Program> grid;
    grid.extents_ = extents_;
    grid.programs_.assign(static_cast<usize>(fabric_.pe_count()), nullptr);
    fabric_.load([&](Coord2 coord, Coord2 fabric_size) {
      std::unique_ptr<Program> program = make(coord, fabric_size);
      grid.programs_[static_cast<usize>(coord.y) *
                         static_cast<usize>(extents_.x) +
                     static_cast<usize>(coord.x)] = program.get();
      return program;
    });
    verify_load();
    return grid;
  }

  /// Runs the full static verifier over the loaded fabric and returns
  /// the report without enforcing it — the `fvf_lint` CLI path. Requires
  /// a prior load().
  [[nodiscard]] lint::Report lint_report() const;

  /// The lint::Options this launch lints with: the color plan's claim
  /// oracle, color map and labels. `full` enables the routing, memory,
  /// reconfiguration and flow checks; the claim audit always runs. The
  /// options refer to this harness and are valid while it lives.
  [[nodiscard]] lint::Options lint_options(bool full) const;

  /// Runs the event engine to quiescence, once per load (see
  /// wse::Fabric::run), and returns the run's record. When
  /// HarnessOptions::trace_json_path is set, also writes the Perfetto
  /// timeline of the run before returning.
  [[nodiscard]] RunInfo run(u64 max_events = 500'000'000);

 private:
  /// Applies the observability implications of the caller's options:
  /// a trace_json_path without an explicit span capacity turns on
  /// phase-span recording so the timeline has slices to show.
  [[nodiscard]] static HarnessOptions effective(HarnessOptions options);

  /// Post-load static verification at HarnessOptions::lint level; throws
  /// ContractViolation on enforced findings (see load()).
  void verify_load() const;

  Coord2 extents_;
  HarnessOptions options_;
  ColorPlan colors_;
  /// Keep-latest recorder the harness attaches for Perfetto export when
  /// the caller asked for trace_json_path but supplied no recorder.
  std::unique_ptr<wse::TraceRecorder> owned_trace_;
  wse::Fabric fabric_;
};

}  // namespace fvf::dataflow
