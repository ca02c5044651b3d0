/// \file tpfa_program.hpp
/// \brief The per-PE TPFA flux kernel — the paper's primary contribution
///        (Section 5) — now expressed as a `fvf::spec` stencil program:
///        the Figure 5/6 communication machinery is generated by
///        `spec::compile` from `make_tpfa_spec`, and this module
///        contributes only the physics callbacks.
///
/// Mapping (Section 5.1): mesh cell (x, y, z) lives on PE (x, y); the
/// whole Z column resides in the PE's private memory. Each application of
/// Algorithm 1 on a PE:
///
///   1. advances its pressure column and evaluates the EOS densities,
///   2. computes the two vertical faces locally (no communication),
///   3. exchanges (pressure, density) columns with its four cardinal
///      neighbors using the two-step switch protocol of Figure 6,
///   4. forwards each received cardinal block to the rotated diagonal
///      target (Figure 5) while computing the cardinal partial flux,
///   5. computes the four diagonal partial fluxes as forwarded blocks
///      arrive, and
///   6. advances to the next iteration once all ten faces are assembled.
///
/// Communication/computation overlap is intrinsic: partial fluxes are
/// computed in the kernel's on_block hook as blocks arrive (Section
/// 5.3.2), and on_round_complete folds all ten faces in canonical order.
#pragma once

#include <array>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/array3d.hpp"
#include "mesh/stencil.hpp"
#include "physics/fluid.hpp"
#include "spec/program.hpp"
#include "wse/fabric.hpp"

namespace fvf::core {

/// Kernel options (the Section 5.3 optimization toggles + run modes).
struct TpfaKernelOptions {
  i32 iterations = 1;
  /// false = communication-only variant used for Table 3: all flux
  /// computations removed, data movement untouched.
  bool compute_enabled = true;
  /// Buffer-reuse optimization (Section 5.3.1): true = 4 shared scratch
  /// columns scheduled like hand-allocated registers; false = one fresh
  /// scratch column per intermediate value (13 columns).
  bool reuse_buffers = true;
  /// false = cardinal-only ablation (no diagonal exchange or fluxes).
  bool diagonals_enabled = true;
};

/// Host-side per-PE column data extracted from the global problem: twenty
/// Nz-length columns in one buffer, which a kernel (TPFA, transport)
/// adopts as the head of its own column storage. Made with the kernel's
/// column count, the buffer already has the kernel's final size.
class PeColumnData {
 public:
  /// Column order in the buffer.
  static constexpr usize kElevation = 0;  ///< own cell-centre elevations
  /// Neighbor elevation columns (static geometry loaded at setup), plus
  /// cardinal_index(color) / diagonal_index(color); zero where the
  /// neighbor does not exist.
  static constexpr usize kElevationCardinal = 1;
  static constexpr usize kElevationDiagonal = 5;
  /// Per-face transmissibility columns, plus the face index (zero where
  /// no neighbor).
  static constexpr usize kTrans = 9;
  /// Initial p, last: the kernel's density column follows it, so
  /// [p | rho] is one contiguous block.
  static constexpr usize kPressure = kTrans + mesh::kFaceCount;
  static constexpr usize kColumns = kPressure + 1;

  /// `columns` zero-filled columns of depth `nz`: the kColumns above,
  /// then the working columns of the kernel that adopts the buffer.
  explicit PeColumnData(i32 nz, usize columns = kColumns);

  [[nodiscard]] i32 nz() const noexcept { return nz_; }
  [[nodiscard]] std::span<f32> column(usize index) noexcept;
  [[nodiscard]] std::span<const f32> column(usize index) const noexcept;

  [[nodiscard]] std::span<const f32> pressure() const noexcept {
    return column(kPressure);
  }
  [[nodiscard]] std::span<const f32> elevation() const noexcept {
    return column(kElevation);
  }
  [[nodiscard]] std::span<const f32> elevation_cardinal(
      usize index) const noexcept {
    return column(kElevationCardinal + index);
  }
  [[nodiscard]] std::span<const f32> elevation_diagonal(
      usize index) const noexcept {
    return column(kElevationDiagonal + index);
  }
  [[nodiscard]] std::span<const f32> trans(mesh::Face face) const noexcept {
    return column(kTrans + static_cast<usize>(face));
  }

  /// Hands the buffer over; the data is empty afterwards.
  [[nodiscard]] std::vector<f32> release() && { return std::move(columns_); }

 private:
  i32 nz_;
  std::vector<f32> columns_;
};

/// The declarative description of the TPFA program: the Figure 6
/// switch-protocol exchange of [p | rho] blocks, the 9-point shape
/// (5-point in the cardinal-only ablation), and the complete ordered
/// per-PE memory layout. `spec::compile` lowers it; the physics arrives
/// as the (file-local) TpfaKernel.
[[nodiscard]] spec::StencilSpec make_tpfa_spec(
    const TpfaKernelOptions& options);

/// Columns of a TPFA kernel's one buffer under `options`: the
/// PeColumnData ones, then its working columns.
[[nodiscard]] usize tpfa_kernel_columns(const TpfaKernelOptions& options);

/// PE `coord`'s TPFA kernel: the physics both drivers run (spec::load on
/// the fabric, spec::execute for gpusim).
[[nodiscard]] std::unique_ptr<spec::StencilKernel> make_tpfa_kernel(
    Coord2 coord, Extents3 mesh_extents, TpfaKernelOptions options,
    physics::FluidProperties fluid, PeColumnData data);

/// Residual and pressure columns of a finished TPFA kernel (made by
/// make_tpfa_kernel) after its final completed iteration.
[[nodiscard]] std::span<const f32> tpfa_residual(
    const spec::StencilKernel& kernel);
[[nodiscard]] std::span<const f32> tpfa_pressure(
    const spec::StencilKernel& kernel);

/// The per-PE program on the fabric: the compiled-spec engine around a
/// TPFA kernel, with the historical constructors and accessors (tests
/// and benches construct it directly).
class TpfaPeProgram final : public spec::SpecPeProgram {
 public:
  /// The launch path: spec::load builds the engine around a kernel from
  /// make_tpfa_kernel.
  using spec::SpecPeProgram::SpecPeProgram;
  /// `compiled` must be spec::compile(make_tpfa_spec(options)); a launch
  /// compiles it once and shares it with every PE.
  TpfaPeProgram(Coord2 coord, Coord2 fabric_size, Extents3 mesh_extents,
                TpfaKernelOptions options, physics::FluidProperties fluid,
                PeColumnData data,
                std::shared_ptr<const spec::CompiledSpec> compiled);
  /// Compiles the spec itself, once per thread and options value (the
  /// last compile is reused), so building one program per PE this way
  /// does not compile per PE either.
  TpfaPeProgram(Coord2 coord, Coord2 fabric_size, Extents3 mesh_extents,
                TpfaKernelOptions options, physics::FluidProperties fluid,
                PeColumnData data);

  /// Residual column after the final completed iteration.
  [[nodiscard]] std::span<const f32> residual() const;
  /// Pressure column after the final completed iteration.
  [[nodiscard]] std::span<const f32> pressure() const;
  [[nodiscard]] i32 completed_iterations() const noexcept {
    return completed_rounds();
  }

  /// Reserved bytes modeling program code + runtime structures. Sized so
  /// that, with buffer reuse enabled, the deepest column fitting in the
  /// default 48 KiB PE memory is Nz = 246 — the paper's maximum.
  static constexpr usize kCodeFootprintBytes = 6800;
};

}  // namespace fvf::core
