/// \file linear_stencil.hpp
/// \brief The linearized (fixed-mobility) TPFA operator in general
///        stencil form:
///
///   (A u)_K = diag_K u_K + sum_f offdiag_f(K) u_{L(f)}
///
/// Built from a flow problem as diag = sigma + sum_f G_f and
/// offdiag_f = -G_f with G_f = Upsilon_f * lambda_bar (lambda_bar =
/// rho_ref / mu frozen) and sigma the accumulation shift V phi c / dt.
/// This is the symmetric positive-definite pressure operator a
/// matrix-free Krylov method solves each Newton iteration (paper
/// Section 8). The general form also represents the Jacobi-scaled
/// operator D^{-1/2} A D^{-1/2} used to tame the conditioning of
/// strongly heterogeneous permeability fields.
#pragma once

#include <array>
#include <span>
#include <vector>

#include "common/array3d.hpp"
#include "mesh/stencil.hpp"
#include "physics/problem.hpp"
#include "wse/dsd.hpp"

namespace fvf::wse {
class PeCompute;
}  // namespace fvf::wse

namespace fvf::core {

/// Per-cell stencil coefficients, in the layout both the host reference
/// and the per-PE dataflow program consume.
struct LinearStencil {
  Extents3 extents{};
  /// Diagonal coefficient per cell.
  Array3<f32> diag;
  /// Coefficient multiplying the neighbor across each face; zero where
  /// the neighbor does not exist.
  std::array<Array3<f32>, mesh::kFaceCount> offdiag;

  /// Host reference apply, out = A u (f64 accumulation, for validation).
  void apply_f64(std::span<const f64> u, std::span<f64> out) const;

  /// Symmetry defect max |offdiag(K,f) - offdiag(L,opp f)|; 0 for a
  /// valid operator.
  [[nodiscard]] f64 max_asymmetry() const;
};

/// One PE's column of a LinearStencil — its diagonal and its ten
/// coefficient columns, in one block as the fabric CG and wave kernels
/// hold them in PE memory — and the matrix-free apply q = A x they are
/// used for, split at the halo exchange.
class PeStencil {
 public:
  PeStencil(const LinearStencil& stencil, Coord2 coord);

  /// q = diag .* x plus the two vertical couplings: the part of A x that
  /// needs no neighbor column.
  void apply_local(wse::PeCompute& api, std::span<f32> q, std::span<f32> x);
  /// q += C_face .* x_nb for one arrived neighbor column. The fabric
  /// calls it in arrival order, so the f32 sum of the faces follows the
  /// fabric's timing; spec::execute calls it in mesh::kAllFaces order.
  void apply_face(wse::PeCompute& api, std::span<f32> q, mesh::Face face,
                  wse::Dsd x_nb);

 private:
  [[nodiscard]] std::span<f32> diag() noexcept {
    return std::span<f32>(coefficients_).first(nz_);
  }
  [[nodiscard]] std::span<f32> offdiag(mesh::Face face) noexcept {
    return std::span<f32>(coefficients_)
        .subspan((1 + static_cast<usize>(face)) * nz_, nz_);
  }

  usize nz_;
  /// The diagonal column, then one off-diagonal column per mesh::Face.
  std::vector<f32> coefficients_;
};

/// Builds the linearized operator from a flow problem.
///
/// `accumulation_dt`: time-step used for sigma = V phi c_total / dt;
/// pass 0 to omit the shift (pure flux operator, singular).
[[nodiscard]] LinearStencil build_linear_stencil(
    const physics::FlowProblem& problem, f64 accumulation_dt);

/// Symmetrically Jacobi-scaled system: A~ = D^{-1/2} A D^{-1/2} with
/// D = diag(A). Solve A~ y = D^{-1/2} b, then x = D^{-1/2} y.
struct ScaledSystem {
  LinearStencil stencil;     ///< A~, unit diagonal
  Array3<f32> inv_sqrt_diag; ///< D^{-1/2}
};
[[nodiscard]] ScaledSystem jacobi_scale(const LinearStencil& stencil);

/// Transforms a right-hand side into the scaled system (b~ = D^{-1/2} b).
[[nodiscard]] Array3<f32> scale_rhs(const ScaledSystem& scaled,
                                    const Array3<f32>& rhs);
/// Recovers the original unknowns from the scaled solution
/// (x = D^{-1/2} y).
[[nodiscard]] Array3<f32> unscale_solution(const ScaledSystem& scaled,
                                           const Array3<f32>& y);

/// Manufactured system: b = A u_exact for a smooth u_exact.
struct ManufacturedSystem {
  Array3<f32> exact;
  Array3<f32> rhs;
};
[[nodiscard]] ManufacturedSystem manufacture_solution(
    const LinearStencil& stencil);

}  // namespace fvf::core
