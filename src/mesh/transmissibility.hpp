/// \file transmissibility.hpp
/// \brief TPFA transmissibility computation (the Υ_KL coefficient of
///        Eq. 3a): harmonic averaging of per-cell permeabilities over the
///        ten-face stencil, including the effective diagonal connections
///        the paper adds "to prepare the communication pattern for either
///        higher-accuracy schemes or more intricate meshes" (Section 3).
///
/// build_transmissibilities writes each face of each cell from the two
/// permeabilities it joins and the face's hoisted area and distance, so
/// it splits over the host's threads by mesh row from
/// kParallelBuildMinCells cells up (mesh/row_split.hpp) with the same
/// bytes as one thread. Each face's in-mesh neighbors are a row range,
/// not a per-cell test; the field is allocated, zeroed, on the calling
/// thread and the rows only fill it.
#pragma once

#include <array>

#include "common/array3d.hpp"
#include "common/types.hpp"
#include "mesh/cartesian_mesh.hpp"
#include "mesh/stencil.hpp"

namespace fvf::mesh {

/// Options controlling transmissibility construction.
struct TransmissibilityOptions {
  /// Scale factor applied to the effective area of diagonal connections.
  /// Diagonal faces do not exist geometrically on a Cartesian mesh; the
  /// paper computes fluxes through them anyway to exercise the diagonal
  /// communication pattern. A weight of 0 disables diagonal fluxes.
  f64 diagonal_weight = 0.5;
};

/// Per-cell, per-face transmissibilities. Storage is ten dense 3-D arrays,
/// one per face in stencil order; entries whose neighbor lies outside the
/// mesh are zero, which makes the corresponding flux vanish.
class TransmissibilityField {
 public:
  explicit TransmissibilityField(Extents3 extents);

  [[nodiscard]] Extents3 extents() const noexcept { return extents_; }

  [[nodiscard]] f32& at(i32 x, i32 y, i32 z, Face f) {
    return faces_[static_cast<usize>(f)](x, y, z);
  }
  [[nodiscard]] const f32& at(i32 x, i32 y, i32 z, Face f) const {
    return faces_[static_cast<usize>(f)](x, y, z);
  }

  [[nodiscard]] const Array3<f32>& face_array(Face f) const noexcept {
    return faces_[static_cast<usize>(f)];
  }
  [[nodiscard]] Array3<f32>& face_array(Face f) noexcept {
    return faces_[static_cast<usize>(f)];
  }

 private:
  Extents3 extents_;
  std::array<Array3<f32>, kFaceCount> faces_;
};

/// Builds TPFA transmissibilities from a scalar permeability field [m^2]:
///
///   Υ_KL = A_f * 2 κ_K κ_L / (d_KL (κ_K + κ_L))
///
/// where A_f is the face area and d_KL the centre-to-centre distance.
/// Diagonal connections use d = sqrt(dx²+dy²) and an effective area
/// A = diagonal_weight * dz * sqrt(dx·dy).
[[nodiscard]] TransmissibilityField build_transmissibilities(
    const CartesianMesh& mesh, const Array3<f32>& permeability,
    const TransmissibilityOptions& options = {});

/// Verifies the TPFA symmetry property Υ(K, f) == Υ(L, opposite(f)) for
/// every interior face; returns the maximum absolute asymmetry found.
[[nodiscard]] f64 max_transmissibility_asymmetry(
    const CartesianMesh& mesh, const TransmissibilityField& trans);

}  // namespace fvf::mesh
