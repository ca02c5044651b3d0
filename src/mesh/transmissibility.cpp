#include "mesh/transmissibility.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"
#include "mesh/row_split.hpp"

namespace fvf::mesh {

TransmissibilityField::TransmissibilityField(Extents3 extents)
    : extents_(extents) {
  for (auto& face : faces_) {
    face = Array3<f32>(extents);
  }
}

TransmissibilityField build_transmissibilities(
    const CartesianMesh& mesh, const Array3<f32>& permeability,
    const TransmissibilityOptions& options) {
  FVF_REQUIRE(permeability.extents() == mesh.extents());
  FVF_REQUIRE(options.diagonal_weight >= 0.0);

  const Extents3 ext = mesh.extents();
  const Spacing3 h = mesh.spacing();
  TransmissibilityField trans(ext);

  // Per face: the effective area, the centre distance, and the x range
  // whose neighbor lies inside the mesh. Faces whose neighbor row leaves
  // the mesh keep their zero transmissibility.
  struct FaceGeometry {
    Coord3 offset;
    f64 area;
    f64 dist;
    i32 x_begin;
    i32 x_end;
  };
  const f64 diag_area =
      options.diagonal_weight * h.dz * std::sqrt(h.dx * h.dy);
  std::array<FaceGeometry, kFaceCount> faces{};
  for (const Face f : kAllFaces) {
    const Coord3 off = face_offset(f);
    faces[static_cast<usize>(f)] = {
        off, is_diagonal(f) ? diag_area : mesh.face_area(f),
        mesh.centre_distance(f), std::max(0, -off.x),
        std::min(ext.nx, ext.nx - off.x)};
  }

  RowSplit rows(ext);
  rows.for_each_row([&](i32 y, i32 z) {
    const f32* k_row = &permeability[ext.linear(0, y, z)];
    for (i32 x = 0; x < ext.nx; ++x) {
      FVF_ASSERT(k_row[x] > 0.0f);
    }
    for (const Face f : kAllFaces) {
      const FaceGeometry& g = faces[static_cast<usize>(f)];
      const i32 y_nb = y + g.offset.y;
      const i32 z_nb = z + g.offset.z;
      if (y_nb < 0 || y_nb >= ext.ny || z_nb < 0 || z_nb >= ext.nz) {
        continue;  // boundary row: transmissibility stays zero
      }
      const f32* k_nb = &permeability[ext.linear(0, y_nb, z_nb)];
      f32* out = &trans.face_array(f)[ext.linear(0, y, z)];
      for (i32 x = g.x_begin; x < g.x_end; ++x) {
        const f64 k_self = k_row[x];
        const f64 k_neib = k_nb[x + g.offset.x];
        const f64 harmonic =
            2.0 * k_self * k_neib / (g.dist * (k_self + k_neib));
        out[x] = static_cast<f32>(g.area * harmonic);
      }
    }
  });
  return trans;
}

f64 max_transmissibility_asymmetry(const CartesianMesh& mesh,
                                   const TransmissibilityField& trans) {
  const Extents3 ext = mesh.extents();
  f64 worst = 0.0;
  for (i32 z = 0; z < ext.nz; ++z) {
    for (i32 y = 0; y < ext.ny; ++y) {
      for (i32 x = 0; x < ext.nx; ++x) {
        for (const Face f : kAllFaces) {
          const auto nb = mesh.neighbor(x, y, z, f);
          if (!nb) {
            continue;
          }
          const f64 a = trans.at(x, y, z, f);
          const f64 b = trans.at(nb->x, nb->y, nb->z, opposite(f));
          worst = std::max(worst, std::abs(a - b));
        }
      }
    }
  }
  return worst;
}

}  // namespace fvf::mesh
