#include "core/linear_stencil.hpp"

#include <cmath>
#include <numbers>

#include "common/assert.hpp"
#include "wse/fabric.hpp"

namespace fvf::core {

PeStencil::PeStencil(const LinearStencil& stencil, Coord2 coord)
    : nz_(static_cast<usize>(stencil.extents.nz)),
      coefficients_((1 + mesh::kFaceCount) * nz_) {
  const auto copy_column = [&](const Array3<f32>& field, std::span<f32> col) {
    for (usize z = 0; z < nz_; ++z) {
      col[z] = field(coord.x, coord.y, static_cast<i32>(z));
    }
  };
  copy_column(stencil.diag, diag());
  for (const mesh::Face f : mesh::kAllFaces) {
    copy_column(stencil.offdiag[static_cast<usize>(f)], offdiag(f));
  }
}

void PeStencil::apply_local(wse::PeCompute& api, std::span<f32> q,
                            std::span<f32> x) {
  using wse::Dsd;
  api.fmuls(Dsd::of(q), Dsd::of(diag()), Dsd::of(x));
  const i32 nz = static_cast<i32>(nz_);
  if (nz > 1) {
    const i32 m = nz - 1;
    const Dsd xd = Dsd::of(x);
    const Dsd qd = Dsd::of(q);
    // z+ term for cells 0..nz-2: q += C_z+ * x_{K+1}.
    api.fmacs(qd.window(0, m), Dsd::of(offdiag(mesh::Face::ZPlus)).window(0, m),
              xd.window(1, m), qd.window(0, m));
    // z- term for cells 1..nz-1: q += C_z- * x_{K-1}.
    api.fmacs(qd.window(1, m),
              Dsd::of(offdiag(mesh::Face::ZMinus)).window(1, m),
              xd.window(0, m), qd.window(1, m));
  }
}

void PeStencil::apply_face(wse::PeCompute& api, std::span<f32> q,
                           mesh::Face face, wse::Dsd x_nb) {
  using wse::Dsd;
  api.fmacs(Dsd::of(q), Dsd::of(offdiag(face)), x_nb, Dsd::of(q));
}

void LinearStencil::apply_f64(std::span<const f64> u,
                              std::span<f64> out) const {
  const i64 n = extents.cell_count();
  FVF_REQUIRE(static_cast<i64>(u.size()) == n);
  FVF_REQUIRE(static_cast<i64>(out.size()) == n);
  for (i32 z = 0; z < extents.nz; ++z) {
    for (i32 y = 0; y < extents.ny; ++y) {
      for (i32 x = 0; x < extents.nx; ++x) {
        const i64 i = extents.linear(x, y, z);
        f64 acc =
            static_cast<f64>(diag(x, y, z)) * u[static_cast<usize>(i)];
        for (const mesh::Face f : mesh::kAllFaces) {
          const f64 c = offdiag[static_cast<usize>(f)](x, y, z);
          if (c == 0.0) {
            continue;
          }
          const Coord3 off = mesh::face_offset(f);
          const i64 j = extents.linear(x + off.x, y + off.y, z + off.z);
          acc += c * u[static_cast<usize>(j)];
        }
        out[static_cast<usize>(i)] = acc;
      }
    }
  }
}

f64 LinearStencil::max_asymmetry() const {
  f64 worst = 0.0;
  for (i32 z = 0; z < extents.nz; ++z) {
    for (i32 y = 0; y < extents.ny; ++y) {
      for (i32 x = 0; x < extents.nx; ++x) {
        for (const mesh::Face f : mesh::kAllFaces) {
          const Coord3 off = mesh::face_offset(f);
          const i32 nx = x + off.x;
          const i32 ny = y + off.y;
          const i32 nz = z + off.z;
          if (!extents.contains(nx, ny, nz)) {
            continue;
          }
          worst = std::max(
              worst, std::abs(static_cast<f64>(
                                  offdiag[static_cast<usize>(f)](x, y, z)) -
                              offdiag[static_cast<usize>(mesh::opposite(f))](
                                  nx, ny, nz)));
        }
      }
    }
  }
  return worst;
}

LinearStencil build_linear_stencil(const physics::FlowProblem& problem,
                                   f64 accumulation_dt) {
  const Extents3 ext = problem.extents();
  LinearStencil stencil;
  stencil.extents = ext;
  stencil.diag = Array3<f32>(ext);
  for (auto& c : stencil.offdiag) {
    c = Array3<f32>(ext);
  }

  const physics::FluidProperties& fluid = problem.fluid();
  const physics::RockProperties& rock = problem.rock();
  const f64 lambda_bar = fluid.reference_density / fluid.viscosity;
  const f64 sigma =
      accumulation_dt > 0.0
          ? problem.mesh().cell_volume() * rock.reference_porosity *
                (fluid.compressibility + rock.rock_compressibility) *
                fluid.reference_density / accumulation_dt
          : 0.0;

  for (i32 z = 0; z < ext.nz; ++z) {
    for (i32 y = 0; y < ext.ny; ++y) {
      for (i32 x = 0; x < ext.nx; ++x) {
        f64 diag = sigma;
        for (const mesh::Face f : mesh::kAllFaces) {
          const f64 g =
              static_cast<f64>(problem.transmissibility().at(x, y, z, f)) *
              lambda_bar;
          diag += g;
          stencil.offdiag[static_cast<usize>(f)](x, y, z) =
              static_cast<f32>(-g);
        }
        stencil.diag(x, y, z) = static_cast<f32>(diag);
      }
    }
  }
  return stencil;
}

ScaledSystem jacobi_scale(const LinearStencil& stencil) {
  const Extents3 ext = stencil.extents;
  ScaledSystem scaled;
  scaled.stencil.extents = ext;
  scaled.stencil.diag = Array3<f32>(ext);
  for (auto& c : scaled.stencil.offdiag) {
    c = Array3<f32>(ext);
  }
  scaled.inv_sqrt_diag = Array3<f32>(ext);

  for (i64 i = 0; i < ext.cell_count(); ++i) {
    FVF_REQUIRE_MSG(stencil.diag[i] > 0.0f,
                    "Jacobi scaling requires a positive diagonal");
    scaled.inv_sqrt_diag[i] =
        1.0f / std::sqrt(stencil.diag[i]);
  }
  for (i32 z = 0; z < ext.nz; ++z) {
    for (i32 y = 0; y < ext.ny; ++y) {
      for (i32 x = 0; x < ext.nx; ++x) {
        scaled.stencil.diag(x, y, z) = 1.0f;
        for (const mesh::Face f : mesh::kAllFaces) {
          const Coord3 off = mesh::face_offset(f);
          const i32 nx = x + off.x;
          const i32 ny = y + off.y;
          const i32 nz = z + off.z;
          if (!ext.contains(nx, ny, nz)) {
            continue;
          }
          // Grouped as c * (s_K * s_L) so the scaled coefficient is
          // bitwise symmetric across the face (multiplication is
          // commutative; association order is not).
          const f64 s_pair =
              static_cast<f64>(scaled.inv_sqrt_diag(x, y, z)) *
              static_cast<f64>(scaled.inv_sqrt_diag(nx, ny, nz));
          scaled.stencil.offdiag[static_cast<usize>(f)](x, y, z) =
              static_cast<f32>(
                  static_cast<f64>(
                      stencil.offdiag[static_cast<usize>(f)](x, y, z)) *
                  s_pair);
        }
      }
    }
  }
  return scaled;
}

Array3<f32> scale_rhs(const ScaledSystem& scaled, const Array3<f32>& rhs) {
  FVF_REQUIRE(rhs.extents() == scaled.stencil.extents);
  Array3<f32> out(rhs.extents());
  for (i64 i = 0; i < rhs.size(); ++i) {
    out[i] = rhs[i] * scaled.inv_sqrt_diag[i];
  }
  return out;
}

Array3<f32> unscale_solution(const ScaledSystem& scaled,
                             const Array3<f32>& y) {
  FVF_REQUIRE(y.extents() == scaled.stencil.extents);
  Array3<f32> out(y.extents());
  for (i64 i = 0; i < y.size(); ++i) {
    out[i] = y[i] * scaled.inv_sqrt_diag[i];
  }
  return out;
}

ManufacturedSystem manufacture_solution(const LinearStencil& stencil) {
  const Extents3 ext = stencil.extents;
  ManufacturedSystem out;
  out.exact = Array3<f32>(ext);
  out.rhs = Array3<f32>(ext);

  for (i32 z = 0; z < ext.nz; ++z) {
    for (i32 y = 0; y < ext.ny; ++y) {
      for (i32 x = 0; x < ext.nx; ++x) {
        const f64 fx = ext.nx > 1 ? static_cast<f64>(x) / (ext.nx - 1) : 0.0;
        const f64 fy = ext.ny > 1 ? static_cast<f64>(y) / (ext.ny - 1) : 0.0;
        const f64 fz = ext.nz > 1 ? static_cast<f64>(z) / (ext.nz - 1) : 0.0;
        out.exact(x, y, z) = static_cast<f32>(
            std::cos(std::numbers::pi * fx) * std::cos(std::numbers::pi * fy) +
            0.5 * std::cos(std::numbers::pi * fz));
      }
    }
  }

  const i64 n = ext.cell_count();
  std::vector<f64> u(static_cast<usize>(n)), b(static_cast<usize>(n));
  for (i64 i = 0; i < n; ++i) {
    u[static_cast<usize>(i)] = out.exact[i];
  }
  stencil.apply_f64(u, b);
  for (i64 i = 0; i < n; ++i) {
    out.rhs[i] = static_cast<f32>(b[static_cast<usize>(i)]);
  }
  return out;
}

}  // namespace fvf::core
