// Unit and property tests for the TPFA physics core: EOS, the per-face
// flux kernel, instruction accounting, and Algorithm 1 assembly.
#include <gtest/gtest.h>

#include <cmath>
#include <string_view>

#include "common/hash.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "mesh/fields.hpp"
#include "mesh/row_split.hpp"
#include "physics/flux.hpp"
#include "physics/opcount.hpp"
#include "physics/problem.hpp"
#include "physics/residual.hpp"

namespace fvf::physics {
namespace {

FluidProperties test_fluid() {
  FluidProperties fluid;
  fluid.reference_density = 700.0;
  fluid.reference_pressure = 20.0e6;
  fluid.compressibility = 4.5e-9;
  fluid.viscosity = 5.5e-5;
  return fluid;
}

// --- EOS ---------------------------------------------------------------------

TEST(EosTest, ReferenceDensityAtReferencePressure) {
  const FluidProperties fluid = test_fluid();
  EXPECT_DOUBLE_EQ(fluid.density(fluid.reference_pressure),
                   fluid.reference_density);
}

TEST(EosTest, MonotonicallyIncreasingInPressure) {
  const FluidProperties fluid = test_fluid();
  f64 prev = 0.0;
  for (f64 p = 5e6; p <= 60e6; p += 1e6) {
    const f64 rho = fluid.density(p);
    EXPECT_GT(rho, prev);
    prev = rho;
  }
}

TEST(EosTest, DerivativeMatchesFiniteDifference) {
  const FluidProperties fluid = test_fluid();
  const f64 p = 23.0e6;
  const f64 h = 10.0;
  const f64 fd = (fluid.density(p + h) - fluid.density(p - h)) / (2.0 * h);
  EXPECT_NEAR(fluid.density_derivative(p), fd, std::abs(fd) * 1e-6);
}

TEST(EosTest, F32VersionTracksF64) {
  const FluidProperties fluid = test_fluid();
  for (f64 p = 10e6; p <= 40e6; p += 2.5e6) {
    EXPECT_NEAR(fluid.density_f32(static_cast<f32>(p)), fluid.density(p),
                fluid.density(p) * 1e-5);
  }
}

TEST(RockTest, PorosityLinearInPressure) {
  RockProperties rock;
  const f64 p0 = rock.reference_pressure;
  EXPECT_DOUBLE_EQ(rock.porosity(p0), rock.reference_porosity);
  const f64 slope = (rock.porosity(p0 + 1e6) - rock.porosity(p0)) / 1e6;
  EXPECT_NEAR(slope, rock.porosity_derivative(), std::abs(slope) * 1e-9);
}

// --- face flux kernel ---------------------------------------------------------

FaceInputs sample_face(f32 p_self, f32 p_neib, const FluidProperties& fluid,
                       f32 dz = 0.0f, f32 trans = 1e-12f) {
  FaceInputs in;
  in.p_self = p_self;
  in.p_neib = p_neib;
  in.rho_self = fluid.density_f32(p_self);
  in.rho_neib = fluid.density_f32(p_neib);
  in.z_self = 0.0f;
  in.z_neib = dz;
  in.trans = trans;
  return in;
}

TEST(FluxTest, ZeroForUniformPotentialNoGravity) {
  const FluidProperties fluid = test_fluid();
  const KernelConstants c = make_kernel_constants(fluid);
  NullOps ops;
  const FaceInputs in = sample_face(2.0e7f, 2.0e7f, fluid, 0.0f);
  EXPECT_EQ(tpfa_face_flux(in, c, ops), 0.0f);
}

TEST(FluxTest, SignFollowsPressureDifference) {
  const FluidProperties fluid = test_fluid();
  const KernelConstants c = make_kernel_constants(fluid);
  NullOps ops;
  // Neighbor higher pressure -> dphi > 0 -> positive flux (inflow
  // convention of Eq. 3).
  EXPECT_GT(tpfa_face_flux(sample_face(2.0e7f, 2.1e7f, fluid), c, ops), 0.0f);
  EXPECT_LT(tpfa_face_flux(sample_face(2.1e7f, 2.0e7f, fluid), c, ops), 0.0f);
}

TEST(FluxTest, AntisymmetricUnderExchange) {
  const FluidProperties fluid = test_fluid();
  const KernelConstants c = make_kernel_constants(fluid);
  NullOps ops;
  Xoshiro256 rng(17);
  for (int trial = 0; trial < 200; ++trial) {
    const f32 pa = static_cast<f32>(rng.uniform(1.5e7, 2.5e7));
    const f32 pb = static_cast<f32>(rng.uniform(1.5e7, 2.5e7));
    const f32 za = static_cast<f32>(rng.uniform(0.0, 100.0));
    const f32 zb = static_cast<f32>(rng.uniform(0.0, 100.0));
    const f32 t = static_cast<f32>(rng.uniform(1e-14, 1e-11));

    FaceInputs kl;
    kl.p_self = pa;
    kl.p_neib = pb;
    kl.rho_self = fluid.density_f32(pa);
    kl.rho_neib = fluid.density_f32(pb);
    kl.z_self = za;
    kl.z_neib = zb;
    kl.trans = t;
    FaceInputs lk;
    lk.p_self = pb;
    lk.p_neib = pa;
    lk.rho_self = fluid.density_f32(pb);
    lk.rho_neib = fluid.density_f32(pa);
    lk.z_self = zb;
    lk.z_neib = za;
    lk.trans = t;

    const f32 f_kl = tpfa_face_flux(kl, c, ops);
    const f32 f_lk = tpfa_face_flux(lk, c, ops);
    // The upwinded mobility is shared, so antisymmetry holds to f32
    // rounding of the potential difference.
    const f64 scale = std::max<f64>(std::abs(f_kl), 1e-30);
    EXPECT_NEAR(f_kl, -f_lk, scale * 1e-4)
        << "pa=" << pa << " pb=" << pb << " za=" << za << " zb=" << zb;
  }
}

TEST(FluxTest, UpwindPicksSelfWhenPotentialPositive) {
  // Construct a case where the upwind choice matters: large density
  // contrast. dphi > 0 must pick rho_self (Eq. 4 as printed).
  const FluidProperties fluid = test_fluid();
  const KernelConstants c = make_kernel_constants(fluid);
  NullOps ops;
  FaceInputs in;
  in.p_self = 1.0e7f;
  in.p_neib = 3.0e7f;  // dphi > 0
  in.rho_self = 650.0f;
  in.rho_neib = 750.0f;
  in.z_self = in.z_neib = 0.0f;
  in.trans = 1.0e-12f;
  const f32 flux = tpfa_face_flux(in, c, ops);
  const f32 dphi = in.p_neib - in.p_self;
  const f32 expected =
      in.trans * (in.rho_self * c.inv_mu) * dphi;  // self upwinded
  EXPECT_FLOAT_EQ(flux, expected);
}

TEST(FluxTest, GravitySegregationOnVerticalFace) {
  // Same pressure, higher neighbor: potential difference is
  // rho_avg * g * dz > 0.
  const FluidProperties fluid = test_fluid();
  const KernelConstants c = make_kernel_constants(fluid);
  NullOps ops;
  const FaceInputs in = sample_face(2.0e7f, 2.0e7f, fluid, /*dz=*/5.0f);
  EXPECT_GT(tpfa_face_flux(in, c, ops), 0.0f);
}

TEST(FluxTest, ScalesLinearlyWithTransmissibility) {
  const FluidProperties fluid = test_fluid();
  const KernelConstants c = make_kernel_constants(fluid);
  NullOps ops;
  FaceInputs in = sample_face(2.0e7f, 2.1e7f, fluid);
  const f32 f1 = tpfa_face_flux(in, c, ops);
  in.trans *= 4.0f;
  EXPECT_FLOAT_EQ(tpfa_face_flux(in, c, ops), 4.0f * f1);
}

TEST(FluxTest, F64MirrorsF32WithinRounding) {
  const FluidProperties fluid = test_fluid();
  const KernelConstants c = make_kernel_constants(fluid);
  NullOps ops;
  Xoshiro256 rng(23);
  for (int trial = 0; trial < 100; ++trial) {
    const f32 pa = static_cast<f32>(rng.uniform(1.8e7, 2.2e7));
    const f32 pb = static_cast<f32>(rng.uniform(1.8e7, 2.2e7));
    const FaceInputs in = sample_face(pa, pb, fluid, 2.0f);
    const f32 f32_flux = tpfa_face_flux(in, c, ops);
    const f64 f64_flux = tpfa_face_flux_f64(
        pa, pb, in.rho_self, in.rho_neib, in.z_self, in.z_neib, in.trans,
        fluid.gravity, 1.0 / fluid.viscosity);
    const f64 scale = std::max(std::abs(f64_flux), 1e-12);
    EXPECT_NEAR(f32_flux, f64_flux, scale * 2e-3);
  }
}

// --- instruction accounting (Table 4 ground truth) ----------------------------

TEST(OpCountTest, SingleFaceMatchesPaperMix) {
  const FluidProperties fluid = test_fluid();
  const KernelConstants c = make_kernel_constants(fluid);
  CountingOps ops;
  f32 r = 0.0f;
  apply_face(sample_face(2.0e7f, 2.1e7f, fluid), c, r, ops);
  const OpTally& t = ops.tally();
  EXPECT_EQ(t.fmul, 6u);
  EXPECT_EQ(t.fsub, 4u);
  EXPECT_EQ(t.fneg, 1u);
  EXPECT_EQ(t.fadd, 1u);
  EXPECT_EQ(t.fma, 1u);
  EXPECT_EQ(t.flops(), 14u) << "14 FLOPs per flux (paper Section 7.3)";
}

TEST(OpCountTest, TenFacesMatchTable4PerCellCounts) {
  const FluidProperties fluid = test_fluid();
  const KernelConstants c = make_kernel_constants(fluid);
  CountingOps ops;
  f32 r = 0.0f;
  for (int f = 0; f < 10; ++f) {
    apply_face(sample_face(2.0e7f, 2.1e7f, fluid), c, r, ops);
  }
  const OpTally& t = ops.tally();
  EXPECT_EQ(t.fmul, 60u);
  EXPECT_EQ(t.fsub, 40u);
  EXPECT_EQ(t.fneg, 10u);
  EXPECT_EQ(t.fadd, 10u);
  EXPECT_EQ(t.fma, 10u);
  EXPECT_EQ(t.flops(), 140u);
  // Memory traffic per the Table 4 cost model: 390 loads+stores from the
  // FP instructions (the 16 FMOVs come from the fabric receive path,
  // which is exercised in the dataflow tests).
  EXPECT_EQ(t.mem_accesses(), 390u);
}

TEST(OpCountTest, FmovAccounting) {
  CountingOps ops;
  for (int i = 0; i < 16; ++i) {
    ops.fmov();
  }
  EXPECT_EQ(ops.tally().fmov, 16u);
  EXPECT_EQ(ops.tally().fabric_loads, 16u);
  EXPECT_EQ(ops.tally().mem_stores, 16u);
  EXPECT_EQ(ops.tally().flops(), 0u) << "FMOV performs no FLOPs";
}

TEST(OpCountTest, TallyAdditionAndEquality) {
  CountingOps a, b;
  a.fmul();
  b.fma();
  OpTally sum = a.tally();
  sum += b.tally();
  EXPECT_EQ(sum.fmul, 1u);
  EXPECT_EQ(sum.fma, 1u);
  EXPECT_EQ(sum.flops(), 3u);
}

TEST(OpCountTest, CountingDoesNotChangeResults) {
  const FluidProperties fluid = test_fluid();
  const KernelConstants c = make_kernel_constants(fluid);
  CountingOps counting;
  NullOps null;
  const FaceInputs in = sample_face(1.9e7f, 2.2e7f, fluid, -3.0f);
  EXPECT_EQ(tpfa_face_flux(in, c, counting), tpfa_face_flux(in, c, null));
}

// --- Algorithm 1 assembly -----------------------------------------------------

physics::FlowProblem small_problem(u64 seed = 42) {
  ProblemSpec spec;
  spec.extents = Extents3{6, 5, 4};
  spec.spacing = mesh::Spacing3{25.0, 25.0, 4.0};
  spec.geomodel = GeomodelKind::Lognormal;
  spec.seed = seed;
  return FlowProblem(spec);
}

TEST(ResidualTest, CellAndFaceBasedAgree) {
  const FlowProblem problem = small_problem();
  const Extents3 ext = problem.extents();
  Array3<f32> density(ext), r_cell(ext), r_face(ext);
  const Array3<f32>& p = problem.initial_pressure();

  evaluate_density(problem.fluid(), p.span(), density.span());
  NullOps ops;
  assemble_residual_cell_based(problem.mesh(), problem.transmissibility(),
                               problem.fluid(), p.span(), density.span(),
                               r_cell.span(), ops);
  assemble_residual_face_based(problem.mesh(), problem.transmissibility(),
                               problem.fluid(), p.span(), density.span(),
                               r_face.span());

  // Same fluxes, different accumulation order: tolerance scaled to the
  // magnitude of the fluxes involved.
  f64 scale = 0.0;
  for (i64 i = 0; i < r_cell.size(); ++i) {
    scale = std::max(scale, static_cast<f64>(std::abs(r_cell[i])));
  }
  for (i64 i = 0; i < r_cell.size(); ++i) {
    EXPECT_NEAR(r_cell[i], r_face[i], scale * 1e-5);
  }
}

TEST(ResidualTest, FaceBasedConservesMassExactly) {
  // Scatter assembly adds +F and -F per interior face, so the f64 sum of
  // the f32 residuals cancels to (near) zero by construction.
  const FlowProblem problem = small_problem(7);
  const Extents3 ext = problem.extents();
  Array3<f32> density(ext), residual(ext);
  const Array3<f32>& p = problem.initial_pressure();
  evaluate_density(problem.fluid(), p.span(), density.span());
  assemble_residual_face_based(problem.mesh(), problem.transmissibility(),
                               problem.fluid(), p.span(), density.span(),
                               residual.span());
  f64 total = 0.0;
  f64 scale = 0.0;
  for (i64 i = 0; i < residual.size(); ++i) {
    total += residual[i];
    scale += std::abs(residual[i]);
  }
  EXPECT_NEAR(total, 0.0, std::max(scale, 1.0) * 1e-6);
}

TEST(ResidualTest, UniformPressureFlatMeshGivesZeroResidual) {
  ProblemSpec spec;
  spec.extents = Extents3{4, 4, 3};
  spec.geomodel = GeomodelKind::Homogeneous;
  spec.dome_amplitude = 0.0;  // flat: no topography
  FluidProperties fluid = test_fluid();
  fluid.gravity = 0.0;  // no gravity: uniform pressure is equilibrium
  spec.fluid = fluid;
  const FlowProblem problem(spec);

  const Extents3 ext = problem.extents();
  Array3<f32> p(ext, 2.0e7f), density(ext), residual(ext);
  apply_algorithm1(problem.mesh(), problem.transmissibility(),
                   problem.fluid(), p.span(), density.span(), residual.span());
  for (i64 i = 0; i < residual.size(); ++i) {
    EXPECT_EQ(residual[i], 0.0f);
  }
}

TEST(ResidualTest, CardinalOnlyDropsDiagonalContributions) {
  const FlowProblem problem = small_problem(13);
  const Extents3 ext = problem.extents();
  Array3<f32> density(ext), r_all(ext), r_card(ext);
  const Array3<f32>& p = problem.initial_pressure();
  evaluate_density(problem.fluid(), p.span(), density.span());
  NullOps ops;
  assemble_residual_cell_based(problem.mesh(), problem.transmissibility(),
                               problem.fluid(), p.span(), density.span(),
                               r_all.span(), ops, StencilMode::AllTenFaces);
  assemble_residual_cell_based(problem.mesh(), problem.transmissibility(),
                               problem.fluid(), p.span(), density.span(),
                               r_card.span(), ops, StencilMode::CardinalOnly);
  // They must differ somewhere (diagonal transmissibilities are nonzero).
  bool differs = false;
  for (i64 i = 0; i < r_all.size(); ++i) {
    differs |= (r_all[i] != r_card[i]);
  }
  EXPECT_TRUE(differs);
}

TEST(ResidualTest, F32TracksF64Reference) {
  const FlowProblem problem = small_problem(19);
  const Extents3 ext = problem.extents();
  Array3<f32> density(ext), r32(ext);
  Array3<f64> r64(ext);
  const Array3<f32>& p = problem.initial_pressure();
  apply_algorithm1(problem.mesh(), problem.transmissibility(),
                   problem.fluid(), p.span(), density.span(), r32.span());
  assemble_residual_f64(problem.mesh(), problem.transmissibility(),
                        problem.fluid(), p.span(), r64.span());
  f64 scale = 0.0;
  for (i64 i = 0; i < r64.size(); ++i) {
    scale = std::max(scale, std::abs(r64[i]));
  }
  for (i64 i = 0; i < r32.size(); ++i) {
    EXPECT_NEAR(r32[i], r64[i], scale * 5e-3);
  }
}

TEST(ResidualTest, InstrumentedAssemblyCountsFacesExactly) {
  const FlowProblem problem = small_problem(29);
  const Extents3 ext = problem.extents();
  Array3<f32> density(ext), residual(ext);
  const Array3<f32>& p = problem.initial_pressure();
  evaluate_density(problem.fluid(), p.span(), density.span());
  CountingOps ops;
  assemble_residual_cell_based(problem.mesh(), problem.transmissibility(),
                               problem.fluid(), p.span(), density.span(),
                               residual.span(), ops);
  // Total face visits = sum over cells of in-mesh neighbor counts.
  u64 faces = 0;
  for (i32 z = 0; z < ext.nz; ++z) {
    for (i32 y = 0; y < ext.ny; ++y) {
      for (i32 x = 0; x < ext.nx; ++x) {
        faces += static_cast<u64>(
            problem.mesh().interior_face_count(x, y, z));
      }
    }
  }
  EXPECT_EQ(ops.tally().fmul, 6 * faces);
  EXPECT_EQ(ops.tally().fsub, 4 * faces);
  EXPECT_EQ(ops.tally().flops(), 14 * faces);
}

TEST(ProblemTest, DescribeMentionsSizeAndSeed) {
  const FlowProblem problem = small_problem(101);
  const std::string d = problem.describe();
  EXPECT_NE(d.find("6x5x4"), std::string::npos);
  EXPECT_NE(d.find("101"), std::string::npos);
}

// --- problem build ---------------------------------------------------------

/// FNV-1a of an array's bytes.
u64 digest(const Array3<f32>& a, u64 hash = kFnv1aSeed) {
  const std::span<const f32> cells = a.flat();
  return fnv1a(std::string_view(reinterpret_cast<const char*>(cells.data()),
                                cells.size_bytes()),
               hash);
}

/// FNV-1a of the ten face arrays' bytes, chained in stencil order.
u64 digest(const mesh::TransmissibilityField& trans) {
  u64 hash = kFnv1aSeed;
  for (const mesh::Face f : mesh::kAllFaces) {
    hash = digest(trans.face_array(f), hash);
  }
  return hash;
}

struct BuildDigests {
  u64 permeability;
  u64 transmissibility;
  u64 pressure;
};

// The digests were taken from the serial build. The problem build splits
// its per-cell steps over the host's threads from kParallelBuildMinCells
// cells up; these pin that every split writes the same bytes, both above
// the threshold and below it.
TEST(ProblemBuildTest, ArraysMatchTheSerialDigest) {
  const Extents3 above{96, 80, 12};
  const Extents3 below{16, 16, 8};
  ASSERT_GE(above.cell_count(), mesh::kParallelBuildMinCells);
  ASSERT_LT(below.cell_count(), mesh::kParallelBuildMinCells);

  const auto check = [](const FlowProblem& problem, BuildDigests want) {
    EXPECT_EQ(digest(problem.permeability()), want.permeability);
    EXPECT_EQ(digest(problem.transmissibility()), want.transmissibility);
    EXPECT_EQ(digest(problem.initial_pressure()), want.pressure);
  };
  {
    SCOPED_TRACE("benchmark problem 96x80x12");
    check(make_benchmark_problem(above, 2),
          {0xbc0909b0d8e10c90ULL, 0xa662ce17d15e694dULL,
           0x86c20e74390d25f4ULL});
  }
  {
    SCOPED_TRACE("benchmark problem 16x16x8");
    check(make_benchmark_problem(below, 2),
          {0x31d10309eb5f671eULL, 0xf717907338c58d79ULL,
           0x3a41e31369780541ULL});
  }

  // The transmissibility loop on fields with zero-width boundaries
  // between very different permeabilities.
  const mesh::CartesianMesh mesh(above, {50.0, 50.0, 5.0});
  {
    SCOPED_TRACE("layered transmissibilities");
    EXPECT_EQ(digest(mesh::build_transmissibilities(
                  mesh, mesh::layered_permeability(above, 1.0e-15f,
                                                   1.0e-12f, 5))),
              0xcd7c5df74e7e8ebdULL);
  }
  {
    SCOPED_TRACE("channelized transmissibilities");
    mesh::ChannelOptions channels;
    channels.seed = 5;
    EXPECT_EQ(digest(mesh::build_transmissibilities(
                  mesh, mesh::channelized_permeability(above, channels),
                  mesh::TransmissibilityOptions{0.25})),
              0xa0e01cbdb4284321ULL);
  }
}

}  // namespace
}  // namespace fvf::physics
