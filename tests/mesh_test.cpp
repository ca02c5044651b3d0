// Unit tests for the mesh subsystem: stencil, geometry, transmissibility,
// and synthetic property fields.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <set>
#include <thread>
#include <vector>

#include "common/units.hpp"
#include "mesh/cartesian_mesh.hpp"
#include "mesh/fields.hpp"
#include "mesh/row_split.hpp"
#include "mesh/stencil.hpp"
#include "mesh/transmissibility.hpp"

namespace fvf::mesh {
namespace {

// --- stencil ----------------------------------------------------------------

TEST(StencilTest, TenFaces) {
  EXPECT_EQ(kAllFaces.size(), 10u);
  std::set<std::pair<int, std::pair<int, int>>> offsets;
  for (const Face f : kAllFaces) {
    const Coord3 o = face_offset(f);
    offsets.insert({o.x, {o.y, o.z}});
  }
  EXPECT_EQ(offsets.size(), 10u) << "face offsets must be distinct";
}

TEST(StencilTest, OppositeIsInvolutionWithNegatedOffset) {
  for (const Face f : kAllFaces) {
    const Face o = opposite(f);
    EXPECT_EQ(opposite(o), f);
    EXPECT_EQ(face_offset(f).x, -face_offset(o).x);
    EXPECT_EQ(face_offset(f).y, -face_offset(o).y);
    EXPECT_EQ(face_offset(f).z, -face_offset(o).z);
  }
}

TEST(StencilTest, Classification) {
  int cardinal_xy = 0, vertical = 0, diagonal = 0;
  for (const Face f : kAllFaces) {
    cardinal_xy += is_cardinal_xy(f);
    vertical += is_vertical(f);
    diagonal += is_diagonal(f);
    EXPECT_EQ(is_cardinal_xy(f) + is_vertical(f) + is_diagonal(f), 1)
        << "each face belongs to exactly one class";
  }
  EXPECT_EQ(cardinal_xy, 4);
  EXPECT_EQ(vertical, 2);
  EXPECT_EQ(diagonal, 4);
}

TEST(StencilTest, DiagonalOffsetsStayInPlane) {
  for (const Face f : kAllFaces) {
    if (is_diagonal(f)) {
      EXPECT_EQ(face_offset(f).z, 0);
      EXPECT_NE(face_offset(f).x, 0);
      EXPECT_NE(face_offset(f).y, 0);
    }
  }
}

// --- mesh geometry ----------------------------------------------------------

TEST(MeshTest, VolumesAndAreas) {
  const CartesianMesh m(Extents3{4, 4, 4}, Spacing3{10.0, 20.0, 2.0});
  EXPECT_DOUBLE_EQ(m.cell_volume(), 400.0);
  EXPECT_DOUBLE_EQ(m.face_area(Face::XPlus), 40.0);
  EXPECT_DOUBLE_EQ(m.face_area(Face::YPlus), 20.0);
  EXPECT_DOUBLE_EQ(m.face_area(Face::ZPlus), 200.0);
  EXPECT_DOUBLE_EQ(m.face_area(Face::DiagPP), 0.0);
}

TEST(MeshTest, CentreDistances) {
  const CartesianMesh m(Extents3{4, 4, 4}, Spacing3{3.0, 4.0, 5.0});
  EXPECT_DOUBLE_EQ(m.centre_distance(Face::XMinus), 3.0);
  EXPECT_DOUBLE_EQ(m.centre_distance(Face::YPlus), 4.0);
  EXPECT_DOUBLE_EQ(m.centre_distance(Face::ZMinus), 5.0);
  EXPECT_DOUBLE_EQ(m.centre_distance(Face::DiagMM), 5.0);  // 3-4-5
}

TEST(MeshTest, ElevationGrowsWithZ) {
  const CartesianMesh m(Extents3{2, 2, 4}, Spacing3{1.0, 1.0, 2.0}, 100.0);
  EXPECT_DOUBLE_EQ(m.elevation(0, 0, 0), 101.0);
  EXPECT_DOUBLE_EQ(m.elevation(0, 0, 3), 107.0);
}

TEST(MeshTest, TopographyShiftsColumns) {
  CartesianMesh m(Extents3{3, 3, 2}, Spacing3{1.0, 1.0, 1.0});
  EXPECT_FALSE(m.has_topography());
  m.set_topography(dome_topography(Extents3{3, 3, 2}, 10.0));
  EXPECT_TRUE(m.has_topography());
  // Dome: centre column is the structural high.
  EXPECT_GT(m.elevation(1, 1, 0), m.elevation(0, 0, 0));
  EXPECT_NEAR(m.topography(1, 1), 10.0, 1e-12);
  EXPECT_NEAR(m.topography(0, 0), 0.0, 1e-9);
}

TEST(MeshTest, NeighborRespectsBoundaries) {
  const CartesianMesh m(Extents3{3, 3, 3}, Spacing3{});
  EXPECT_FALSE(m.neighbor(0, 1, 1, Face::XMinus).has_value());
  EXPECT_TRUE(m.neighbor(1, 1, 1, Face::XMinus).has_value());
  EXPECT_FALSE(m.neighbor(0, 0, 0, Face::DiagMM).has_value());
  const auto nb = m.neighbor(1, 1, 1, Face::DiagPP);
  ASSERT_TRUE(nb.has_value());
  EXPECT_EQ(nb->x, 2);
  EXPECT_EQ(nb->y, 2);
  EXPECT_EQ(nb->z, 1);
}

TEST(MeshTest, InteriorFaceCount) {
  const CartesianMesh m(Extents3{3, 3, 3}, Spacing3{});
  EXPECT_EQ(m.interior_face_count(1, 1, 1), 10);  // fully interior
  EXPECT_EQ(m.interior_face_count(0, 0, 0), 4);   // corner: x+, y+, z+, xy++
  EXPECT_TRUE(m.is_interior(1, 1, 1));
  EXPECT_FALSE(m.is_interior(0, 1, 1));
}

TEST(MeshTest, CornerFaceCountEnumerated) {
  const CartesianMesh m(Extents3{3, 3, 3}, Spacing3{});
  // Corner (0,0,0): XPlus, YPlus, ZPlus, DiagPP exist = 4.
  int count = 0;
  for (const Face f : kAllFaces) {
    count += m.neighbor(0, 0, 0, f).has_value();
  }
  EXPECT_EQ(m.interior_face_count(0, 0, 0), count);
  EXPECT_EQ(count, 4);
}

// --- transmissibility -------------------------------------------------------

TEST(TransmissibilityTest, HomogeneousCardinalValue) {
  const Extents3 ext{4, 4, 4};
  const CartesianMesh m(ext, Spacing3{10.0, 10.0, 5.0});
  const f32 k = static_cast<f32>(100.0 * units::kMilliDarcy);
  const auto perm = homogeneous_field(ext, k);
  const auto trans = build_transmissibilities(m, perm);
  // Homogeneous: harmonic mean = k; T = A * k / d.
  const f64 expected_x = 10.0 * 5.0 * static_cast<f64>(k) / 10.0;
  EXPECT_NEAR(trans.at(1, 1, 1, Face::XPlus), expected_x, expected_x * 1e-6);
  const f64 expected_z = 10.0 * 10.0 * static_cast<f64>(k) / 5.0;
  EXPECT_NEAR(trans.at(1, 1, 1, Face::ZPlus), expected_z, expected_z * 1e-6);
}

TEST(TransmissibilityTest, BoundaryFacesAreZero) {
  const Extents3 ext{3, 3, 3};
  const CartesianMesh m(ext, Spacing3{});
  const auto perm = homogeneous_field(ext, 1e-13f);
  const auto trans = build_transmissibilities(m, perm);
  EXPECT_EQ(trans.at(0, 1, 1, Face::XMinus), 0.0f);
  EXPECT_EQ(trans.at(2, 1, 1, Face::XPlus), 0.0f);
  EXPECT_EQ(trans.at(0, 0, 1, Face::DiagMM), 0.0f);
  EXPECT_GT(trans.at(1, 1, 1, Face::XMinus), 0.0f);
}

TEST(TransmissibilityTest, SymmetricAcrossFaces) {
  const Extents3 ext{5, 4, 3};
  const CartesianMesh m(ext, Spacing3{20.0, 30.0, 4.0});
  LognormalOptions options;
  options.seed = 3;
  const auto perm = lognormal_permeability(ext, options);
  const auto trans = build_transmissibilities(m, perm);
  EXPECT_EQ(max_transmissibility_asymmetry(m, trans), 0.0);
}

TEST(TransmissibilityTest, HarmonicMeanDominatedBySmallPerm) {
  const Extents3 ext{2, 1, 1};
  const CartesianMesh m(ext, Spacing3{1.0, 1.0, 1.0});
  Array3<f32> perm(ext);
  perm(0, 0, 0) = 1e-12f;
  perm(1, 0, 0) = 1e-18f;  // nearly impermeable
  const auto trans = build_transmissibilities(m, perm);
  // Harmonic mean ~ 2 * k_small.
  EXPECT_NEAR(trans.at(0, 0, 0, Face::XPlus), 2e-18, 1e-19);
}

TEST(TransmissibilityTest, DiagonalWeightScalesAndDisables) {
  const Extents3 ext{3, 3, 1};
  const CartesianMesh m(ext, Spacing3{1.0, 1.0, 1.0});
  const auto perm = homogeneous_field(ext, 1e-13f);
  const auto full = build_transmissibilities(m, perm, {1.0});
  const auto half = build_transmissibilities(m, perm, {0.5});
  const auto off = build_transmissibilities(m, perm, {0.0});
  EXPECT_NEAR(half.at(1, 1, 0, Face::DiagPP),
              0.5f * full.at(1, 1, 0, Face::DiagPP), 1e-20);
  EXPECT_EQ(off.at(1, 1, 0, Face::DiagPP), 0.0f);
  // Cardinal faces unaffected by the diagonal weight.
  EXPECT_EQ(full.at(1, 1, 0, Face::XPlus), off.at(1, 1, 0, Face::XPlus));
}

// The face loop bounds each face's rows and x range; it must write what
// the per-face neighbor formula writes, bit for bit, above and below the
// row split's threshold.
TEST(TransmissibilityTest, MatchesThePerFaceNeighborFormula) {
  for (const Extents3 ext : {Extents3{5, 4, 3}, Extents3{70, 40, 25}}) {
    SCOPED_TRACE(ext.cell_count());
    const CartesianMesh m(ext, Spacing3{20.0, 30.0, 4.0});
    LognormalOptions options;
    options.seed = 11;
    const auto perm = lognormal_permeability(ext, options);
    const TransmissibilityOptions weight{0.75};
    const auto trans = build_transmissibilities(m, perm, weight);
    const f64 diag_area = 0.75 * 4.0 * std::sqrt(20.0 * 30.0);
    i64 mismatches = 0;
    for (i32 z = 0; z < ext.nz; ++z) {
      for (i32 y = 0; y < ext.ny; ++y) {
        for (i32 x = 0; x < ext.nx; ++x) {
          for (const Face f : kAllFaces) {
            f32 want = 0.0f;
            if (const auto nb = m.neighbor(x, y, z, f)) {
              const f64 k_self = perm(x, y, z);
              const f64 k_neib = perm(nb->x, nb->y, nb->z);
              const f64 area = is_diagonal(f) ? diag_area : m.face_area(f);
              want = static_cast<f32>(
                  area * (2.0 * k_self * k_neib /
                          (m.centre_distance(f) * (k_self + k_neib))));
            }
            mismatches += trans.at(x, y, z, f) != want;
          }
        }
      }
    }
    EXPECT_EQ(mismatches, 0);
  }
}

// --- row split ---------------------------------------------------------------

TEST(RowSplitTest, VisitsEveryRowOnceOnTheHostThreads) {
  const Extents3 ext{256, 32, 9};
  ASSERT_GE(ext.cell_count(), kParallelBuildMinCells);
  RowSplit rows(ext);
  EXPECT_EQ(rows.threads(), ThreadPool::hardware_threads());
  std::vector<std::atomic<int>> visits(
      static_cast<usize>(ext.ny) * static_cast<usize>(ext.nz));
  rows.for_each_row([&](i32 y, i32 z) {
    ASSERT_TRUE(ext.contains(0, y, z));
    visits[static_cast<usize>(z * ext.ny + y)].fetch_add(1);
  });
  for (const std::atomic<int>& count : visits) {
    EXPECT_EQ(count.load(), 1);
  }
}

TEST(RowSplitTest, SmallMeshesRunInOrderOnTheCallingThread) {
  const Extents3 ext{16, 16, 8};
  ASSERT_LT(ext.cell_count(), kParallelBuildMinCells);
  RowSplit rows(ext);
  EXPECT_EQ(rows.threads(), 1);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<i64> order;
  rows.for_each_row([&](i32 y, i32 z) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(ext.linear(0, y, z));
  });
  ASSERT_EQ(order.size(), static_cast<usize>(ext.ny * ext.nz));
  for (usize i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i], static_cast<i64>(i) * ext.nx);
  }
}

// --- fields -----------------------------------------------------------------

TEST(FieldsTest, LayeredIsConstantPerLayer) {
  const Extents3 ext{4, 4, 6};
  const auto field = layered_permeability(ext, 1e-15f, 1e-12f, 5);
  for (i32 z = 0; z < ext.nz; ++z) {
    const f32 v = field(0, 0, z);
    EXPECT_GE(v, 1e-15f);
    EXPECT_LE(v, 1e-12f * 1.0001f);
    for (i32 y = 0; y < ext.ny; ++y) {
      for (i32 x = 0; x < ext.nx; ++x) {
        EXPECT_EQ(field(x, y, z), v);
      }
    }
  }
}

TEST(FieldsTest, LognormalPositiveAndDeterministic) {
  const Extents3 ext{6, 6, 4};
  LognormalOptions options;
  options.seed = 9;
  const auto a = lognormal_permeability(ext, options);
  const auto b = lognormal_permeability(ext, options);
  for (i64 i = 0; i < a.size(); ++i) {
    EXPECT_GT(a[i], 0.0f);
    EXPECT_EQ(a[i], b[i]) << "same seed must give identical fields";
  }
}

TEST(FieldsTest, LognormalSpansOrdersOfMagnitude) {
  const Extents3 ext{12, 12, 6};
  LognormalOptions options;
  options.log10_sigma = 1.0;
  const auto field = lognormal_permeability(ext, options);
  f32 lo = field[0], hi = field[0];
  for (i64 i = 0; i < field.size(); ++i) {
    lo = std::min(lo, field[i]);
    hi = std::max(hi, field[i]);
  }
  EXPECT_GT(hi / lo, 100.0f) << "heterogeneity should span >= 2 decades";
}

TEST(FieldsTest, ChannelizedIsBimodalAndDeterministic) {
  const Extents3 ext{24, 16, 3};
  ChannelOptions options;
  options.seed = 5;
  const auto a = channelized_permeability(ext, options);
  const auto b = channelized_permeability(ext, options);
  i64 channel_cells = 0;
  for (i64 i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]);
    EXPECT_TRUE(a[i] == options.background || a[i] == options.channel)
        << "bimodal facies field";
    channel_cells += (a[i] == options.channel);
  }
  // Channels exist but do not fill the volume.
  EXPECT_GT(channel_cells, a.size() / 50);
  EXPECT_LT(channel_cells, a.size() * 3 / 4);
}

TEST(FieldsTest, ChannelsAreLaterallyConnected) {
  // A channel cell at x must have a channel cell at x+1 within a few
  // rows (the meander is continuous).
  const Extents3 ext{30, 20, 1};
  ChannelOptions options;
  options.seed = 9;
  const auto field = channelized_permeability(ext, options);
  for (i32 x = 0; x + 1 < ext.nx; ++x) {
    for (i32 y = 0; y < ext.ny; ++y) {
      if (field(x, y, 0) != options.channel) {
        continue;
      }
      bool connected = false;
      for (i32 dy = -4; dy <= 4; ++dy) {
        const i32 yy = y + dy;
        if (yy >= 0 && yy < ext.ny &&
            field(x + 1, yy, 0) == options.channel) {
          connected = true;
          break;
        }
      }
      EXPECT_TRUE(connected) << "channel breaks at x=" << x << " y=" << y;
    }
  }
}

TEST(FieldsTest, HydrostaticIncreasesWithDepth) {
  const CartesianMesh m(Extents3{2, 2, 10}, Spacing3{10.0, 10.0, 5.0});
  PressureFieldOptions options;
  options.perturbation = 0.0;
  const auto p = hydrostatic_pressure(m, options);
  for (i32 z = 1; z < 10; ++z) {
    EXPECT_GT(p(0, 0, z - 1), p(0, 0, z))
        << "deeper cells (lower z index) carry more pressure";
  }
  EXPECT_NEAR(p(0, 0, 9), static_cast<f32>(options.top_pressure), 1.0f);
}

TEST(FieldsTest, AdvancePressureMatchesBumpFormula) {
  const Extents3 ext{3, 3, 3};
  Array3<f32> p(ext, 1000.0f);
  advance_pressure(p.span(), 4);
  for (i64 i = 0; i < p.size(); ++i) {
    EXPECT_EQ(p[i], 1000.0f + pressure_bump(i, 4));
  }
}

TEST(FieldsTest, IterationPressureComposesBumps) {
  const CartesianMesh m(Extents3{2, 2, 2}, Spacing3{});
  PressureFieldOptions options;
  const auto p0 = iteration_pressure(m, options, 0);
  auto expected = iteration_pressure(m, options, 0);
  advance_pressure(expected.span(), 0);
  advance_pressure(expected.span(), 1);
  const auto p2 = iteration_pressure(m, options, 2);
  for (i64 i = 0; i < p2.size(); ++i) {
    EXPECT_EQ(p2[i], expected[i]);
  }
  (void)p0;
}

TEST(FieldsTest, DomeTopographyBounds) {
  const Extents3 ext{9, 7, 1};
  const auto topo = dome_topography(ext, 25.0);
  f64 hi = 0.0;
  for (const f64 t : topo) {
    EXPECT_GE(t, 0.0);
    EXPECT_LE(t, 25.0 + 1e-9);
    hi = std::max(hi, t);
  }
  EXPECT_NEAR(hi, 25.0, 1e-9);
}

}  // namespace
}  // namespace fvf::mesh
