/// \file colors.hpp
/// \brief Canonical color (routing tag) layout of the fvf::dataflow
///        runtime: the 16-color managed space shared by every dataflow
///        program, plus the constexpr geometry helpers tying colors to
///        movement directions and mesh faces.
///
/// The managed space is carved into four blocks of four:
///
///   colors  0- 3   cardinal data      (two-switch-position protocol or
///                                      static halo routes)
///   colors  4- 7   diagonal forwards  (Figure 5 intermediary hops)
///   colors  8-11   AllReduce trees    (row/col reduce + row/col bcast)
///   colors 12-15   retransmit NACKs   (halo reliability layer)
///
/// Programs obtain blocks through ColorPlan (color_plan.hpp), which
/// registers ownership and rejects conflicting claims; the constants here
/// are the canonical values those claims resolve to, so checked-in golden
/// traces stay valid across refactors.
///
/// Communication plan per application of Algorithm 1 (paper Section 5.2):
///
/// *Cardinal exchange* — four data colors, one per movement direction.
/// Each uses the two-switch-position send/receive protocol of Figure 6:
/// PEs at even coordinate along the movement axis send first; their
/// control wavelet flips both routers; the odd PEs then send back.
///
///   color       moves   received from   provides face   forwarded on
///   kEastData   East    West neighbor   x-  (XMinus)    kDiagSouth
///   kWestData   West    East neighbor   x+  (XPlus)     kDiagNorth
///   kNorthData  North   South neighbor  y-  (YMinus)    kDiagEast
///   kSouthData  South   North neighbor  y+  (YPlus)     kDiagWest
///
/// *Diagonal exchange* — four forward colors with static routes
/// (Ramp -> movement dir; upstream -> Ramp). Every PE acts as the
/// intermediary of Figure 5: on receiving a cardinal block it immediately
/// re-sends it rotated counterclockwise (W->S, S->E, E->N, N->W), so each
/// corner's data reaches the diagonal target in two hops and all four
/// corner transfers proceed concurrently through distinct intermediaries.
///
///   color        second hop   received from   provides corner  face
///   kDiagSouth   southward    North neighbor  north-west       xy-+
///   kDiagNorth   northward    South neighbor  south-east       xy+-
///   kDiagEast    eastward     West neighbor   south-west       xy--
///   kDiagWest    westward     East neighbor   north-east       xy++
#pragma once

#include <array>
#include <optional>

#include "mesh/stencil.hpp"
#include "wse/collectives.hpp"
#include "wse/fabric_types.hpp"

namespace fvf::dataflow {

/// Static layout of the managed color space (see the file comment).
struct ColorSpace {
  static constexpr u8 kBlockSize = 4;
  static constexpr u8 kCardinalBase = 0;
  static constexpr u8 kDiagonalBase = kCardinalBase + kBlockSize;
  static constexpr u8 kAllReduceBase = kDiagonalBase + kBlockSize;
  static constexpr u8 kNackBase = kAllReduceBase + kBlockSize;
  static constexpr u8 kManagedColors = kNackBase + kBlockSize;
};

namespace detail {
[[nodiscard]] constexpr wse::Color block_color(u8 base, u8 offset) noexcept {
  return wse::Color{static_cast<u8>(base + offset)};
}
}  // namespace detail

inline constexpr wse::Color kEastData =
    detail::block_color(ColorSpace::kCardinalBase, 0);
inline constexpr wse::Color kWestData =
    detail::block_color(ColorSpace::kCardinalBase, 1);
inline constexpr wse::Color kNorthData =
    detail::block_color(ColorSpace::kCardinalBase, 2);
inline constexpr wse::Color kSouthData =
    detail::block_color(ColorSpace::kCardinalBase, 3);
inline constexpr wse::Color kDiagSouth =
    detail::block_color(ColorSpace::kDiagonalBase, 0);
inline constexpr wse::Color kDiagNorth =
    detail::block_color(ColorSpace::kDiagonalBase, 1);
inline constexpr wse::Color kDiagEast =
    detail::block_color(ColorSpace::kDiagonalBase, 2);
inline constexpr wse::Color kDiagWest =
    detail::block_color(ColorSpace::kDiagonalBase, 3);

inline constexpr std::array<wse::Color, 4> kCardinalColors = {
    kEastData, kWestData, kNorthData, kSouthData};
inline constexpr std::array<wse::Color, 4> kDiagonalColors = {
    kDiagSouth, kDiagNorth, kDiagEast, kDiagWest};

/// *AllReduce trees* — four colors carrying the chain reductions and
/// broadcasts of wse::AllReduceSum (row reduce West, column reduce South,
/// then row/column broadcast back). Historically these were implicit
/// numeric literals inside each program; the canonical block lives here
/// and is handed out by ColorPlan::claim_allreduce.
inline constexpr wse::Color kAllReduceRowReduce =
    detail::block_color(ColorSpace::kAllReduceBase, 0);
inline constexpr wse::Color kAllReduceColReduce =
    detail::block_color(ColorSpace::kAllReduceBase, 1);
inline constexpr wse::Color kAllReduceRowBcast =
    detail::block_color(ColorSpace::kAllReduceBase, 2);
inline constexpr wse::Color kAllReduceColBcast =
    detail::block_color(ColorSpace::kAllReduceBase, 3);

/// The canonical AllReduce color group (matches the pre-ColorPlan
/// hard-coded assignment bit for bit).
[[nodiscard]] inline wse::AllReduceColors canonical_allreduce_colors() {
  return wse::AllReduceColors{kAllReduceRowReduce, kAllReduceColReduce,
                              kAllReduceRowBcast, kAllReduceColBcast};
}

/// *Retransmit NACKs* — four colors with static one-hop routes, one per
/// travel direction, used by the halo-exchange reliability layer (a
/// receiver missing a block NACKs its upstream neighbor, which resends
/// from a bounded resend buffer). Configured and used only when
/// HarnessOptions::reliability is set.
inline constexpr wse::Color kNackEast =
    detail::block_color(ColorSpace::kNackBase, 0);
inline constexpr wse::Color kNackWest =
    detail::block_color(ColorSpace::kNackBase, 1);
inline constexpr wse::Color kNackNorth =
    detail::block_color(ColorSpace::kNackBase, 2);
inline constexpr wse::Color kNackSouth =
    detail::block_color(ColorSpace::kNackBase, 3);

inline constexpr std::array<wse::Color, 4> kNackColors = {
    kNackEast, kNackWest, kNackNorth, kNackSouth};

[[nodiscard]] constexpr bool is_nack_color(wse::Color c) noexcept {
  return c.id() >= kNackEast.id() && c.id() <= kNackSouth.id();
}

/// Direction a NACK color carries its request in.
[[nodiscard]] constexpr wse::Dir nack_movement_dir(wse::Color c) noexcept {
  if (c == kNackEast) {
    return wse::Dir::East;
  }
  if (c == kNackWest) {
    return wse::Dir::West;
  }
  if (c == kNackNorth) {
    return wse::Dir::North;
  }
  return wse::Dir::South;
}

/// The NACK color that travels toward `d`.
[[nodiscard]] constexpr wse::Color nack_color_toward(wse::Dir d) noexcept {
  switch (d) {
    case wse::Dir::East: return kNackEast;
    case wse::Dir::West: return kNackWest;
    case wse::Dir::North: return kNackNorth;
    default: return kNackSouth;
  }
}

/// Index (0..3) of a cardinal or diagonal color within its group.
[[nodiscard]] constexpr usize cardinal_index(wse::Color c) noexcept {
  return static_cast<usize>(c.id() - ColorSpace::kCardinalBase);
}
[[nodiscard]] constexpr usize diagonal_index(wse::Color c) noexcept {
  return static_cast<usize>(c.id() - ColorSpace::kDiagonalBase);
}

[[nodiscard]] constexpr bool is_cardinal_color(wse::Color c) noexcept {
  return c.id() >= kEastData.id() && c.id() <= kSouthData.id();
}
[[nodiscard]] constexpr bool is_diagonal_color(wse::Color c) noexcept {
  return c.id() >= kDiagSouth.id() && c.id() <= kDiagWest.id();
}

/// Direction a cardinal (or diagonal-forward) color moves data in.
[[nodiscard]] constexpr wse::Dir movement_dir(wse::Color c) noexcept {
  if (c == kEastData || c == kDiagEast) {
    return wse::Dir::East;
  }
  if (c == kWestData || c == kDiagWest) {
    return wse::Dir::West;
  }
  if (c == kNorthData || c == kDiagNorth) {
    return wse::Dir::North;
  }
  return wse::Dir::South;
}

/// Link a block of this color arrives through (= opposite of movement).
[[nodiscard]] constexpr wse::Dir upstream_dir(wse::Color c) noexcept {
  return wse::opposite(movement_dir(c));
}

/// Mesh face whose neighbor data a cardinal color delivers.
[[nodiscard]] constexpr mesh::Face cardinal_face(wse::Color c) noexcept {
  if (c == kEastData) {
    return mesh::Face::XMinus;
  }
  if (c == kWestData) {
    return mesh::Face::XPlus;
  }
  if (c == kNorthData) {
    return mesh::Face::YMinus;
  }
  return mesh::Face::YPlus;
}

/// Mesh face whose corner data a diagonal color delivers.
[[nodiscard]] constexpr mesh::Face diagonal_face(wse::Color c) noexcept {
  if (c == kDiagSouth) {
    return mesh::Face::DiagMP;  // north-west corner
  }
  if (c == kDiagNorth) {
    return mesh::Face::DiagPM;  // south-east corner
  }
  if (c == kDiagEast) {
    return mesh::Face::DiagMM;  // south-west corner
  }
  return mesh::Face::DiagPP;  // north-east corner
}

/// The diagonal color on which a cardinal block is forwarded by its
/// intermediary (the counterclockwise rotation W->S, S->E, E->N, N->W).
[[nodiscard]] constexpr wse::Color diagonal_forward_color(
    wse::Color cardinal) noexcept {
  if (cardinal == kEastData) {
    return kDiagSouth;  // arrived from West  -> forward South
  }
  if (cardinal == kWestData) {
    return kDiagNorth;  // arrived from East  -> forward North
  }
  if (cardinal == kNorthData) {
    return kDiagEast;  // arrived from South -> forward East
  }
  return kDiagWest;  // arrived from North -> forward West
}

/// Inverse of diagonal_forward_color: the cardinal color whose blocks an
/// intermediary re-sends on `diagonal`.
[[nodiscard]] constexpr wse::Color diagonal_source_color(
    wse::Color diagonal) noexcept {
  if (diagonal == kDiagSouth) {
    return kEastData;
  }
  if (diagonal == kDiagNorth) {
    return kWestData;
  }
  if (diagonal == kDiagEast) {
    return kNorthData;
  }
  return kSouthData;
}

}  // namespace fvf::dataflow
