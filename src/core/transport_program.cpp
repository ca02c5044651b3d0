#include "core/transport_program.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include "common/assert.hpp"
#include "core/launcher.hpp"
#include "physics/residual.hpp"

namespace fvf::core {

using namespace dataflow;

namespace {

using wse::Dsd;
using wse::PeCompute;

/// The physics half of the transport program: per-round flux assembly,
/// CFL bound, and the saturation update. All communication (halo rounds,
/// completion, the MIN-reduce tree) lives in the spec engine.
///
/// All of the kernel's columns live in one buffer: the extracted
/// PeColumnData geometry columns first (its pressure column holds the
/// window's fixed p), then the working columns below.
class TransportKernel final : public spec::StencilKernel {
 public:
  /// PE `coord`'s kernel over `geometry`, with its S, p and well-rate
  /// columns taken from the global fields.
  TransportKernel(TransportKernelOptions options, PeColumnData geometry,
                  Coord2 coord, const Array3<f32>& saturation,
                  const Array3<f32>& pressure, const Array3<f32>& well_rate)
      : nz_(geometry.nz()), options_(options) {
    FVF_REQUIRE(options.window_seconds > 0.0);
    FVF_REQUIRE(options.pore_volume > 0.0f);
    FVF_REQUIRE(options.cfl > 0.0f && options.cfl <= 1.0f);

    const usize size = kColumns * static_cast<usize>(nz_);
    columns_ = std::move(geometry).release();
    // Geometry extracted with kColumns columns is already this size.
    FVF_REQUIRE(columns_.size() == size);
    for (i32 z = 0; z < nz_; ++z) {
      const auto i = static_cast<usize>(z);
      column(kSaturation)[i] = saturation(coord.x, coord.y, z);
      column(PeColumnData::kPressure)[i] = pressure(coord.x, coord.y, z);
      column(kWellRate)[i] = well_rate(coord.x, coord.y, z);
    }

    // Face -> neighbor-elevation column lookup (static geometry).
    for (const wse::Color c : kCardinalColors) {
      z_nb_of_face_[static_cast<usize>(cardinal_face(c))] =
          static_cast<u8>(PeColumnData::kElevationCardinal + cardinal_index(c));
    }
    for (const wse::Color c : kDiagonalColors) {
      z_nb_of_face_[static_cast<usize>(diagonal_face(c))] =
          static_cast<u8>(PeColumnData::kElevationDiagonal + diagonal_index(c));
    }
  }

  /// Columns of the kernel's buffer: the PeColumnData geometry ones,
  /// then the working columns below.
  static constexpr usize kColumns = PeColumnData::kColumns + 6;

  [[nodiscard]] std::span<const f32> saturation() const noexcept {
    return column(kSaturation);
  }
  [[nodiscard]] i32 substeps() const noexcept { return substeps_; }
  [[nodiscard]] f64 advanced_seconds() const noexcept { return time_; }

  [[nodiscard]] std::span<const f32> begin_round(PeCompute& api) override {
    // Stage [S | p] for the halo block (fabric-output DSDs stream from
    // contiguous memory).
    const std::span<const f32> s = column(kSaturation);
    const std::span<const f32> p = column(PeColumnData::kPressure);
    const auto n = static_cast<usize>(nz_);
    const std::span<f32> send =
        std::span<f32>(columns_).subspan(kSend * n, 2 * n);
    std::copy(p.begin(), p.end(), std::copy(s.begin(), s.end(), send.begin()));
    api.scalar_ops(2 * n);
    return send;
  }

  void on_block(PeCompute& api, mesh::Face, Dsd block) override {
    // The flux loop below reads this block at round completion. Mark it
    // live for the hazard detector: a receive overwriting it first would
    // be a bug (the dt min-reduce barrier is what rules that out).
    api.hazard_mark_live(block, "transport neighbor view");
  }

  [[nodiscard]] spec::RoundOutcome on_round_complete(
      PeCompute& api, const FaceBlocks& blocks) override {
    const TransportFluid& fl = options_.fluid;
    const i32 nz = nz_;
    const std::span<const f32> s = column(kSaturation);
    const std::span<const f32> p = column(PeColumnData::kPressure);
    const std::span<const f32> z_self = column(PeColumnData::kElevation);
    const std::span<f32> ds = column(kDs);
    const std::span<f32> outflow = column(kOutflow);

    const std::span<const f32> well_rate = column(kWellRate);
    std::copy(well_rate.begin(), well_rate.end(), ds.begin());
    std::copy(well_rate.begin(), well_rate.end(), outflow.begin());

    for (i32 z = 0; z < nz; ++z) {
      const usize uz = static_cast<usize>(z);
      for (const mesh::Face face : mesh::kAllFaces) {
        const f32 t =
            column(PeColumnData::kTrans + static_cast<usize>(face))[uz];
        f32 s_nb, p_nb, z_nb;
        if (mesh::is_vertical(face)) {
          const i32 dz = face == mesh::Face::ZPlus ? 1 : -1;
          const i32 znb = z + dz;
          if (znb < 0 || znb >= nz) {
            continue;
          }
          s_nb = s[static_cast<usize>(znb)];
          p_nb = p[static_cast<usize>(znb)];
          z_nb = z_self[static_cast<usize>(znb)];
        } else {
          const auto& view = blocks[static_cast<usize>(face)];
          if (!view) {
            continue;  // fabric-edge face
          }
          s_nb = view->at(z);
          p_nb = view->at(nz + z);
          z_nb = column(z_nb_of_face_[static_cast<usize>(face)])[uz];
        }
        const TransportFaceFlux flux =
            transport_face(s[uz], s_nb, p[uz], p_nb, z_self[uz], z_nb, t, fl);
        ds[uz] -= flux.nonwetting;
        outflow[uz] += flux.magnitude;
      }
    }
    api.scalar_ops(static_cast<usize>(nz) * mesh::kFaceCount * 12);

    f32 dt_local = std::numeric_limits<f32>::infinity();
    for (const f32 out : outflow) {
      if (out > 0.0f) {
        dt_local =
            std::min(dt_local, options_.cfl * options_.pore_volume / out);
      }
    }
    api.scalar_ops(static_cast<usize>(nz) * 2);

    // The round's views are fully consumed; release them before the
    // reduction so a neighbor's post-barrier round can refill the buffers.
    api.hazard_release_all();

    return spec::RoundOutcome{spec::RoundAction::Reduce, dt_local};
  }

  [[nodiscard]] spec::RoundOutcome on_reduced(PeCompute& api,
                                              f32 global_dt) override {
    const f32 remaining =
        static_cast<f32>(options_.window_seconds - time_);
    f32 dt = std::min(global_dt, remaining);
    if (!(dt > 0.0f)) {
      dt = remaining;  // quiescent or rounding: finish the window
    }
    const std::span<f32> s = column(kSaturation);
    const std::span<const f32> ds = column(kDs);
    for (usize z = 0; z < s.size(); ++z) {
      s[z] = std::clamp(s[z] + dt * ds[z] / options_.pore_volume, 0.0f, 1.0f);
    }
    api.scalar_ops(static_cast<usize>(nz_) * 3);

    time_ += static_cast<f64>(dt);
    ++substeps_;
    if (time_ >= options_.window_seconds * (1.0 - 1e-12) ||
        substeps_ >= options_.max_substeps) {
      return spec::RoundOutcome{spec::RoundAction::Done};
    }
    return spec::RoundOutcome{spec::RoundAction::Continue};
  }

 private:
  // Working columns, after the PeColumnData::kColumns extracted ones.
  static constexpr usize kSaturation = PeColumnData::kColumns;
  static constexpr usize kWellRate = kSaturation + 1;  ///< [m^3/s] per cell
  static constexpr usize kSend = kWellRate + 1;  ///< [S | p] halo staging
  static constexpr usize kDs = kSend + 2;        ///< volume rate per cell
  static constexpr usize kOutflow = kDs + 1;     ///< CFL bookkeeping
  static_assert(kOutflow + 1 == kColumns);

  [[nodiscard]] std::span<f32> column(usize index) noexcept {
    const auto n = static_cast<usize>(nz_);
    return std::span<f32>(columns_).subspan(index * n, n);
  }
  [[nodiscard]] std::span<const f32> column(usize index) const noexcept {
    const auto n = static_cast<usize>(nz_);
    return std::span<const f32>(columns_).subspan(index * n, n);
  }

  i32 nz_;
  TransportKernelOptions options_;
  std::vector<f32> columns_;
  /// Face -> neighbor elevation column (static geometry lookup).
  std::array<u8, mesh::kFaceCount> z_nb_of_face_{};

  f64 time_ = 0.0;
  i32 substeps_ = 0;
};

}  // namespace

spec::StencilSpec make_transport_spec() {
  spec::StencilSpec s;
  s.name = "transport";
  s.exchange = spec::ExchangeKind::StaticHalo;
  s.shape = spec::StencilShape::NinePoint;
  s.block_words_per_cell = 2;  // [S | p]
  s.claims.cardinal = "transport halo exchange";
  s.claims.diagonal = "transport halo diagonal forwards";
  s.claims.allreduce = "transport dt min-reduce";
  s.claims.nack = "transport halo retransmit";
  s.reduction = spec::ReductionSpec{wse::ReduceOp::Min, 1};
  // The complete ordered per-PE memory layout (code+runtime reserved
  // last, matching the historical program's reservation order).
  s.fields = {
      {"S/p/send/ds/outflow/wells", spec::FieldRole::State, 6, 0},
      {"trans + elevations", spec::FieldRole::State,
       static_cast<i32>(mesh::kFaceCount) + 9, 0},
      {"halo buffers", spec::FieldRole::HaloRecv, 16, 0},
      {"code+runtime", spec::FieldRole::Code, 0, 4096},
  };
  return s;
}

spec::Launch transport_launch(const physics::FlowProblem& problem,
                              const Array3<f32>& saturation,
                              const Array3<f32>& pressure,
                              const Array3<f32>& well_rate,
                              const TransportKernelOptions& kernel) {
  const Extents3 ext = problem.extents();
  FVF_REQUIRE(saturation.extents() == ext);
  FVF_REQUIRE(pressure.extents() == ext);
  FVF_REQUIRE(well_rate.extents() == ext);
  // Locals are captured by value: the launch outlives this call.
  return {make_transport_spec(), ext,
          [&problem, &saturation, &pressure, &well_rate,
           kernel](Coord2 coord) {
            return std::make_unique<TransportKernel>(
                kernel,
                extract_column(problem, coord.x, coord.y,
                               TransportKernel::kColumns),
                coord, saturation, pressure, well_rate);
          }};
}

TransportFields gather_transport(const spec::KernelGrid& run) {
  TransportFields result;
  result.saturation = spec::gather<TransportKernel>(
      run, [](const TransportKernel& k) { return k.saturation(); });
  const TransportKernel& probe = run.kernel_as<TransportKernel>(Coord2{0, 0});
  result.substeps = probe.substeps();
  result.advanced_seconds = probe.advanced_seconds();
  return result;
}

Array3<f32> transport_reference_host(const physics::FlowProblem& problem,
                                     const Array3<f32>& saturation,
                                     const Array3<f32>& pressure,
                                     const Array3<f32>& well_rate,
                                     const TransportKernelOptions& options) {
  const Extents3 ext = problem.extents();
  const Array3<f32> elev = physics::cell_elevations(problem.mesh());
  Array3<f32> s = saturation;
  Array3<f32> ds(ext), outflow(ext);
  const TransportFluid& fl = options.fluid;

  f64 time = 0.0;
  i32 substeps = 0;
  while (true) {
    // Identical per-cell, per-face order as the PE kernel.
    for (i32 z = 0; z < ext.nz; ++z) {
      for (i32 y = 0; y < ext.ny; ++y) {
        for (i32 x = 0; x < ext.nx; ++x) {
          ds(x, y, z) = well_rate(x, y, z);
          outflow(x, y, z) = well_rate(x, y, z);
        }
      }
    }
    for (i32 y = 0; y < ext.ny; ++y) {
      for (i32 x = 0; x < ext.nx; ++x) {
        for (i32 z = 0; z < ext.nz; ++z) {
          for (const mesh::Face face : mesh::kAllFaces) {
            const auto nb = problem.mesh().neighbor(x, y, z, face);
            if (!nb) {
              continue;
            }
            const TransportFaceFlux flux = transport_face(
                s(x, y, z), s(nb->x, nb->y, nb->z), pressure(x, y, z),
                pressure(nb->x, nb->y, nb->z), elev(x, y, z),
                elev(nb->x, nb->y, nb->z),
                problem.transmissibility().at(x, y, z, face), fl);
            ds(x, y, z) -= flux.nonwetting;
            outflow(x, y, z) += flux.magnitude;
          }
        }
      }
    }
    f32 dt_global = std::numeric_limits<f32>::infinity();
    for (i64 i = 0; i < outflow.size(); ++i) {
      if (outflow[i] > 0.0f) {
        dt_global =
            std::min(dt_global, options.cfl * options.pore_volume / outflow[i]);
      }
    }
    const f32 remaining = static_cast<f32>(options.window_seconds - time);
    f32 dt = std::min(dt_global, remaining);
    if (!(dt > 0.0f)) {
      dt = remaining;
    }
    for (i64 i = 0; i < s.size(); ++i) {
      s[i] = std::clamp(s[i] + dt * ds[i] / options.pore_volume, 0.0f, 1.0f);
    }
    time += static_cast<f64>(dt);
    ++substeps;
    if (time >= options.window_seconds * (1.0 - 1e-12) ||
        substeps >= options.max_substeps) {
      break;
    }
  }
  return s;
}

}  // namespace fvf::core
