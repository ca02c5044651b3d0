#include "core/transport_program.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include "common/assert.hpp"
#include "core/launcher.hpp"
#include "physics/residual.hpp"

namespace fvf::core {

using namespace dataflow;

namespace {

using wse::Dsd;
using wse::PeCompute;

/// Per-PE column data.
struct PeTransportData {
  std::vector<f32> saturation;  ///< S, length Nz (updated)
  std::vector<f32> pressure;    ///< p, length Nz (fixed for the window)
  std::vector<f32> elevation;   ///< own cell-centre elevations
  std::array<std::vector<f32>, 4> elevation_cardinal;
  std::array<std::vector<f32>, 4> elevation_diagonal;
  std::array<std::vector<f32>, mesh::kFaceCount> trans;
  std::vector<f32> well_rate;   ///< injected volume rate per cell [m^3/s]
};

/// The physics half of the transport program: per-round flux assembly,
/// CFL bound, and the saturation update. All communication (halo rounds,
/// completion, the MIN-reduce tree) lives in the spec engine.
class TransportKernel final : public spec::StencilKernel {
 public:
  TransportKernel(i32 nz, TransportKernelOptions options,
                  PeTransportData data)
      : nz_(nz), options_(options) {
    FVF_REQUIRE(nz > 0);
    FVF_REQUIRE(options.window_seconds > 0.0);
    FVF_REQUIRE(options.pore_volume > 0.0f);
    FVF_REQUIRE(options.cfl > 0.0f && options.cfl <= 1.0f);

    s_ = std::move(data.saturation);
    p_ = std::move(data.pressure);
    z_self_ = std::move(data.elevation);
    z_cardinal_ = std::move(data.elevation_cardinal);
    z_diagonal_ = std::move(data.elevation_diagonal);
    trans_ = std::move(data.trans);
    well_rate_ = std::move(data.well_rate);
    FVF_REQUIRE(static_cast<i32>(s_.size()) == nz);
    FVF_REQUIRE(static_cast<i32>(p_.size()) == nz);
    FVF_REQUIRE(static_cast<i32>(well_rate_.size()) == nz);

    const usize n = static_cast<usize>(nz);
    send_buf_.assign(2 * n, 0.0f);
    ds_.assign(n, 0.0f);
    outflow_.assign(n, 0.0f);

    // Face -> neighbor-elevation column lookup (static geometry).
    z_nb_of_face_.fill(nullptr);
    for (const wse::Color c : kCardinalColors) {
      z_nb_of_face_[static_cast<usize>(cardinal_face(c))] =
          &z_cardinal_[cardinal_index(c)];
    }
    for (const wse::Color c : kDiagonalColors) {
      z_nb_of_face_[static_cast<usize>(diagonal_face(c))] =
          &z_diagonal_[diagonal_index(c)];
    }
  }

  [[nodiscard]] std::span<const f32> saturation() const noexcept {
    return s_;
  }
  [[nodiscard]] i32 substeps() const noexcept { return substeps_; }
  [[nodiscard]] f64 advanced_seconds() const noexcept { return time_; }

  [[nodiscard]] std::span<const f32> begin_round(PeCompute& api) override {
    for (auto& view : neighbor_block_) {
      view.reset();
    }
    // Stage [S | p] for the halo block (fabric-output DSDs stream from
    // contiguous memory).
    std::copy(s_.begin(), s_.end(), send_buf_.begin());
    std::copy(p_.begin(), p_.end(),
              send_buf_.begin() + static_cast<std::ptrdiff_t>(nz_));
    api.scalar_ops(2 * static_cast<usize>(nz_));
    return send_buf_;
  }

  void on_block(PeCompute& api, mesh::Face face, Dsd block) override {
    // Keep a view into the halo buffer; it stays valid until the next
    // begin_round. Mark it live for the hazard detector: a receive
    // overwriting it before the flux loop below reads it would be a bug
    // (the dt min-reduce barrier is what rules that out).
    api.hazard_mark_live(block, "transport neighbor view");
    neighbor_block_[static_cast<usize>(face)] = block;
  }

  [[nodiscard]] spec::RoundOutcome on_round_complete(PeCompute& api) override {
    const TransportFluid& fl = options_.fluid;
    const i32 nz = nz_;

    for (i32 z = 0; z < nz; ++z) {
      ds_[static_cast<usize>(z)] = well_rate_[static_cast<usize>(z)];
      outflow_[static_cast<usize>(z)] = well_rate_[static_cast<usize>(z)];
    }

    for (i32 z = 0; z < nz; ++z) {
      const usize uz = static_cast<usize>(z);
      for (const mesh::Face face : mesh::kAllFaces) {
        const f32 t = trans_[static_cast<usize>(face)][uz];
        f32 s_nb, p_nb, z_nb;
        if (mesh::is_vertical(face)) {
          const i32 dz = face == mesh::Face::ZPlus ? 1 : -1;
          const i32 znb = z + dz;
          if (znb < 0 || znb >= nz) {
            continue;
          }
          s_nb = s_[static_cast<usize>(znb)];
          p_nb = p_[static_cast<usize>(znb)];
          z_nb = z_self_[static_cast<usize>(znb)];
        } else {
          const auto& view = neighbor_block_[static_cast<usize>(face)];
          if (!view) {
            continue;  // fabric-edge face
          }
          s_nb = view->at(z);
          p_nb = view->at(nz + z);
          z_nb = (*z_nb_of_face_[static_cast<usize>(face)])[uz];
        }
        const TransportFaceFlux flux = transport_face(s_[uz], s_nb, p_[uz], p_nb,
                                             z_self_[uz], z_nb, t, fl);
        ds_[uz] -= flux.nonwetting;
        outflow_[uz] += flux.magnitude;
      }
    }
    api.scalar_ops(static_cast<usize>(nz) * mesh::kFaceCount * 12);

    f32 dt_local = std::numeric_limits<f32>::infinity();
    for (i32 z = 0; z < nz; ++z) {
      const f32 out = outflow_[static_cast<usize>(z)];
      if (out > 0.0f) {
        dt_local =
            std::min(dt_local, options_.cfl * options_.pore_volume / out);
      }
    }
    api.scalar_ops(static_cast<usize>(nz) * 2);

    // The stashed views are fully consumed; release them before the
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
    for (i32 z = 0; z < nz_; ++z) {
      const usize uz = static_cast<usize>(z);
      s_[uz] = std::clamp(s_[uz] + dt * ds_[uz] / options_.pore_volume, 0.0f,
                          1.0f);
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
  i32 nz_;
  TransportKernelOptions options_;

  std::vector<f32> s_;
  std::vector<f32> p_;
  std::vector<f32> send_buf_;  ///< [S | p] staging for the halo block
  std::vector<f32> ds_;        ///< accumulated volume rate per cell
  std::vector<f32> outflow_;   ///< CFL bookkeeping per cell
  std::vector<f32> z_self_;
  std::array<std::vector<f32>, 4> z_cardinal_;
  std::array<std::vector<f32>, 4> z_diagonal_;
  std::array<std::vector<f32>, mesh::kFaceCount> trans_;
  std::vector<f32> well_rate_;

  /// Views of the halo buffers, one per XY face, refreshed every round.
  std::array<std::optional<wse::Dsd>, mesh::kFaceCount> neighbor_block_;
  /// Face -> neighbor elevation column (static geometry lookup).
  std::array<const std::vector<f32>*, mesh::kFaceCount> z_nb_of_face_{};

  f64 time_ = 0.0;
  i32 substeps_ = 0;
};

}  // namespace

spec::StencilSpec make_transport_spec(const TransportKernelOptions&) {
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
  // Locals are captured by value: the probe factory the harness keeps
  // must stay valid after the caller's frame returns.
  return {make_transport_spec(kernel), ext,
          [&problem, &saturation, &pressure, &well_rate, ext,
           kernel](Coord2 coord) {
            // Geometry via the shared column extractor, dynamic fields by
            // hand.
            const PeColumnData geometry =
                extract_column(problem, coord.x, coord.y);
            const auto copy = [](std::span<const f32> column) {
              return std::vector<f32>(column.begin(), column.end());
            };
            PeTransportData data;
            data.elevation = copy(geometry.elevation());
            for (usize i = 0; i < 4; ++i) {
              data.elevation_cardinal[i] = copy(geometry.elevation_cardinal(i));
              data.elevation_diagonal[i] = copy(geometry.elevation_diagonal(i));
            }
            for (const mesh::Face face : mesh::kAllFaces) {
              data.trans[static_cast<usize>(face)] = copy(geometry.trans(face));
            }
            const usize n = static_cast<usize>(ext.nz);
            data.saturation.resize(n);
            data.pressure.resize(n);
            data.well_rate.resize(n);
            for (i32 z = 0; z < ext.nz; ++z) {
              const auto i = static_cast<usize>(z);
              data.saturation[i] = saturation(coord.x, coord.y, z);
              data.pressure[i] = pressure(coord.x, coord.y, z);
              data.well_rate[i] = well_rate(coord.x, coord.y, z);
            }
            return std::make_unique<TransportKernel>(ext.nz, kernel,
                                                     std::move(data));
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
