#include "core/tpfa_program.hpp"

#include <memory>

#include "common/assert.hpp"
#include "mesh/fields.hpp"
#include "physics/flux.hpp"
#include "spec/compile.hpp"

namespace fvf::core {

using namespace dataflow;

namespace {

using wse::Dsd;
using wse::PeApi;

}  // namespace

/// The physics half of the TPFA program: Algorithm 1's arithmetic only.
/// Every communication decision (roles, routes, sends, buffering,
/// completion) lives in the spec engine; this kernel computes fluxes on
/// the blocks the engine hands it, in the exact DSD-op order of the
/// original hand-written program (Table 4 derives from these calls).
///
/// All of the kernel's columns live in one buffer: the extracted
/// PeColumnData columns first, then the working columns below.
class TpfaKernel final : public spec::StencilKernel {
 public:
  TpfaKernel(Coord2 coord, Extents3 mesh_extents, TpfaKernelOptions options,
             physics::FluidProperties fluid, PeColumnData data)
      : coord_(coord),
        mesh_extents_(mesh_extents),
        options_(options),
        fluid_(fluid),
        nz_(mesh_extents.nz) {
    FVF_REQUIRE(data.nz() == nz_);

    const physics::KernelConstants constants =
        physics::make_kernel_constants(fluid_);
    gravity_f32_ = 2.0f * constants.half_g;
    inv_mu_f32_ = constants.inv_mu;

    const usize scratch_count = options_.reuse_buffers ? 4 : 13;
    columns_ = std::move(data).release();
    columns_.resize((kScratch + scratch_count) * static_cast<usize>(nz_),
                    0.0f);

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

  [[nodiscard]] std::span<const f32> residual() const noexcept {
    return column(kResidual);
  }
  [[nodiscard]] std::span<const f32> pressure() const noexcept {
    return column(PeColumnData::kPressure);
  }

  void local_compute(PeApi& api, i32 round) override {
    if (!options_.compute_enabled) {
      return;
    }
    api.set_phase(obs::Phase::LocalCompute);
    const usize n = static_cast<usize>(nz_);
    const std::span<f32> p = column(PeColumnData::kPressure);
    const std::span<f32> rho = column(kDensity);

    // Pressure advance between applications of Algorithm 1 (matches
    // mesh::advance_pressure on the global array element-for-element).
    if (round > 0) {
      for (usize z = 0; z < n; ++z) {
        const i64 linear =
            mesh_extents_.linear(coord_.x, coord_.y, static_cast<i32>(z));
        p[z] += mesh::pressure_bump(linear, round - 1);
      }
      api.transcendental_ops(n);
      api.scalar_ops(2 * n);
    }

    // EOS pass (Eq. 5). Accounted outside the Table 4 instruction
    // classes, as in the paper.
    for (usize z = 0; z < n; ++z) {
      rho[z] = fluid_.density_f32(p[z]);
    }
    api.transcendental_ops(n);
    api.scalar_ops(3 * n);

    api.zeros(dsd(kResidual));
  }

  [[nodiscard]] SendHalves send_halves() const override {
    return {column(PeColumnData::kPressure), column(kDensity)};
  }

  void process_block(PeApi& api, mesh::Face face, Dsd block) override {
    if (!options_.compute_enabled) {
      return;
    }
    // Partial flux computed as soon as the block is current (overlap,
    // Section 5.3.2); the flux column overwrites the dead p half of the
    // receive buffer and waits for the canonical-order accumulation.
    const Dsd p_nb = block.window(0, nz_);
    const Dsd rho_nb = block.window(nz_, nz_);
    api.set_phase(obs::Phase::LocalCompute);
    compute_face_flux(api, p_nb, rho_nb,
                      dsd(z_nb_of_face_[static_cast<usize>(face)]),
                      dsd(PeColumnData::kTrans + static_cast<usize>(face)),
                      dsd(PeColumnData::kPressure), dsd(kDensity),
                      dsd(PeColumnData::kElevation), p_nb);
  }

  void finalize_round(PeApi& api, const FaceBlocks& blocks) override {
    if (!options_.compute_enabled) {
      return;
    }
    api.set_phase(obs::Phase::LocalCompute);
    // Accumulate the ten faces in the canonical stencil order, exactly as
    // the serial reference's inner loop does, so the residual is
    // bit-identical. Vertical faces are computed here (they are local and
    // cheap); all communicated faces were computed on arrival.
    const Dsd r = dsd(kResidual);
    const i32 m = nz_ - 1;
    for (const mesh::Face face : mesh::kAllFaces) {
      if (mesh::is_vertical(face)) {
        if (nz_ <= 1) {
          continue;
        }
        const Dsd p = dsd(PeColumnData::kPressure);
        const Dsd rho = dsd(kDensity);
        const Dsd z = dsd(PeColumnData::kElevation);
        const Dsd t = dsd(PeColumnData::kTrans + static_cast<usize>(face));
        const Dsd flux = dsd(kVerticalFlux).window(0, m);
        if (face == mesh::Face::ZMinus) {
          // Cells 1..nz-1, neighbor below.
          compute_face_flux(api, p.window(0, m), rho.window(0, m),
                            z.window(0, m), t.window(1, m), p.window(1, m),
                            rho.window(1, m), z.window(1, m), flux);
          accumulate_flux(api, flux, r.window(1, m));
        } else {
          // Cells 0..nz-2, neighbor above.
          compute_face_flux(api, p.window(1, m), rho.window(1, m),
                            z.window(1, m), t.window(0, m), p.window(0, m),
                            rho.window(0, m), z.window(0, m), flux);
          accumulate_flux(api, flux, r.window(0, m));
        }
        continue;
      }
      const auto& block = blocks[static_cast<usize>(face)];
      if (block) {
        accumulate_flux(api, block->window(0, nz_), r);
      }
    }
  }

 private:
  // Working columns, after the PeColumnData::kColumns extracted ones.
  static constexpr usize kDensity = PeColumnData::kColumns;
  static constexpr usize kResidual = kDensity + 1;
  static constexpr usize kVerticalFlux = kResidual + 1;
  static constexpr usize kScratch = kVerticalFlux + 1;

  [[nodiscard]] std::span<f32> column(usize index) noexcept {
    const auto n = static_cast<usize>(nz_);
    return std::span<f32>(columns_).subspan(index * n, n);
  }
  [[nodiscard]] std::span<const f32> column(usize index) const noexcept {
    const auto n = static_cast<usize>(nz_);
    return std::span<const f32>(columns_).subspan(index * n, n);
  }
  [[nodiscard]] Dsd dsd(usize index) noexcept { return Dsd::of(column(index)); }

  [[nodiscard]] Dsd scratch(usize slot, i32 length) noexcept {
    return dsd(kScratch + slot).window(0, length);
  }

  /// The TPFA face kernel over a column window: computes the flux column
  /// into `flux_out` (12 DSD ops). Every implementation-visible FP
  /// instruction is a DSD op charged to the PE's counters. `flux_out`
  /// may alias `p_nb`, which is dead by the time the flux is written.
  void compute_face_flux(PeApi& api, Dsd p_nb, Dsd rho_nb, Dsd z_nb,
                         Dsd trans, Dsd p_self, Dsd rho_self, Dsd z_self,
                         Dsd flux_out) {
    const i32 n = p_nb.length;
    // Scratch schedule. With buffer reuse (Section 5.3.1) four columns
    // are cycled through like hand-allocated registers; without it,
    // every intermediate gets its own column. Numerics are identical.
    usize next = 0;
    const auto fresh = [&]() -> Dsd {
      const usize slot = options_.reuse_buffers ? (next % 4) : next;
      ++next;
      return scratch(slot, n);
    };

    // Mirrors physics::tpfa_face_flux operation-for-operation (see
    // flux.hpp for the Table 4 instruction budget).
    Dsd dz = fresh();
    api.fsubs(dz, z_nb, z_self);        // FSUB: dz = z_L - z_K
    Dsd dp = fresh();
    api.fsubs(dp, p_nb, p_self);        // FSUB: dp = p_L - p_K
    Dsd rho_avg = fresh();
    api.fadds(rho_avg, rho_self, rho_nb);  // FADD: rho_K + rho_L
    api.fmuls(rho_avg, rho_avg, 0.5f);  // FMUL: * 0.5
    api.fmuls(dz, dz, gravity_f32_);    // FMUL: g * dz
    Dsd dphi = options_.reuse_buffers ? dz : fresh();
    api.fmacs(dphi, rho_avg, dz, dp);   // FMA: dphi = rho_avg*(g dz) + dp
    Dsd cmp = options_.reuse_buffers ? dp : fresh();
    api.fsubs(cmp, dphi, 0.0f);         // FSUB: upwind compare vs zero
    Dsd lam_self = options_.reuse_buffers ? rho_avg : fresh();
    api.fmuls(lam_self, rho_self, inv_mu_f32_);  // FMUL: rho_K / mu
    Dsd lam_neib = fresh();
    api.fmuls(lam_neib, rho_nb, inv_mu_f32_);    // FMUL: rho_L / mu
    Dsd lam = options_.reuse_buffers ? cmp : fresh();
    api.selects(lam, cmp, lam_self, lam_neib);   // predicated move (Eq. 4)
    Dsd t_lam = options_.reuse_buffers ? lam : fresh();
    api.fmuls(t_lam, trans, lam);       // FMUL: T * lambda
    // The flux lands in flux_out (typically the dead p half of the
    // block's receive buffer), where it waits for the canonical-order
    // accumulation.
    api.fmuls(flux_out, t_lam, dphi);   // FMUL: F = T lambda dphi
  }

  /// r -= (-flux): the FNEG + FSUB accumulation pair of the face budget.
  void accumulate_flux(PeApi& api, Dsd flux, Dsd r) {
    Dsd neg = scratch(0, flux.length);
    api.fnegs(neg, flux);  // FNEG
    api.fsubs(r, r, neg);  // FSUB: r -= (-F)
  }

  Coord2 coord_;
  Extents3 mesh_extents_;
  TpfaKernelOptions options_;
  physics::FluidProperties fluid_;
  f32 gravity_f32_ = 0.0f;
  f32 inv_mu_f32_ = 0.0f;
  i32 nz_ = 0;

  std::vector<f32> columns_;
  /// Face -> neighbor elevation column (static geometry lookup).
  std::array<u8, mesh::kFaceCount> z_nb_of_face_{};
};

spec::StencilSpec make_tpfa_spec(const TpfaKernelOptions& options) {
  spec::StencilSpec s;
  s.name = "tpfa";
  s.exchange = spec::ExchangeKind::SwitchProtocol;
  s.shape = options.diagonals_enabled ? spec::StencilShape::NinePoint
                                      : spec::StencilShape::FivePoint;
  s.block_words_per_cell = 2;  // [p | rho]
  s.rounds = options.iterations;
  s.claims.cardinal = "tpfa cardinal exchange";
  s.claims.diagonal = "tpfa diagonal forwards";
  // The complete ordered per-PE memory layout (the engine reserves these
  // verbatim; the order and tags are part of the program's contract with
  // the lint memory report and the footprint tests).
  const i32 scratch_columns = options.reuse_buffers ? 4 : 13;
  s.fields = {
      {"code+runtime", spec::FieldRole::Code, 0,
       TpfaPeProgram::kCodeFootprintBytes},
      {"p/rho/r columns", spec::FieldRole::State, 3, 0},
      {"own elevations", spec::FieldRole::State, 1, 0},
      {"neighbor elevations", spec::FieldRole::State, 8, 0},
      {"transmissibilities", spec::FieldRole::State,
       static_cast<i32>(mesh::kFaceCount), 0},
      {"cardinal recv buffers", spec::FieldRole::CardinalRecv, 8, 0},
      {"diagonal recv buffers", spec::FieldRole::DiagonalRecv, 8, 0},
      {"scratch columns", spec::FieldRole::State, scratch_columns, 0},
      {"vertical flux column", spec::FieldRole::State, 1, 0},
  };
  return s;
}

PeColumnData::PeColumnData(i32 nz)
    : nz_(nz), columns_(kColumns * static_cast<usize>(nz), 0.0f) {
  FVF_REQUIRE(nz >= 1);
}

std::span<f32> PeColumnData::column(usize index) noexcept {
  const auto n = static_cast<usize>(nz_);
  return std::span<f32>(columns_).subspan(index * n, n);
}

std::span<const f32> PeColumnData::column(usize index) const noexcept {
  const auto n = static_cast<usize>(nz_);
  return std::span<const f32>(columns_).subspan(index * n, n);
}

namespace {

/// The compiled TPFA spec for `options`, reusing this thread's last
/// compile when the options match.
std::shared_ptr<const spec::CompiledSpec> tpfa_spec_for(
    const TpfaKernelOptions& options) {
  thread_local TpfaKernelOptions last;
  thread_local std::shared_ptr<const spec::CompiledSpec> compiled;
  if (compiled == nullptr || options.iterations != last.iterations ||
      options.compute_enabled != last.compute_enabled ||
      options.reuse_buffers != last.reuse_buffers ||
      options.diagonals_enabled != last.diagonals_enabled) {
    compiled = std::make_shared<const spec::CompiledSpec>(
        spec::compile(make_tpfa_spec(options)));
    last = options;
  }
  return compiled;
}

}  // namespace

TpfaPeProgram::TpfaPeProgram(Coord2 coord, Coord2 fabric_size,
                             Extents3 mesh_extents, TpfaKernelOptions options,
                             physics::FluidProperties fluid, PeColumnData data,
                             std::shared_ptr<const spec::CompiledSpec> compiled)
    : SpecPeProgram(coord, fabric_size, mesh_extents.nz, std::move(compiled),
                    {},
                    std::make_unique<TpfaKernel>(coord, mesh_extents, options,
                                                 fluid, std::move(data))),
      physics_(static_cast<TpfaKernel*>(kernel())) {}

TpfaPeProgram::TpfaPeProgram(Coord2 coord, Coord2 fabric_size,
                             Extents3 mesh_extents, TpfaKernelOptions options,
                             physics::FluidProperties fluid, PeColumnData data)
    : TpfaPeProgram(coord, fabric_size, mesh_extents, options, fluid,
                    std::move(data), tpfa_spec_for(options)) {}

std::span<const f32> TpfaPeProgram::residual() const noexcept {
  return physics_->residual();
}

std::span<const f32> TpfaPeProgram::pressure() const noexcept {
  return physics_->pressure();
}

usize TpfaPeProgram::data_footprint_bytes(i32 nz, bool reuse_buffers) {
  const usize n = static_cast<usize>(nz);
  usize words = 0;
  words += 3 * n;                      // p, rho, r
  words += n;                          // own elevations
  words += 8 * n;                      // 8 neighbor elevation columns
  words += mesh::kFaceCount * n;       // 10 transmissibility columns
  words += 4 * 2 * n;                  // 4 cardinal receive buffers
  words += 4 * 2 * n;                  // 4 diagonal receive buffers
  words += (reuse_buffers ? 4 : 13) * n;  // scratch columns
  words += n;                          // vertical-face flux column
  return words * sizeof(f32);
}

}  // namespace fvf::core
