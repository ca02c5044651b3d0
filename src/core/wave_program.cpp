#include "core/wave_program.hpp"

#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "common/assert.hpp"

namespace fvf::core {

namespace {

using spec::RoundAction;
using spec::RoundOutcome;
using wse::Dsd;
using wse::PeCompute;

/// The physics half of the wave program: the operator apply around each
/// halo round and the leapfrog update after it.
class WaveKernel final : public spec::StencilKernel {
 public:
  WaveKernel(WaveKernelOptions options, std::vector<f32> u0,
             PeStencil stencil)
      : options_(options),
        u_prev_(u0),
        u_cur_(std::move(u0)),
        q_(u_cur_.size(), 0.0f),
        stencil_(std::move(stencil)) {
    FVF_REQUIRE(options.timesteps >= 1);
    FVF_REQUIRE(!u_cur_.empty());
  }

  [[nodiscard]] std::span<const f32> field() const noexcept { return u_cur_; }

  [[nodiscard]] std::span<const f32> begin_round(PeCompute& api) override {
    // q = diag .* u + vertical couplings (all local memory).
    stencil_.apply_local(api, q_, u_cur_);
    return u_cur_;
  }

  void on_block(PeCompute& api, mesh::Face face, Dsd u_nb) override {
    stencil_.apply_face(api, q_, face, u_nb);
  }

  [[nodiscard]] RoundOutcome on_round_complete(PeCompute& api,
                                               const FaceBlocks&) override {
    // Leapfrog update: u_next = 2 u - u_prev - kappa q, written into the
    // (dead) u_prev column, then rotate the time levels.
    const Dsd u = Dsd::of(u_cur_);
    const Dsd prev = Dsd::of(u_prev_);
    const Dsd q = Dsd::of(q_);
    api.fmuls(q, q, -options_.kappa);  // q <- -kappa (A u)
    api.fnegs(prev, prev);             // prev <- -u_prev
    api.fadds(prev, prev, q);          // prev <- -u_prev - kappa A u
    api.fmacs(prev, u, 2.0f, prev);    // prev <- 2u - u_prev - kappa A u
    std::swap(u_prev_, u_cur_);
    ++step_;
    return RoundOutcome{step_ == options_.timesteps ? RoundAction::Done
                                                    : RoundAction::Continue};
  }

 private:
  WaveKernelOptions options_;
  std::vector<f32> u_prev_;
  std::vector<f32> u_cur_;
  std::vector<f32> q_;  ///< A u^t accumulator
  PeStencil stencil_;
  i32 step_ = 0;
};

}  // namespace

spec::StencilSpec make_wave_spec() {
  spec::StencilSpec s;
  s.name = "wave";
  s.exchange = spec::ExchangeKind::StaticHalo;
  s.shape = spec::StencilShape::NinePoint;
  s.block_words_per_cell = 1;  // [u]
  s.claims.cardinal = "wave halo exchange";
  s.claims.diagonal = "wave halo diagonal forwards";
  s.claims.nack = "wave halo retransmit";
  s.fields = {
      {"u_prev/u_cur/q", spec::FieldRole::State, 3, 0},
      {"stencil columns", spec::FieldRole::State,
       static_cast<i32>(mesh::kFaceCount) + 1, 0},
      {"halo buffers", spec::FieldRole::HaloRecv, 8, 0},
      {"code+runtime", spec::FieldRole::Code, 0, 4096},
  };
  return s;
}

spec::Launch wave_launch(const LinearStencil& stencil,
                         const Array3<f32>& initial,
                         const WaveKernelOptions& kernel) {
  FVF_REQUIRE(initial.extents() == stencil.extents);
  // Locals are captured by value: the launch outlives this call.
  return {make_wave_spec(), stencil.extents,
          [&stencil, &initial, kernel](Coord2 coord) {
            // A standing start: u at t-1 equals the initial field.
            std::vector<f32> u0(static_cast<usize>(initial.extents().nz));
            for (usize z = 0; z < u0.size(); ++z) {
              u0[z] = initial(coord.x, coord.y, static_cast<i32>(z));
            }
            return std::make_unique<WaveKernel>(kernel, std::move(u0),
                                                PeStencil(stencil, coord));
          }};
}

WaveFields gather_wave(const spec::KernelGrid& run) {
  return {spec::gather<WaveKernel>(
      run, [](const WaveKernel& k) { return k.field(); })};
}

Array3<f32> wave_reference_host(const LinearStencil& stencil,
                                const Array3<f32>& initial, f32 kappa,
                                i32 timesteps) {
  const Extents3 ext = stencil.extents;
  const usize n = static_cast<usize>(ext.cell_count());
  std::vector<f64> prev(n), cur(n), q(n);
  for (i64 i = 0; i < ext.cell_count(); ++i) {
    prev[static_cast<usize>(i)] = initial[i];
    cur[static_cast<usize>(i)] = initial[i];
  }
  for (i32 t = 0; t < timesteps; ++t) {
    stencil.apply_f64(cur, q);
    for (usize i = 0; i < n; ++i) {
      const f64 next = 2.0 * cur[i] - prev[i] -
                       static_cast<f64>(kappa) * q[i];
      prev[i] = cur[i];
      cur[i] = next;
    }
  }
  Array3<f32> out(ext);
  for (i64 i = 0; i < ext.cell_count(); ++i) {
    out[i] = static_cast<f32>(cur[static_cast<usize>(i)]);
  }
  return out;
}

Array3<f32> gaussian_pulse(Extents3 extents, f64 amplitude, f64 sigma_cells) {
  FVF_REQUIRE(sigma_cells > 0.0);
  Array3<f32> field(extents);
  const f64 cx = 0.5 * (extents.nx - 1);
  const f64 cy = 0.5 * (extents.ny - 1);
  const f64 cz = 0.5 * (extents.nz - 1);
  for (i32 z = 0; z < extents.nz; ++z) {
    for (i32 y = 0; y < extents.ny; ++y) {
      for (i32 x = 0; x < extents.nx; ++x) {
        const f64 r2 = (x - cx) * (x - cx) + (y - cy) * (y - cy) +
                       (z - cz) * (z - cz);
        field(x, y, z) = static_cast<f32>(
            amplitude * std::exp(-r2 / (2.0 * sigma_cells * sigma_cells)));
      }
    }
  }
  return field;
}

}  // namespace fvf::core
