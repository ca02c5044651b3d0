#include "core/cg_program.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <span>
#include <vector>

#include "common/assert.hpp"

namespace fvf::core {

namespace {

using spec::RoundAction;
using spec::RoundOutcome;
using wse::Dsd;
using wse::PeCompute;

/// The physics half of the CG program: the operator apply around each
/// halo round, and the vector updates between the chained reductions.
class CgKernel final : public spec::StencilKernel {
 public:
  /// b is the PE's column of `rhs`.
  CgKernel(CgKernelOptions options, const Array3<f32>& rhs, Coord2 coord,
           PeStencil stencil)
      : options_(options),
        n_(static_cast<usize>(rhs.extents().nz)),
        columns_(kColumns * n_, 0.0f),
        stencil_(std::move(stencil)) {
    FVF_REQUIRE(n_ > 0);
    const std::span<f32> b = column(kB);
    for (usize z = 0; z < n_; ++z) {
      b[z] = rhs(coord.x, coord.y, static_cast<i32>(z));
    }
  }

  [[nodiscard]] std::span<const f32> solution() const noexcept {
    return column(kX);
  }
  [[nodiscard]] i32 iterations() const noexcept { return iterations_; }
  [[nodiscard]] bool converged() const noexcept { return converged_; }
  [[nodiscard]] f64 initial_residual_norm2() const noexcept { return rho0_; }
  [[nodiscard]] f64 final_residual_norm2() const noexcept { return rho_last_; }

  [[nodiscard]] RoundOutcome start(PeCompute& api) override {
    // x = 0, r = b, d = r; then reduce r'r before the first exchange.
    const std::span<f32> b = column(kB);
    const std::span<f32> r = column(kR);
    std::copy(b.begin(), b.end(), r.begin());
    std::copy(r.begin(), r.end(), column(kD).begin());
    api.scalar_ops(2 * n_);
    return RoundOutcome{RoundAction::Reduce, local_dot(api, r, r)};
  }

  [[nodiscard]] std::span<const f32> begin_round(PeCompute& api) override {
    // q = diag .* d plus the vertical couplings; the neighbor terms
    // arrive as the search-direction column is exchanged.
    stencil_.apply_local(api, column(kQ), column(kD));
    return column(kD);
  }

  void on_block(PeCompute& api, mesh::Face face, Dsd d_nb) override {
    stencil_.apply_face(api, column(kQ), face, d_nb);
  }

  [[nodiscard]] RoundOutcome on_round_complete(PeCompute& api,
                                               const FaceBlocks&) override {
    pending_ = Pending::DotDq;
    return RoundOutcome{RoundAction::Reduce,
                        local_dot(api, column(kD), column(kQ))};
  }

  [[nodiscard]] RoundOutcome on_reduced(PeCompute& api, f32 global) override {
    switch (pending_) {
      case Pending::InitialRho:
        rho_ = global;
        rho0_ = global;
        rho_last_ = global;
        if (rho0_ <= 0.0 || options_.max_iterations == 0) {
          converged_ = rho0_ <= 0.0;
          return RoundOutcome{RoundAction::Done};
        }
        return RoundOutcome{RoundAction::Continue};
      case Pending::DotDq:
        return after_dot_dq(api, global);
      case Pending::Rho:
        return after_rho(api, global);
    }
    return RoundOutcome{RoundAction::Done};
  }

 private:
  /// Which reduction the next on_reduced answers.
  enum class Pending : u8 { InitialRho, DotDq, Rho };

  [[nodiscard]] RoundOutcome after_dot_dq(PeCompute& api, f32 global) {
    FVF_REQUIRE_MSG(global != 0.0f, "CG breakdown: d'Ad == 0");
    const f32 alpha = rho_ / global;
    // x += alpha d ; r -= alpha q
    const Dsd x = Dsd::of(column(kX));
    const Dsd r = Dsd::of(column(kR));
    const Dsd scratch = Dsd::of(column(kScratch));
    api.fmuls(scratch, Dsd::of(column(kD)), alpha);
    api.fadds(x, x, scratch);
    api.fmuls(scratch, Dsd::of(column(kQ)), alpha);
    api.fsubs(r, r, scratch);
    pending_ = Pending::Rho;
    return RoundOutcome{RoundAction::Reduce,
                        local_dot(api, column(kR), column(kR))};
  }

  [[nodiscard]] RoundOutcome after_rho(PeCompute& api, f32 global) {
    ++iterations_;
    rho_last_ = global;
    const f32 tol2 = options_.relative_tolerance * options_.relative_tolerance;
    const bool stop = global <= tol2 * static_cast<f32>(rho0_) ||
                      iterations_ >= options_.max_iterations;
    if (stop) {
      converged_ = global <= tol2 * static_cast<f32>(rho0_);
      return RoundOutcome{RoundAction::Done};
    }
    const f32 beta = global / rho_;
    rho_ = global;
    // d = r + beta d
    const Dsd d = Dsd::of(column(kD));
    api.fmuls(d, d, beta);
    api.fadds(d, d, Dsd::of(column(kR)));
    return RoundOutcome{RoundAction::Continue};
  }

  [[nodiscard]] static f32 local_dot(PeCompute& api, std::span<const f32> a,
                                     std::span<const f32> b) {
    f32 sum = 0.0f;
    for (usize i = 0; i < a.size(); ++i) {
      sum += a[i] * b[i];
    }
    api.scalar_ops(2 * a.size());
    return sum;
  }

  /// The kernel's columns, each n_ long, in one block.
  enum Column : usize { kB, kX, kR, kD, kQ, kScratch, kColumns };

  [[nodiscard]] std::span<f32> column(Column c) noexcept {
    return std::span<f32>(columns_).subspan(c * n_, n_);
  }
  [[nodiscard]] std::span<const f32> column(Column c) const noexcept {
    return std::span<const f32>(columns_).subspan(c * n_, n_);
  }

  CgKernelOptions options_;
  usize n_;
  std::vector<f32> columns_;
  PeStencil stencil_;

  Pending pending_ = Pending::InitialRho;
  f32 rho_ = 0.0f;
  f64 rho0_ = 0.0;
  f64 rho_last_ = 0.0;
  i32 iterations_ = 0;
  bool converged_ = false;
};

}  // namespace

spec::StencilSpec make_cg_spec() {
  spec::StencilSpec s;
  s.name = "cg";
  s.exchange = spec::ExchangeKind::StaticHalo;
  s.shape = spec::StencilShape::NinePoint;
  s.block_words_per_cell = 1;  // [d]
  s.claims.cardinal = "cg halo exchange";
  s.claims.diagonal = "cg halo diagonal forwards";
  s.claims.allreduce = "cg dot-product all-reduce";
  s.claims.nack = "cg halo retransmit";
  s.reduction = spec::ReductionSpec{wse::ReduceOp::Sum, 1};
  s.fields = {
      {"b/x/r/d/q/scratch", spec::FieldRole::State, 6, 0},
      {"stencil coefficients", spec::FieldRole::State,
       static_cast<i32>(mesh::kFaceCount), 0},
      {"diagonal shift", spec::FieldRole::State, 1, 0},
      {"halo buffers", spec::FieldRole::HaloRecv, 8, 0},
      {"code+runtime", spec::FieldRole::Code, 0, 4096},
  };
  return s;
}

spec::Launch cg_launch(const LinearStencil& stencil, const Array3<f32>& rhs,
                       const CgKernelOptions& kernel) {
  FVF_REQUIRE(rhs.extents() == stencil.extents);
  // Locals are captured by value: the launch outlives this call.
  return {make_cg_spec(), stencil.extents,
          [&stencil, &rhs, kernel](Coord2 coord) {
            return std::make_unique<CgKernel>(kernel, rhs, coord,
                                              PeStencil(stencil, coord));
          }};
}

CgFields gather_cg(const spec::KernelGrid& run) {
  CgFields result;
  result.solution = spec::gather<CgKernel>(
      run, [](const CgKernel& k) { return k.solution(); });
  const CgKernel& probe = run.kernel_as<CgKernel>(Coord2{0, 0});
  result.iterations = probe.iterations();
  result.converged = probe.converged();
  result.initial_residual_norm = std::sqrt(probe.initial_residual_norm2());
  result.final_residual_norm = std::sqrt(probe.final_residual_norm2());
  return result;
}

}  // namespace fvf::core
