#include "spec/heat.hpp"

#include <algorithm>
#include <memory>
#include <vector>

namespace fvf::spec {

namespace {

using wse::Dsd;
using wse::PeCompute;

inline u64 hash_cell(u64 seed, u64 index) {
  // splitmix64-style finalizer: deterministic, no libm, no global RNG.
  u64 x = seed + 0x9e3779b97f4a7c15ULL * (index + 1);
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

/// The physics half of the heat program: one Jacobi update per round.
class HeatKernel final : public StencilKernel {
 public:
  HeatKernel(i32 nz, HeatKernelOptions options, std::vector<f32> column)
      : nz_(nz), options_(options), u_(std::move(column)) {
    FVF_REQUIRE(nz > 0);
    FVF_REQUIRE(options.steps >= 1);
    FVF_REQUIRE(static_cast<i32>(u_.size()) == nz);
    const usize n = static_cast<usize>(nz);
    u_next_.assign(n, 0.0f);
    send_buf_.assign(n, 0.0f);
  }

  [[nodiscard]] std::span<const f32> field() const noexcept { return u_; }
  [[nodiscard]] i32 steps_completed() const noexcept { return steps_done_; }

  [[nodiscard]] std::span<const f32> begin_round(PeCompute& api) override {
    std::copy(u_.begin(), u_.end(), send_buf_.begin());
    api.scalar_ops(static_cast<usize>(nz_));
    return send_buf_;
  }

  void on_block(PeCompute& api, mesh::Face, Dsd block) override {
    // Read at round completion: a receive overwriting it first would be
    // a bug the hazard detector reports.
    api.hazard_mark_live(block, "heat neighbor view");
  }

  [[nodiscard]] RoundOutcome on_round_complete(
      PeCompute& api, const FaceBlocks& blocks) override {
    for (i32 z = 0; z < nz_; ++z) {
      const usize uz = static_cast<usize>(z);
      const f32 u_self = u_[uz];
      f32 acc = u_self;
      // Identical face order and skip rules as heat_reference_host.
      for (const mesh::Face face : mesh::kAllFaces) {
        if (mesh::is_vertical(face)) {
          continue;  // Z layers are independent
        }
        const auto& view = blocks[static_cast<usize>(face)];
        if (!view) {
          continue;  // fabric-edge face: no-flux boundary
        }
        const f32 u_nb = view->at(z);
        acc += options_.alpha * (heat_face_weight(face) * (u_nb - u_self));
      }
      u_next_[uz] = acc;
    }
    api.scalar_ops(static_cast<usize>(nz_) * 8 * 4);

    std::copy(u_next_.begin(), u_next_.end(), u_.begin());
    api.scalar_ops(static_cast<usize>(nz_));
    api.hazard_release_all();

    ++steps_done_;
    return RoundOutcome{steps_done_ >= options_.steps ? RoundAction::Done
                                                      : RoundAction::Continue,
                        0.0f};
  }

 private:
  i32 nz_ = 0;
  HeatKernelOptions options_;
  std::vector<f32> u_;
  std::vector<f32> u_next_;
  std::vector<f32> send_buf_;
  i32 steps_done_ = 0;
};

}  // namespace

StencilSpec make_heat_spec() {
  StencilSpec s;
  s.name = "heat";
  s.exchange = ExchangeKind::StaticHalo;
  s.shape = StencilShape::NinePoint;
  s.block_words_per_cell = 1;  // [u]
  s.claims.cardinal = "heat halo exchange";
  s.claims.diagonal = "heat halo diagonal forwards";
  s.claims.nack = "heat halo retransmit";
  s.fields = {
      {"u/u_next/send columns", FieldRole::State, 3, 0},
      {"halo buffers", FieldRole::HaloRecv, 8, 0},
      {"code+runtime", FieldRole::Code, 0, 2048},
  };
  return s;
}

Launch heat_launch(const Array3<f32>& field, const HeatKernelOptions& kernel) {
  // Locals are captured by value: the launch outlives this call.
  return {make_heat_spec(), field.extents(),
          [&field, kernel](Coord2 coord) {
            const i32 nz = field.extents().nz;
            std::vector<f32> column(static_cast<usize>(nz));
            for (i32 z = 0; z < nz; ++z) {
              column[static_cast<usize>(z)] = field(coord.x, coord.y, z);
            }
            return std::make_unique<HeatKernel>(nz, kernel, std::move(column));
          }};
}

HeatFields gather_heat(const KernelGrid& run) {
  HeatFields result;
  result.field =
      gather<HeatKernel>(run, [](const HeatKernel& k) { return k.field(); });
  result.steps_completed =
      run.kernel_as<HeatKernel>(Coord2{0, 0}).steps_completed();
  return result;
}

Array3<f32> heat_reference_host(const Array3<f32>& field,
                                const HeatKernelOptions& options) {
  const Extents3 ext = field.extents();
  Array3<f32> u = field;
  Array3<f32> u_next(ext);
  for (i32 step = 0; step < options.steps; ++step) {
    for (i32 z = 0; z < ext.nz; ++z) {
      for (i32 y = 0; y < ext.ny; ++y) {
        for (i32 x = 0; x < ext.nx; ++x) {
          const f32 u_self = u(x, y, z);
          f32 acc = u_self;
          // Identical face order and skip rules as the PE kernel.
          for (const mesh::Face face : mesh::kAllFaces) {
            if (mesh::is_vertical(face)) {
              continue;
            }
            const Coord3 off = mesh::face_offset(face);
            const i32 nx = x + off.x;
            const i32 ny = y + off.y;
            if (nx < 0 || nx >= ext.nx || ny < 0 || ny >= ext.ny) {
              continue;
            }
            const f32 u_nb = u(nx, ny, z);
            acc += options.alpha * (heat_face_weight(face) * (u_nb - u_self));
          }
          u_next(x, y, z) = acc;
        }
      }
    }
    std::swap(u, u_next);
  }
  return u;
}

Array3<f32> heat_initial_field(Extents3 extents, u64 seed) {
  Array3<f32> field(extents);
  for (i64 i = 0; i < field.size(); ++i) {
    const u64 h = hash_cell(seed, static_cast<u64>(i));
    field[i] = static_cast<f32>(h >> 40) * (1.0f / 16777216.0f);
  }
  return field;
}

}  // namespace fvf::spec
