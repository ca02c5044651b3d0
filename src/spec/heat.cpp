#include "spec/heat.hpp"

#include <algorithm>

#include "spec/compile.hpp"
#include "spec/launch.hpp"

namespace fvf::spec {

namespace {

using wse::Dsd;
using wse::PeApi;

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

}  // namespace

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

  [[nodiscard]] std::span<const f32> begin_round(PeApi& api) override {
    for (auto& view : neighbor_block_) {
      view.reset();
    }
    std::copy(u_.begin(), u_.end(), send_buf_.begin());
    api.scalar_ops(static_cast<usize>(nz_));
    return send_buf_;
  }

  void on_block(PeApi& api, mesh::Face face, Dsd block) override {
    api.hazard_mark_live(block, "heat neighbor view");
    neighbor_block_[static_cast<usize>(face)] = block;
  }

  [[nodiscard]] RoundOutcome on_round_complete(PeApi& api) override {
    for (i32 z = 0; z < nz_; ++z) {
      const usize uz = static_cast<usize>(z);
      const f32 u_self = u_[uz];
      f32 acc = u_self;
      // Identical face order and skip rules as heat_reference_host.
      for (const mesh::Face face : mesh::kAllFaces) {
        if (mesh::is_vertical(face)) {
          continue;  // Z layers are independent
        }
        const auto& view = neighbor_block_[static_cast<usize>(face)];
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
  /// Views of the halo buffers, one per XY face, refreshed every round.
  std::array<std::optional<Dsd>, mesh::kFaceCount> neighbor_block_;
  i32 steps_done_ = 0;
};

StencilSpec make_heat_spec(const HeatKernelOptions&) {
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

HeatPeProgram::HeatPeProgram(Coord2 coord, Coord2 fabric_size, i32 nz,
                             std::shared_ptr<const CompiledSpec> compiled,
                             HeatKernelOptions options,
                             std::vector<f32> column,
                             dataflow::HaloReliabilityOptions reliability)
    : SpecPeProgram(coord, fabric_size, nz, std::move(compiled),
                    SpecPeProgram::LaunchBindings{{}, reliability},
                    std::make_unique<HeatKernel>(nz, options,
                                                 std::move(column))),
      physics_(static_cast<HeatKernel*>(kernel())) {}

std::span<const f32> HeatPeProgram::field() const noexcept {
  return physics_->field();
}

i32 HeatPeProgram::steps_completed() const noexcept {
  return physics_->steps_completed();
}

HeatLoad load_dataflow_heat(const Array3<f32>& field,
                            const DataflowHeatOptions& options) {
  const Extents3 ext = field.extents();

  dataflow::HaloReliabilityOptions reliability = options.reliability;
  if (options.execution.fault.bit_flip_rate > 0.0) {
    // Dropped blocks break the implicit-FIFO halo protocol; the
    // ack/retransmit layer is mandatory under such fault scenarios.
    reliability.enabled = true;
  }

  // Compile the declarative spec and verify the lowered program (strict
  // lint, memoized per program shape).
  const auto compiled =
      std::make_shared<const CompiledSpec>(compile(make_heat_spec(options.kernel)));
  const Coord2 extents{ext.nx, ext.ny};
  const dataflow::HarnessOptions effective = verified_options(
      *compiled, extents, ext.nz, options, reliability.enabled);

  HeatLoad load;
  load.harness =
      std::make_unique<dataflow::FabricHarness>(extents, effective);
  compiled->claim_colors(load.harness->colors(), reliability.enabled);

  const HeatKernelOptions kernel = options.kernel;
  load.grid = load.harness->load<HeatPeProgram>(
      [&field, ext, kernel, reliability, compiled](Coord2 coord,
                                                   Coord2 fabric_size) {
        std::vector<f32> column(static_cast<usize>(ext.nz));
        for (i32 z = 0; z < ext.nz; ++z) {
          column[static_cast<usize>(z)] = field(coord.x, coord.y, z);
        }
        return std::make_unique<HeatPeProgram>(coord, fabric_size, ext.nz,
                                               compiled, kernel,
                                               std::move(column), reliability);
      });
  record_verified(*compiled, extents, ext.nz, effective, reliability.enabled);
  return load;
}

DataflowHeatResult run_dataflow_heat(const Array3<f32>& field,
                                     const DataflowHeatOptions& options) {
  const Extents3 ext = field.extents();
  const HeatLoad load = load_dataflow_heat(field, options);

  DataflowHeatResult result;
  static_cast<dataflow::RunInfo&>(result) = load.harness->run();
  result.field = Array3<f32>(ext);
  load.grid.gather(result.field,
                   [](const HeatPeProgram& p) { return p.field(); });
  result.steps_completed = load.grid.at(0, 0).steps_completed();
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
