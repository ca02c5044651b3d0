#include "spec/execute.hpp"

#include <algorithm>
#include <optional>

#include "gpusim/device.hpp"
#include "gpusim/occupancy.hpp"
#include "spec/compile.hpp"
#include "wse/collectives.hpp"

namespace fvf::spec {

namespace {

/// Drives one launch's kernels hook sweep by hook sweep.
class Executor {
 public:
  Executor(const CompiledSpec& compiled, Coord2 extents, i32 nz,
           std::vector<std::unique_ptr<StencilKernel>>& kernels)
      : compiled_(compiled),
        extents_(extents),
        block_len_(static_cast<usize>(compiled.block_words() * nz)),
        kernels_(kernels),
        staged_(kernels.size() * block_len_),
        recv_(mesh::kFaceCount * block_len_) {
    // Neighbor PE across each face that carries a block: the XY faces of
    // the shape (the vertical faces are always local); -1 at grid edges.
    neighbors_.assign(kernels.size() * mesh::kFaceCount, -1);
    for (usize pe = 0; pe < kernels.size(); ++pe) {
      for (const mesh::Face face : mesh::kAllFaces) {
        const Coord3 off = mesh::face_offset(face);
        const bool exchanged = !mesh::is_vertical(face) &&
                               (compiled.nine_point() || off.x == 0 ||
                                off.y == 0);
        const i32 nx = coord_of(pe).x + off.x;
        const i32 ny = coord_of(pe).y + off.y;
        if (exchanged && nx >= 0 && nx < extents.x && ny >= 0 &&
            ny < extents.y) {
          neighbors_[pe * mesh::kFaceCount + static_cast<usize>(face)] =
              ny * extents.x + nx;
        }
      }
    }
  }

  /// start, then per answer of the kernels either a round or a
  /// reduction. ExchangeKind::None runs no hook at all.
  void run() {
    if (compiled_.spec().exchange == ExchangeKind::None) {
      return;
    }
    outcomes_.resize(kernels_.size());
    Sweep start(*this);
    for_each_pe([&](StencilKernel& k, usize i) {
      outcomes_[i] = k.start(start.api);
    });
    launch(start);
    for (RoundAction action = agreed_action(); action != RoundAction::Done;
         action = agreed_action()) {
      if (action == RoundAction::Continue) {
        halo_round();
      } else {
        reduce();
      }
    }
  }

  [[nodiscard]] gpusim::GpuRunInfo info() const {
    gpusim::GpuRunInfo info;
    info.device_seconds =
        gpusim::Device::elapsed_seconds({}, device_.record_event());
    info.kernels_launched = device_.kernels_launched();
    info.occupancy = gpusim::estimate_occupancy(gpusim::BlockDim{})
                         .theoretical_occupancy;
    info.counters = counters_;
    return info;
  }

 private:
  /// One hook sweep: the compute handle every hook call of the sweep
  /// charges, whose total becomes one device launch (see launch). The PE
  /// clock it advances only tells whether anything was charged — device
  /// time comes from the roofline, not from PE clocks.
  struct Sweep {
    explicit Sweep(const Executor& owner)
        : api(owner.timings_, owner.execution_, clock, counters) {}

    f64 clock = 0.0;
    wse::PeCounters counters{};
    wse::PeCompute api;
  };

  /// Records a finished sweep as one kernel launch: the flops it counted
  /// and 4 B per load and store. A sweep whose hooks charged nothing
  /// (every charge advances the clock) launches nothing.
  void launch(const Sweep& sweep) {
    if (sweep.clock == 0.0) {
      return;
    }
    const wse::PeCounters& c = sweep.counters;
    device_.record_kernel(gpusim::KernelTraffic{
        4.0 * static_cast<f64>(c.mem_loads + c.mem_stores),
        static_cast<f64>(c.flops())});
    counters_ += c;
  }

  template <typename Fn>
  void for_each_pe(Fn&& fn) {
    for (usize i = 0; i < kernels_.size(); ++i) {
      fn(*kernels_[i], i);
    }
  }

  [[nodiscard]] Coord2 coord_of(usize i) const noexcept {
    const auto width = static_cast<usize>(extents_.x);
    return Coord2{static_cast<i32>(i % width), static_cast<i32>(i / width)};
  }

  [[nodiscard]] std::span<f32> staged(usize pe) noexcept {
    return std::span<f32>(staged_).subspan(pe * block_len_, block_len_);
  }

  /// Copies the staged block of PE `pe`'s neighbor across `face` into the
  /// face's receive slot; empty when no block crosses that face.
  [[nodiscard]] std::optional<wse::Dsd> receive(usize pe, mesh::Face face) {
    const i32 nb =
        neighbors_[pe * mesh::kFaceCount + static_cast<usize>(face)];
    if (nb < 0) {
      return std::nullopt;
    }
    const std::span<f32> slot = std::span<f32>(recv_).subspan(
        static_cast<usize>(face) * block_len_, block_len_);
    const std::span<const f32> block = staged(static_cast<usize>(nb));
    std::copy(block.begin(), block.end(), slot.begin());
    return wse::Dsd::of(slot);
  }

  /// The action every PE answered; the executor has no way to run PEs
  /// that disagree.
  [[nodiscard]] RoundAction agreed_action() const {
    const RoundAction action = outcomes_.front().action;
    for (usize i = 0; i < outcomes_.size(); ++i) {
      FVF_REQUIRE_MSG(outcomes_[i].action == action,
                      "spec '" << compiled_.name() << "': PE("
                               << coord_of(i).x << ',' << coord_of(i).y
                               << ") and PE(0,0) answer different round "
                                  "actions; a bulk-synchronous run needs "
                                  "every PE to agree");
    }
    return action;
  }

  /// begin_round on every PE, then per PE on_block for every neighbor
  /// block in kAllFaces order and on_round_complete with those blocks.
  void halo_round() {
    Sweep begin(*this);
    for_each_pe([&](StencilKernel& k, usize i) {
      const std::span<const f32> block = k.begin_round(begin.api);
      FVF_REQUIRE(block.size() == block_len_);
      std::copy(block.begin(), block.end(), staged(i).begin());
    });
    launch(begin);
    Sweep blocks(*this);
    Sweep complete(*this);
    for_each_pe([&](StencilKernel& k, usize i) {
      StencilKernel::FaceBlocks arrived;
      for (const mesh::Face face : mesh::kAllFaces) {
        std::optional<wse::Dsd>& block = arrived[static_cast<usize>(face)];
        block = receive(i, face);
        if (block) {
          k.on_block(blocks.api, face, *block);
        }
      }
      outcomes_[i] = k.on_round_complete(complete.api, arrived);
    });
    launch(blocks);
    launch(complete);
  }

  void reduce() {
    const std::optional<ReductionSpec>& reduction =
        compiled_.spec().reduction;
    FVF_REQUIRE_MSG(reduction.has_value(),
                    "spec '" << compiled_.name()
                             << "': kernel requested a reduction but the "
                                "spec declares no reduction phase");
    std::vector<f32> local(outcomes_.size());
    for (usize i = 0; i < outcomes_.size(); ++i) {
      local[i] = outcomes_[i].contribution;
    }
    const f32 value = wse::tree_reduce(reduction->op, extents_, local);
    Sweep reduced(*this);
    for_each_pe([&](StencilKernel& k, usize i) {
      outcomes_[i] = k.on_reduced(reduced.api, value);
    });
    launch(reduced);
  }

  const CompiledSpec& compiled_;
  Coord2 extents_;
  usize block_len_;
  std::vector<std::unique_ptr<StencilKernel>>& kernels_;
  const wse::FabricTimings timings_{};
  const wse::ExecutionOptions execution_{};
  gpusim::Device device_;
  wse::PeCounters counters_{};
  /// Every PE's outgoing block of the current round, row-major.
  std::vector<f32> staged_;
  /// The receive slots of the PE being processed, one per face.
  std::vector<f32> recv_;
  /// Per PE and face (row-major, kFaceCount each): see the constructor.
  std::vector<i32> neighbors_;
  std::vector<RoundOutcome> outcomes_;
};

}  // namespace

Execution::Execution(Extents3 extents,
                     std::vector<std::unique_ptr<StencilKernel>> kernels,
                     gpusim::GpuRunInfo accounting)
    : info(accounting), extents_(extents), kernels_(std::move(kernels)) {}

const StencilKernel& Execution::kernel(Coord2 coord) const {
  FVF_REQUIRE(coord.x >= 0 && coord.x < extents_.nx && coord.y >= 0 &&
              coord.y < extents_.ny);
  return *kernels_[static_cast<usize>(coord.y) *
                       static_cast<usize>(extents_.nx) +
                   static_cast<usize>(coord.x)];
}

Execution execute(const Launch& launch) {
  const Extents3 ext = launch.extents;
  FVF_REQUIRE(ext.nx > 0 && ext.ny > 0 && ext.nz >= 1);
  const CompiledSpec compiled = compile(launch.spec);
  std::vector<std::unique_ptr<StencilKernel>> kernels;
  kernels.reserve(static_cast<usize>(ext.nx) * static_cast<usize>(ext.ny));
  for (i32 y = 0; y < ext.ny; ++y) {
    for (i32 x = 0; x < ext.nx; ++x) {
      kernels.push_back(launch.make_kernel(Coord2{x, y}));
      FVF_REQUIRE(kernels.back() != nullptr);
    }
  }
  Executor executor(compiled, Coord2{ext.nx, ext.ny}, ext.nz, kernels);
  executor.run();
  const gpusim::GpuRunInfo info = executor.info();
  return Execution(ext, std::move(kernels), info);
}

}  // namespace fvf::spec
