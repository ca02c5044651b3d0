/// \file stencil_spec.hpp
/// \brief `fvf::spec` — the declarative stencil-program DSL.
///
/// A StencilSpec captures everything a fabric program used to hand-write:
/// the stencil shape (5-point cardinal or 9-point with diagonal corners),
/// how the one dataflow::HaloExchange sends (the Figure 6 two-step switch
/// protocol or static routes), the complete ordered per-PE memory
/// layout, the color-plan claim labels, and an optional fabric-wide
/// reduction. `spec::compile` validates the spec and lowers it to a
/// CompiledSpec; `spec::SpecPeProgram` is the one PE engine that
/// executes it, invoking a StencilKernel for the physics only.
///
/// The split is deliberate: everything that fvf::lint can verify
/// statically (colors, routes, sends, handlers, memory) is produced by
/// the compiler from the spec, while the kernel contributes nothing but
/// arithmetic — so a compiled program that passes `fvf::lint --strict`
/// is communication-correct by construction, whatever the kernel does.
#pragma once

#include <array>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/assert.hpp"
#include "common/types.hpp"
#include "mesh/stencil.hpp"
#include "wse/collectives.hpp"
#include "wse/dsd.hpp"
#include "wse/fabric.hpp"

namespace fvf::spec {

/// How neighbor columns move between PEs.
enum class ExchangeKind : u8 {
  /// No neighbor traffic and no kernel hooks: programs that reserve
  /// memory and finish (the kernel-less lint defect fixtures).
  None,
  /// The paper's Figure 6 two-step switch protocol: the HaloExchange's
  /// Switch discipline, with diagonal forwarding (Figure 5) for the
  /// nine-point shape.
  SwitchProtocol,
  /// The HaloExchange on static routes (its Fifo discipline, or Reliable
  /// when the launch binds the retransmit layer): one [fields...] block
  /// per round to all ten neighbors, with an optional reduction.
  StaticHalo,
};

/// Which neighbors participate in the stencil.
enum class StencilShape : u8 {
  FivePoint,  ///< 4 cardinal XY neighbors (plus the vertical column)
  NinePoint,  ///< cardinal + 4 diagonal corner neighbors
};

/// Role of one record in the per-PE memory layout. The compiler checks
/// receive-buffer sizes against the declared halo block; everything else
/// is accounting the engine reserves verbatim, in declaration order.
enum class FieldRole : u8 {
  State,         ///< kernel-owned columns, words_per_cell * Nz floats
  Code,          ///< fixed code+runtime bytes (independent of Nz)
  CardinalRecv,  ///< the 4 cardinal receive buffers (SwitchProtocol)
  DiagonalRecv,  ///< the 4 diagonal receive buffers (SwitchProtocol)
  HaloRecv,      ///< the 8 receive buffers, as one role (StaticHalo)
};

/// One record of the ordered per-PE memory declaration.
struct FieldSpec {
  std::string name;  ///< reservation tag, shown in lint memory findings
  FieldRole role = FieldRole::State;
  /// f32 words per column cell (all roles except Code).
  i32 words_per_cell = 0;
  /// Absolute bytes (Code role only).
  usize bytes = 0;
};

/// ColorPlan claim owner strings, shown in plan descriptions and lint
/// unclaimed-color diagnostics.
struct ClaimLabels {
  std::string cardinal;
  std::string diagonal;
  std::string allreduce;
  std::string nack;
};

/// A fabric-wide reduction the kernel triggers at round completion
/// (StaticHalo only; the transport dt MIN-tree is the canonical use).
struct ReductionSpec {
  wse::ReduceOp op = wse::ReduceOp::Min;
  i32 length = 1;
};

/// Deliberate spec defects, used only by the lint defect corpus to
/// produce programs that each trip exactly one diagnostic class.
struct DefectInjection {
  /// Leave the East cardinal color's data deliveries unhandled while
  /// still routing and declaring its traffic (unhandled-delivery).
  bool drop_east_data_handler = false;
};

/// The declarative program description `spec::compile` lowers.
struct StencilSpec {
  std::string name;
  ExchangeKind exchange = ExchangeKind::SwitchProtocol;
  StencilShape shape = StencilShape::NinePoint;
  /// f32 words per column cell in one halo block (e.g. [p | rho] = 2).
  i32 block_words_per_cell = 2;
  /// Complete ordered per-PE memory layout.
  std::vector<FieldSpec> fields;
  ClaimLabels claims;
  std::optional<ReductionSpec> reduction;
  DefectInjection defects;
};

/// What a kernel wants next: at start, after a completed round, or after
/// a completed reduction.
enum class RoundAction : u8 {
  Continue,  ///< start the next exchange round
  Done,      ///< signal completion to the runtime
  Reduce,    ///< contribute to the fabric-wide reduction first
};

struct RoundOutcome {
  RoundAction action = RoundAction::Done;
  /// Contribution to the reduction (RoundAction::Reduce only).
  f32 contribution = 0.0f;
};

/// The physics half of a compiled program. The engine owns every color,
/// route, buffer, and counter; the kernel sees arrivals as face-tagged
/// DSD views and supplies the arithmetic. Every exchange kind drives the
/// same hooks: `start` once, then per round `begin_round`, `on_block` for
/// each neighbor block as it becomes current (compute with it now, to
/// overlap the exchange), and `on_round_complete` with all of the
/// round's blocks (fold them in canonical face order). Hooks a kernel
/// does not override reject calls, so a kernel that, say, answers Reduce
/// without handling the result fails loudly.
///
/// A kernel steers the engine with RoundOutcomes. `start` answers once
/// before the first round, `on_round_complete` after every round and
/// `on_reduced` after every reduction, so reductions chain: a Reduce
/// answered with another Reduce runs a second tree pass before the next
/// round (StaticHalo only). CG is the canonical use — r'r before the
/// first exchange, then d'q followed by r'r after every round.
class StencilKernel {
 public:
  StencilKernel() = default;
  StencilKernel(const StencilKernel&) = delete;
  StencilKernel& operator=(const StencilKernel&) = delete;
  virtual ~StencilKernel() = default;

  /// Per-face views of the round's received blocks; empty optionals mark
  /// fabric-edge faces, faces outside the shape, and the vertical faces,
  /// which are always local.
  using FaceBlocks = std::array<std::optional<wse::Dsd>, mesh::kFaceCount>;

  /// Runs once before the first round. The default, Continue, starts the
  /// first exchange round at once.
  [[nodiscard]] virtual RoundOutcome start(wse::PeCompute& api);
  /// The round's local work; returns the outgoing block
  /// (block_words_per_cell * Nz), which must stay unchanged until the
  /// round completes.
  [[nodiscard]] virtual std::span<const f32> begin_round(wse::PeCompute& api);
  /// A neighbor block of the current round arrived. The view stays valid
  /// until this round's on_round_complete returns; the kernel may
  /// overwrite it (TPFA parks the face's flux there).
  virtual void on_block(wse::PeCompute& api, mesh::Face face, wse::Dsd block);
  /// Every expected block of the round arrived; `blocks` views exactly
  /// the blocks on_block saw this round.
  [[nodiscard]] virtual RoundOutcome on_round_complete(
      wse::PeCompute& api, const FaceBlocks& blocks);
  /// The reduction completed with `value`: Continue, Done, or Reduce
  /// again.
  [[nodiscard]] virtual RoundOutcome on_reduced(wse::PeCompute& api, f32 value);
};

}  // namespace fvf::spec
