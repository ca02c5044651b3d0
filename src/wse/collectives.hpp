/// \file collectives.hpp
/// \brief Fabric-wide collective operations for dataflow programs.
///
/// The paper's Discussion section calls for "developing nonlinear and
/// linear solvers on a dataflow architecture"; Krylov methods need global
/// dot products, i.e. an all-reduce over every PE. This component
/// implements a deterministic sum all-reduce as two chain reductions plus
/// a two-stage broadcast, using four dedicated colors:
///
///   1. row reduce:   partial sums flow West along each row; the column
///                    x = 0 holds per-row totals.
///   2. column reduce: per-row totals flow South along column x = 0;
///                    PE (0,0) holds the global sum.
///   3. row broadcast: PE (0,0) sends the result East along row y = 0
///                    (fan-out: deliver + forward).
///   4. column broadcast: every row-0 PE relays the result North up its
///                    column.
///
/// The reduction order is fixed (East-to-West, then North-to-South), so
/// the f32 sum is bit-reproducible across runs and fabric activity.
/// Successive rounds are safe: a PE can receive the next round's partial
/// one round early at most (single-slot pending buffer).
#pragma once

#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "wse/fabric.hpp"

namespace fvf::wse {

/// The four colors an AllReduceSum instance occupies.
struct AllReduceColors {
  Color row_reduce;
  Color col_reduce;
  Color row_bcast;
  Color col_bcast;
};

/// Element-wise combiner of the reduction.
enum class ReduceOp { Sum, Min, Max };

/// The result AllReduceSum delivers for one scalar per PE, computed on
/// the host in the trees' fixed order: `local` is row-major (y * width +
/// x); along each row s(x) = local(x) + s(x+1) from x = width-1 down to
/// 0, then down column 0 t(y) = row(y) + t(y+1). Min and Max use the
/// trees' subtract-and-select combine (cmp = acc - v, then select by
/// sign). This is how spec::execute reduces without a fabric.
[[nodiscard]] f32 tree_reduce(ReduceOp op, Coord2 fabric_size,
                              std::span<const f32> local);

/// A reusable all-reduce over fixed-length f32 vectors. One instance
/// lives inside each PE's program; all instances must be constructed with
/// the same colors, length, and operation. (Named for its original
/// sum-only form; Min/Max reductions serve global CFL steps and
/// convergence checks.)
class AllReduceSum {
 public:
  /// Invoked (once per round, on every PE) when the reduced vector is
  /// available locally.
  using CompletionHandler = std::function<void(PeApi&, std::span<const f32>)>;

  AllReduceSum(AllReduceColors colors, Coord2 coord, Coord2 fabric_size,
               i32 length, ReduceOp op = ReduceOp::Sum);

  /// Installs this collective's routes; call from configure_router.
  void configure_router(Router& router) const;

  /// Owns this color? (lets the program dispatch on_data to the engine)
  [[nodiscard]] bool owns(Color color) const noexcept;

  /// Calls fn(color) for every color this PE sends on per round, derived
  /// from its position in the reduction/broadcast trees.
  template <typename Fn>
  void each_send_color(Fn&& fn) const {
    if (coord_.x > 0) {
      fn(colors_.row_reduce);
    }
    if (coord_.x == 0 && coord_.y > 0) {
      fn(colors_.col_reduce);
    }
    if (coord_.x == 0 && coord_.y == 0 && fabric_.x > 1) {
      fn(colors_.row_bcast);
    }
    if (coord_.y == 0 && fabric_.y > 1) {
      // PE (0,0) seeds the column broadcasts; every other row-0 PE relays
      // the row broadcast up its own column.
      fn(colors_.col_bcast);
    }
  }

  /// Appends the sends of each_send_color to `sends`; for fvf::lint's
  /// routing checks.
  void send_declarations(std::vector<SendDeclaration>& sends) const;

  /// Appends the blocking intra-round send orderings to `deps`: every
  /// chain send waits for the upstream partial(s) it folds in, and the
  /// broadcasts wait for the global sum. For fvf::lint's cross-color
  /// deadlock analysis.
  void channel_dependencies(std::vector<ChannelDependency>& deps) const;

  /// The chain folds this PE performs in arrival order (Sum only —
  /// Min/Max combine through order-insensitive selects). For fvf::lint's
  /// determinism analysis, which proves each fold has a single producer.
  [[nodiscard]] std::vector<ReductionDeclaration> reduction_declarations()
      const;

  /// Starts this PE's participation in the next round with its local
  /// contribution. Must be called exactly once per round per PE.
  void contribute(PeApi& api, std::span<const f32> local,
                  CompletionHandler on_complete);

  /// Feeds a fabric block to the engine. Precondition: owns(color).
  void on_data(PeApi& api, Color color, Dir from, std::span<const u32> data);

  /// Rounds completed on this PE so far.
  [[nodiscard]] i32 rounds_completed() const noexcept { return rounds_; }

 private:
  void unpack(PeApi& api, std::span<const u32> data, std::vector<f32>& out);
  void add_into(PeApi& api, std::vector<f32>& acc, std::span<const f32> v);
  void try_advance_row(PeApi& api);
  void try_advance_col(PeApi& api);
  void finish(PeApi& api, std::span<const f32> result);

  AllReduceColors colors_;
  Coord2 coord_;
  Coord2 fabric_;
  i32 length_;
  ReduceOp op_;

  // Per-round state.
  bool have_local_ = false;
  std::vector<f32> acc_;            ///< local + east partial (row phase)
  std::optional<std::vector<f32>> east_pending_;
  bool east_consumed_ = false;
  std::optional<std::vector<f32>> north_pending_;  ///< column phase (x==0)
  bool row_total_ready_ = false;
  std::vector<f32> col_acc_;
  std::optional<std::vector<f32>> result_pending_;  ///< early broadcast
  CompletionHandler on_complete_;
  i32 rounds_ = 0;
  std::vector<f32> scratch_;
};

}  // namespace fvf::wse
