#include "wse/collectives.hpp"

#include "common/assert.hpp"

namespace fvf::wse {

AllReduceSum::AllReduceSum(AllReduceColors colors, Coord2 coord,
                           Coord2 fabric_size, i32 length, ReduceOp op)
    : colors_(colors),
      coord_(coord),
      fabric_(fabric_size),
      length_(length),
      op_(op) {
  FVF_REQUIRE(length > 0);
  FVF_REQUIRE(fabric_size.x > 0 && fabric_size.y > 0);
  scratch_.resize(static_cast<usize>(length));
}

void AllReduceSum::configure_router(Router& router) const {
  // Chain reductions: accept from the upstream side, inject toward the
  // downstream side. Broadcasts fan out (deliver + forward); traffic
  // leaving the fabric is absorbed by the boundary. The tables are the
  // same on every PE, so they are packed once.
  static const ColorConfig row_reduce(
      {position({RouteRule{Dir::Ramp, {Dir::West}},
                 RouteRule{Dir::East, {Dir::Ramp}}})});
  static const ColorConfig col_reduce(
      {position({RouteRule{Dir::Ramp, {Dir::South}},
                 RouteRule{Dir::North, {Dir::Ramp}}})});
  static const ColorConfig row_bcast(
      {position({RouteRule{Dir::Ramp, {Dir::East}},
                 RouteRule{Dir::West, {Dir::Ramp, Dir::East}}})});
  static const ColorConfig col_bcast(
      {position({RouteRule{Dir::Ramp, {Dir::North}},
                 RouteRule{Dir::South, {Dir::Ramp, Dir::North}}})});
  router.configure(colors_.row_reduce, row_reduce);
  router.configure(colors_.col_reduce, col_reduce);
  router.configure(colors_.row_bcast, row_bcast);
  router.configure(colors_.col_bcast, col_bcast);
}

bool AllReduceSum::owns(Color color) const noexcept {
  return color == colors_.row_reduce || color == colors_.col_reduce ||
         color == colors_.row_bcast || color == colors_.col_bcast;
}

void AllReduceSum::send_declarations(
    std::vector<SendDeclaration>& sends) const {
  each_send_color([&](Color color) { sends.push_back({color, false}); });
}

void AllReduceSum::channel_dependencies(
    std::vector<ChannelDependency>& deps) const {
  // Mirrors the gating in try_advance_row/try_advance_col/on_data: each
  // send below only happens after the listed arrivals of that round.
  // Round-to-round orderings (the handler starting the next round) are
  // deliberately not declared — they are progress, not blocking.
  const bool need_east = coord_.x < fabric_.x - 1;
  const bool need_north = coord_.y < fabric_.y - 1;
  if (coord_.x > 0) {
    if (need_east) {
      deps.push_back({colors_.row_reduce, colors_.row_reduce});
    }
    if (coord_.y == 0 && fabric_.y > 1) {
      // Relaying the broadcast up the column requires the row broadcast.
      deps.push_back({colors_.row_bcast, colors_.col_bcast});
    }
    return;
  }
  // Column head (x == 0): the row total feeds the column chain, and at
  // PE (0,0) the global sum feeds both broadcasts.
  const auto waits_for_total = [&](Color dependent) {
    if (fabric_.x > 1) {
      deps.push_back({colors_.row_reduce, dependent});
    }
    if (need_north) {
      deps.push_back({colors_.col_reduce, dependent});
    }
  };
  if (coord_.y > 0) {
    waits_for_total(colors_.col_reduce);
  } else {
    if (fabric_.x > 1) {
      waits_for_total(colors_.row_bcast);
    }
    if (fabric_.y > 1) {
      waits_for_total(colors_.col_bcast);
    }
  }
}

std::vector<ReductionDeclaration> AllReduceSum::reduction_declarations()
    const {
  // Min/Max combine through predicated selects, which are
  // order-insensitive; only the Sum chain folds f32 in arrival order.
  std::vector<ReductionDeclaration> reductions;
  if (op_ != ReduceOp::Sum) {
    return reductions;
  }
  if (coord_.x < fabric_.x - 1) {
    reductions.push_back(
        {{colors_.row_reduce}, true, "all-reduce row partial"});
  }
  if (coord_.x == 0 && coord_.y < fabric_.y - 1) {
    reductions.push_back(
        {{colors_.col_reduce}, true, "all-reduce column partial"});
  }
  return reductions;
}

void AllReduceSum::unpack(PeApi& api, std::span<const u32> data,
                          std::vector<f32>& out) {
  FVF_REQUIRE(static_cast<i32>(data.size()) == length_);
  out.resize(static_cast<usize>(length_));
  api.fmovs(Dsd::of(out), FabricDsd::of(data));
}

namespace {

/// One combine of the trees, on scalars: the arithmetic add_into charges
/// as DSD ops.
f32 combine(ReduceOp op, f32 acc, f32 v) {
  if (op == ReduceOp::Sum) {
    return acc + v;
  }
  const f32 cmp = acc - v;
  if (op == ReduceOp::Min) {
    return cmp > 0.0f ? v : acc;
  }
  return cmp > 0.0f ? acc : v;
}

}  // namespace

f32 tree_reduce(ReduceOp op, Coord2 fabric_size, std::span<const f32> local) {
  FVF_REQUIRE(fabric_size.x > 0 && fabric_size.y > 0);
  FVF_REQUIRE(static_cast<i64>(local.size()) ==
              static_cast<i64>(fabric_size.x) * fabric_size.y);
  f32 column = 0.0f;
  for (i32 y = fabric_size.y - 1; y >= 0; --y) {
    const usize row = static_cast<usize>(y) * static_cast<usize>(fabric_size.x);
    f32 partial = local[row + static_cast<usize>(fabric_size.x - 1)];
    for (i32 x = fabric_size.x - 2; x >= 0; --x) {
      partial = combine(op, local[row + static_cast<usize>(x)], partial);
    }
    column = y == fabric_size.y - 1 ? partial : combine(op, partial, column);
  }
  return column;
}

void AllReduceSum::add_into(PeApi& api, std::vector<f32>& acc,
                            std::span<const f32> v) {
  FVF_REQUIRE(acc.size() == v.size());
  const Dsd operand{const_cast<f32*>(v.data()), length_};
  switch (op_) {
    case ReduceOp::Sum:
      // acc += v, charged as one vector FADD.
      api.fadds(Dsd::of(acc), Dsd::of(acc), operand);
      break;
    case ReduceOp::Min:
    case ReduceOp::Max: {
      // Combine via the predicated select: cmp = acc - v, then pick by
      // sign — same accounting as the upwind select (FSUB + move).
      std::vector<f32> cmp(acc.size());
      api.fsubs(Dsd::of(cmp), Dsd::of(acc), operand);
      if (op_ == ReduceOp::Min) {
        api.selects(Dsd::of(acc), Dsd::of(cmp), operand, Dsd::of(acc));
      } else {
        api.selects(Dsd::of(acc), Dsd::of(cmp), Dsd::of(acc), operand);
      }
      break;
    }
  }
}

void AllReduceSum::contribute(PeApi& api, std::span<const f32> local,
                              CompletionHandler on_complete) {
  FVF_REQUIRE(static_cast<i32>(local.size()) == length_);
  FVF_REQUIRE_MSG(!have_local_, "contribute() called twice in one round");
  on_complete_ = std::move(on_complete);
  // Combining partials and feeding the trees is collective work even when
  // it runs inside a compute task (profiler retag only).
  api.set_phase(obs::Phase::AllReduce);
  acc_.assign(local.begin(), local.end());
  have_local_ = true;
  try_advance_row(api);
}

void AllReduceSum::try_advance_row(PeApi& api) {
  if (!have_local_ || east_consumed_) {
    return;
  }
  const bool need_east = coord_.x < fabric_.x - 1;
  if (need_east) {
    if (!east_pending_) {
      return;
    }
    add_into(api, acc_, *east_pending_);
    east_pending_.reset();
  }
  east_consumed_ = true;
  if (coord_.x > 0) {
    api.send(colors_.row_reduce, acc_);
    return;  // now awaiting the broadcast
  }
  // Column head: this row's total feeds the column reduction.
  col_acc_ = acc_;
  row_total_ready_ = true;
  try_advance_col(api);
}

void AllReduceSum::try_advance_col(PeApi& api) {
  FVF_ASSERT(coord_.x == 0);
  if (!row_total_ready_) {
    return;
  }
  const bool need_north = coord_.y < fabric_.y - 1;
  if (need_north) {
    if (!north_pending_) {
      return;
    }
    add_into(api, col_acc_, *north_pending_);
    north_pending_.reset();
  }
  row_total_ready_ = false;
  if (coord_.y > 0) {
    api.send(colors_.col_reduce, col_acc_);
    return;
  }
  // PE (0,0): global result. Broadcast, then complete locally.
  if (fabric_.x > 1) {
    api.send(colors_.row_bcast, col_acc_);
  }
  if (fabric_.y > 1) {
    api.send(colors_.col_bcast, col_acc_);
  }
  finish(api, col_acc_);
}

void AllReduceSum::on_data(PeApi& api, Color color, Dir from,
                           std::span<const u32> data) {
  FVF_REQUIRE(owns(color));
  if (color == colors_.row_reduce) {
    FVF_REQUIRE(from == Dir::East);
    FVF_REQUIRE_MSG(!east_pending_, "row-reduce partial overrun");
    unpack(api, data, scratch_);
    east_pending_ = scratch_;
    try_advance_row(api);
    return;
  }
  if (color == colors_.col_reduce) {
    FVF_REQUIRE(from == Dir::North);
    FVF_REQUIRE(coord_.x == 0);
    FVF_REQUIRE_MSG(!north_pending_, "column-reduce partial overrun");
    unpack(api, data, scratch_);
    north_pending_ = scratch_;
    try_advance_col(api);
    return;
  }
  if (color == colors_.row_bcast) {
    FVF_REQUIRE(from == Dir::West);
    FVF_REQUIRE(coord_.y == 0);
    unpack(api, data, scratch_);
    if (fabric_.y > 1) {
      api.send(colors_.col_bcast, scratch_);  // relay up the column
    }
    finish(api, scratch_);
    return;
  }
  FVF_REQUIRE(from == Dir::South);
  unpack(api, data, scratch_);
  finish(api, scratch_);
}

void AllReduceSum::finish(PeApi& api, std::span<const f32> result) {
  FVF_REQUIRE_MSG(have_local_,
                  "all-reduce result arrived before this PE contributed");
  // Reset before invoking the handler: it may start the next round.
  have_local_ = false;
  east_consumed_ = false;
  ++rounds_;
  CompletionHandler handler = std::move(on_complete_);
  on_complete_ = nullptr;
  FVF_REQUIRE(handler != nullptr);
  // The completion handler is the program's continuation, not tree work.
  api.set_phase(obs::Phase::LocalCompute);
  handler(api, result);
}

}  // namespace fvf::wse
