/// \file routing_index.hpp
/// \brief The flattened routing index every fvf::lint analysis reads.
///
/// Nodes are (PE, input link) pairs; edges follow the *union* of the
/// routing rules over all switch positions of a color. The switch state at
/// an arbitrary run point is dynamic (control wavelets advance it), so
/// every reachability-style property must be decided conservatively on
/// this union — see docs/ARCHITECTURE.md "Static flow analysis" for what
/// is and is not decidable on it.
///
/// lint::run builds one index per call, in O(PEs × configured colors):
///   - one packed u32 per (configured color, PE, input) answers every
///     accepts / parkable / outputs query with a single load, instead of
///     chasing the router's positions -> rules -> outputs vectors;
///   - colors that no router configures get no words at all;
///   - a per-PE declaration digest reads each program's sends,
///     dependencies and reductions exactly once.
/// Each check then costs O(nodes) per configured color, plus the nodes
/// each sender reaches for the per-sender walks. Internal to fvf::lint:
/// shared by the routing checks (lint.cpp) and the flow analyzers
/// (flow.cpp).
#pragma once

#include <algorithm>
#include <array>
#include <span>
#include <string_view>
#include <vector>

#include "common/thread_pool.hpp"
#include "common/types.hpp"
#include "lint/flow.hpp"
#include "lint/lint.hpp"
#include "wse/fabric.hpp"
#include "wse/program.hpp"

namespace fvf::lint::detail {

// Packed word of one (color, PE, input) node:
//   bit 0       accepts: some switch position has a rule for the input
//   bit 1       parkable (see kParkableBit)
//   bit 2       the color is configured on this PE's router
//   bits 3..5   number of distinct outputs (0..5)
//   bits 6..20  the distinct outputs, 3 bits per Dir, in first-occurrence
//               order over positions and then rule outputs. That is the
//               order the depth-first checks visit successors in, so
//               dropping the duplicates changes no cycle or dead-end report.
inline constexpr u32 kAcceptsBit = 1u << 0;
/// A block entering through the input can *park*: the color has more than
/// one switch position there, at least one position accepts the input
/// (otherwise the dead-end check owns the finding), and at least one does
/// not — so depending on the dynamic switch state the block may wait in
/// the router's input buffer for a control-wavelet advance.
inline constexpr u32 kParkableBit = 1u << 1;
inline constexpr u32 kConfiguredBit = 1u << 2;
inline constexpr u32 kCountShift = 3;
inline constexpr u32 kOutputShift = 6;

[[nodiscard]] constexpr bool accepts(u32 word) noexcept {
  return (word & kAcceptsBit) != 0;
}
[[nodiscard]] constexpr bool parkable(u32 word) noexcept {
  return (word & kParkableBit) != 0;
}
[[nodiscard]] constexpr bool configured(u32 word) noexcept {
  return (word & kConfiguredBit) != 0;
}
[[nodiscard]] constexpr u32 output_count(u32 word) noexcept {
  return (word >> kCountShift) & 7u;
}
[[nodiscard]] constexpr wse::Dir output(u32 word, u32 i) noexcept {
  return static_cast<wse::Dir>((word >> (kOutputShift + 3 * i)) & 7u);
}

/// Invokes `fn(output)` for every distinct output link of the node.
template <typename Fn>
void each_output(u32 word, Fn&& fn) {
  for (u32 i = 0; i < output_count(word); ++i) {
    fn(output(word, i));
  }
}

[[nodiscard]] constexpr bool has_output(u32 word, wse::Dir dir) noexcept {
  for (u32 i = 0; i < output_count(word); ++i) {
    if (output(word, i) == dir) {
      return true;
    }
  }
  return false;
}

/// Link name as diagnostics spell it.
[[nodiscard]] constexpr std::string_view long_dir_name(wse::Dir d) noexcept {
  switch (d) {
    case wse::Dir::North: return "North";
    case wse::Dir::East: return "East";
    case wse::Dir::South: return "South";
    case wse::Dir::West: return "West";
    case wse::Dir::Ramp: return "Ramp";
  }
  return "?";
}

/// One bit per color id, for the per-PE send masks.
[[nodiscard]] constexpr u32 color_bit(wse::Color color) noexcept {
  return u32{1} << color.id();
}

/// The routing words of one color, indexed by node. A color that no
/// router configures has no words: every node reads as 0 (accepts
/// nothing, routes nowhere, configured nowhere).
class ColorRoutes {
 public:
  ColorRoutes() = default;
  explicit ColorRoutes(const u32* words) : words_(words) {}

  [[nodiscard]] u32 operator[](usize node) const noexcept {
    return words_ == nullptr ? 0u : words_[node];
  }
  [[nodiscard]] bool configured_anywhere() const noexcept {
    return words_ != nullptr;
  }

 private:
  const u32* words_ = nullptr;
};

/// An arrival-order f32 accumulation declared at PE index `pe`.
struct DeclaredFold {
  usize pe = 0;
  wse::ReductionDeclaration declaration;
};

class RoutingIndex {
 public:
  static constexpr usize kNoNode = static_cast<usize>(-1);

  /// Indexes a loaded fabric, splitting the per-row passes over `pool`.
  RoutingIndex(const wse::Fabric& fabric, ThreadPool& pool);

  [[nodiscard]] const wse::Fabric& fabric() const noexcept { return fabric_; }
  [[nodiscard]] i32 width() const noexcept { return fabric_.width(); }
  [[nodiscard]] i32 height() const noexcept { return fabric_.height(); }
  [[nodiscard]] usize pe_count() const noexcept { return pe_count_; }
  [[nodiscard]] usize node_count() const noexcept {
    return pe_count_ * wse::kLinkCount;
  }

  [[nodiscard]] usize pe_index(Coord2 pe) const noexcept {
    return static_cast<usize>(pe.y) * static_cast<usize>(width()) +
           static_cast<usize>(pe.x);
  }
  [[nodiscard]] Coord2 pe_at(usize p) const noexcept {
    return Coord2{static_cast<i32>(p % static_cast<usize>(width())),
                  static_cast<i32>(p / static_cast<usize>(width()))};
  }
  [[nodiscard]] usize node(Coord2 pe, wse::Dir input) const noexcept {
    return pe_index(pe) * wse::kLinkCount + static_cast<usize>(input);
  }
  [[nodiscard]] Coord2 pe_of(usize n) const noexcept {
    return pe_at(n / wse::kLinkCount);
  }
  [[nodiscard]] static wse::Dir input_of(usize n) noexcept {
    return static_cast<wse::Dir>(n % wse::kLinkCount);
  }
  [[nodiscard]] bool on_fabric(Coord2 pe) const noexcept {
    return pe.x >= 0 && pe.x < width() && pe.y >= 0 && pe.y < height();
  }
  /// The node a block leaving `pe` through fabric link `out` arrives at,
  /// or kNoNode past the wafer edge (which absorbs it by design).
  [[nodiscard]] usize arrival_node(Coord2 pe, wse::Dir out) const noexcept {
    const Coord2 off = wse::dir_offset(out);
    const Coord2 target{pe.x + off.x, pe.y + off.y};
    return on_fabric(target) ? node(target, wse::opposite(out)) : kNoNode;
  }

  /// Colors at least one router configures, ascending.
  [[nodiscard]] const std::vector<wse::Color>& colors() const noexcept {
    return colors_;
  }
  [[nodiscard]] ColorRoutes routes(wse::Color color) const noexcept {
    const usize slot = slot_of_[color.id()];
    return slot == kNoSlot ? ColorRoutes{}
                           : ColorRoutes{words_.data() + slot * node_count()};
  }

  // --- declaration digest --------------------------------------------------

  /// Colors PE `p`'s program declares data / control sends on (color_bit
  /// per color). Zero for a PE without a program.
  [[nodiscard]] u32 data_sends(usize p) const noexcept {
    return data_sends_[p];
  }
  [[nodiscard]] u32 control_sends(usize p) const noexcept {
    return control_sends_[p];
  }
  /// Sum of the declared in-flight block bounds PE `p` carries on `color`
  /// (data and control declarations both park in the same per-PE buffer);
  /// 0 on colors no router configures, which cannot park anywhere.
  [[nodiscard]] u64 in_flight(usize p, wse::Color color) const noexcept {
    const usize slot = slot_of_[color.id()];
    return slot == kNoSlot ? 0 : in_flight_[slot * pe_count_ + p];
  }
  /// PE `p`'s declared blocking send orderings, in declaration order.
  [[nodiscard]] std::span<const wse::ChannelDependency> dependencies(
      usize p) const noexcept {
    return std::span<const wse::ChannelDependency>(dependencies_)
        .subspan(dependency_offsets_[p],
                 dependency_offsets_[p + 1] - dependency_offsets_[p]);
  }
  /// Every arrival-order accumulation, in raster then declaration order.
  [[nodiscard]] const std::vector<DeclaredFold>& folds() const noexcept {
    return folds_;
  }

 private:
  static constexpr usize kNoSlot = static_cast<usize>(-1);

  const wse::Fabric& fabric_;
  usize pe_count_;
  std::vector<wse::Color> colors_;
  std::array<usize, wse::Color::kMaxColors> slot_of_{};
  /// [slot][node], slot = position of the color in colors_.
  std::vector<u32> words_;
  std::vector<u32> data_sends_;
  std::vector<u32> control_sends_;
  /// [slot][PE].
  std::vector<u64> in_flight_;
  /// dependencies(p) is dependencies_[offsets[p], offsets[p + 1]).
  std::vector<usize> dependency_offsets_;
  std::vector<wse::ChannelDependency> dependencies_;
  std::vector<DeclaredFold> folds_;
};

/// Union-graph walk from one sender's Ramp injection point. Invokes
/// `visit(node)` for every reachable routing node — including the
/// injection node itself, where blocks park when the active position has
/// no Ramp rule — and `deliver(pe)` once per PE whose Ramp the traffic can
/// reach. The visited and delivered marks are epoch-stamped, so one walker
/// serves every sender of a color without clearing or reallocating them.
class SenderWalk {
 public:
  explicit SenderWalk(const RoutingIndex& index)
      : index_(index),
        visited_(index.node_count(), 0),
        delivered_(index.pe_count(), 0) {}

  template <typename VisitFn, typename DeliverFn>
  void run(ColorRoutes routes, Coord2 sender, VisitFn&& visit,
           DeliverFn&& deliver) {
    const u32 epoch = next_epoch();
    const usize start = index_.node(sender, wse::Dir::Ramp);
    visited_[start] = epoch;
    visit(start);
    frontier_.push_back(start);
    while (!frontier_.empty()) {
      const usize n = frontier_.back();
      frontier_.pop_back();
      const Coord2 pe = index_.pe_of(n);
      each_output(routes[n], [&](wse::Dir out) {
        if (out == wse::Dir::Ramp) {
          const usize p = n / wse::kLinkCount;
          if (delivered_[p] != epoch) {
            delivered_[p] = epoch;
            deliver(pe);
          }
          return;
        }
        const usize t = index_.arrival_node(pe, out);
        if (t != RoutingIndex::kNoNode && visited_[t] != epoch) {
          visited_[t] = epoch;
          visit(t);
          frontier_.push_back(t);
        }
      });
    }
  }

 private:
  [[nodiscard]] u32 next_epoch() {
    if (++epoch_ == 0) {
      // Wrapped: a stale stamp could equal the new epoch.
      std::fill(visited_.begin(), visited_.end(), 0u);
      std::fill(delivered_.begin(), delivered_.end(), 0u);
      epoch_ = 1;
    }
    return epoch_;
  }

  const RoutingIndex& index_;
  std::vector<u32> visited_;
  std::vector<u32> delivered_;
  std::vector<usize> frontier_;
  u32 epoch_ = 0;
};

// Flow-analysis entry points over a built index (flow.cpp); the per-color
// walks run as tasks on `pool`.
[[nodiscard]] BufferAnalysis analyze_buffer_occupancy(
    const RoutingIndex& index,
    const std::array<bool, wse::Color::kMaxColors>& skip_colors,
    ThreadPool& pool);
void run_flow_checks(const RoutingIndex& index, const FlowOptions& options,
                     std::vector<Diagnostic>& out, ThreadPool& pool);

}  // namespace fvf::lint::detail
