#include "lint/flow.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "common/assert.hpp"
#include "common/thread_pool.hpp"
#include "lint/routing_index.hpp"
#include "wse/program.hpp"

namespace fvf::lint {

namespace {

using detail::ColorRoutes;
using detail::long_dir_name;
using detail::RoutingIndex;
using detail::SenderWalk;
using wse::Color;
using wse::Dir;

[[nodiscard]] std::string default_label(Color color) {
  std::ostringstream os;
  os << "color " << static_cast<int>(color.id());
  return os.str();
}

// ---------------------------------------------------------------------------
// Buffer-bound analysis
// ---------------------------------------------------------------------------

/// Worst-case parked blocks of one color: (node, blocks) for every node
/// with a nonzero count, ascending by node.
using NodeBlocks = std::vector<std::pair<usize, u64>>;

[[nodiscard]] NodeBlocks color_occupancy(const RoutingIndex& index,
                                         Color color) {
  const ColorRoutes routes = index.routes(color);
  // Fast path: a color with no parkable (PE, input) node can never
  // occupy a router input buffer, whatever its traffic.
  bool any_parkable = false;
  for (usize n = 0; n < index.node_count() && !any_parkable; ++n) {
    any_parkable = detail::parkable(routes[n]);
  }
  if (!any_parkable) {
    return {};
  }
  std::vector<u64> node_blocks(index.node_count(), 0);
  SenderWalk walk(index);
  for (usize p = 0; p < index.pe_count(); ++p) {
    const u64 in_flight = index.in_flight(p, color);
    if (in_flight == 0) {
      continue;
    }
    // Every parkable node this sender's traffic can occupy may hold its
    // whole in-flight window at once in the worst case.
    walk.run(
        routes, index.pe_at(p),
        [&](usize n) {
          if (detail::parkable(routes[n])) {
            node_blocks[n] += in_flight;
          }
        },
        [](Coord2) {});
  }
  NodeBlocks occupied;
  for (usize n = 0; n < node_blocks.size(); ++n) {
    if (node_blocks[n] != 0) {
      occupied.emplace_back(n, node_blocks[n]);
    }
  }
  return occupied;
}

// ---------------------------------------------------------------------------
// Cross-color wait-for analysis
// ---------------------------------------------------------------------------

/// The wait-for graph the deadlock check runs a cycle search on. Two node
/// kinds, both restricted to the colors that appear in some declared
/// ChannelDependency:
///
///   routing node (color, PE, input)  a block of `color` occupying that
///                                    link; it waits on whatever produces
///                                    the block upstream (reverse-flow
///                                    edges, or the sender's obligation
///                                    at the Ramp)
///   obligation node (PE, color)      the declared send of `color` at
///                                    `PE`; it waits on the deliveries of
///                                    every declared prerequisite color
///
/// A cycle therefore means: some send transitively waits on a delivery
/// that only happens after that same send — a protocol deadlock no
/// schedule can escape.
class WaitForGraph {
 public:
  WaitForGraph(const RoutingIndex& index, std::vector<Color> colors)
      : index_(index),
        colors_(std::move(colors)),
        pe_count_(index.pe_count()),
        routing_nodes_(index.node_count()) {
    slot_of_.fill(kNoSlot);
    routes_.reserve(colors_.size());
    for (usize slot = 0; slot < colors_.size(); ++slot) {
      routes_.push_back(index_.routes(colors_[slot]));
      slot_of_[colors_[slot].id()] = slot;
    }
  }

  [[nodiscard]] usize node_total() const noexcept {
    return colors_.size() * (routing_nodes_ + pe_count_);
  }

  [[nodiscard]] bool is_obligation(usize n) const noexcept {
    return n >= colors_.size() * routing_nodes_;
  }
  [[nodiscard]] Coord2 pe_of(usize n) const {
    if (is_obligation(n)) {
      return index_.pe_at((n - colors_.size() * routing_nodes_) % pe_count_);
    }
    return index_.pe_of(n % routing_nodes_);
  }
  [[nodiscard]] Color color_of(usize n) const {
    if (is_obligation(n)) {
      return colors_[(n - colors_.size() * routing_nodes_) / pe_count_];
    }
    return colors_[n / routing_nodes_];
  }

  [[nodiscard]] usize obligation_node(usize slot, usize pe) const noexcept {
    return colors_.size() * routing_nodes_ + slot * pe_count_ + pe;
  }
  [[nodiscard]] usize routing_node(usize slot, Coord2 pe, Dir input) const {
    return slot * routing_nodes_ + index_.node(pe, input);
  }

  /// Appends the nodes `n` waits on to `out`.
  void successors(usize n, std::vector<usize>& out) const {
    if (is_obligation(n)) {
      const Coord2 pe = pe_of(n);
      const Color color = color_of(n);
      for (const wse::ChannelDependency& dep :
           index_.dependencies(index_.pe_index(pe))) {
        const usize slot = slot_of_[dep.prerequisite.id()];
        if (dep.dependent != color || slot == kNoSlot) {
          continue;
        }
        // The send waits for deliveries of the prerequisite, which can
        // only arrive through a link input some position delivers to the
        // Ramp (a PE never waits on its own injection).
        for (usize in = 0; in < wse::kLinkCount; ++in) {
          const Dir input = static_cast<Dir>(in);
          if (input != Dir::Ramp &&
              detail::has_output(routes_[slot][index_.node(pe, input)],
                                 Dir::Ramp)) {
            out.push_back(routing_node(slot, pe, input));
          }
        }
      }
      return;
    }
    const usize slot = n / routing_nodes_;
    const usize local = n % routing_nodes_;
    const Coord2 pe = index_.pe_of(local);
    const Dir input = RoutingIndex::input_of(local);
    if (input == Dir::Ramp) {
      // Injected here: the block exists once the PE's own send runs.
      const usize p = local / wse::kLinkCount;
      if (((index_.data_sends(p) | index_.control_sends(p)) &
           detail::color_bit(colors_[slot])) != 0) {
        out.push_back(obligation_node(slot, p));
      }
      return;
    }
    // Arrived over a link: the block was forwarded by the upstream
    // neighbour, through any of its inputs whose rules output toward us.
    const Coord2 off = wse::dir_offset(input);
    const Coord2 src{pe.x + off.x, pe.y + off.y};
    if (!index_.on_fabric(src)) {
      return;
    }
    const Dir toward_us = wse::opposite(input);
    for (usize in = 0; in < wse::kLinkCount; ++in) {
      const Dir src_in = static_cast<Dir>(in);
      if (detail::has_output(routes_[slot][index_.node(src, src_in)],
                             toward_us)) {
        out.push_back(routing_node(slot, src, src_in));
      }
    }
  }

  [[nodiscard]] const std::vector<Color>& colors() const noexcept {
    return colors_;
  }
  [[nodiscard]] usize pe_count() const noexcept { return pe_count_; }

 private:
  static constexpr usize kNoSlot = static_cast<usize>(-1);

  const RoutingIndex& index_;
  std::vector<Color> colors_;
  std::vector<ColorRoutes> routes_;
  std::array<usize, Color::kMaxColors> slot_of_{};
  usize pe_count_ = 0;
  usize routing_nodes_ = 0;
};

class FlowLinter {
 public:
  FlowLinter(const RoutingIndex& index, const FlowOptions& options,
             std::vector<Diagnostic>& out, ThreadPool& pool)
      : index_(index),
        fabric_(index.fabric()),
        options_(options),
        out_(out),
        pool_(pool) {}

  void run() {
    check_buffer_bounds();
    check_deadlock();
    check_determinism();
  }

 private:
  [[nodiscard]] std::string label(Color color) const {
    return options_.color_label != nullptr ? options_.color_label(color)
                                           : default_label(color);
  }

  /// Lifts a finding to the layer that generated the traffic: programs
  /// built from a higher-level description (spec::SpecPeProgram) map the
  /// color back to the declaration field via describe_channel, so the
  /// diagnostic names what to fix rather than the lowered artifact.
  void push(Diagnostic d) {
    if (d.color.has_value()) {
      const wse::PeProgram* program = fabric_.pe(d.pe.x, d.pe.y).program();
      if (program != nullptr) {
        const std::string note = program->describe_channel(*d.color);
        if (!note.empty()) {
          d.message += "; ";
          d.message += note;
        }
      }
    }
    out_.push_back(std::move(d));
  }

  void check_buffer_bounds() {
    const BufferAnalysis analysis = detail::analyze_buffer_occupancy(
        index_, options_.skip_colors, pool_);
    const u32 depth = options_.router_buffer_depth != 0
                          ? options_.router_buffer_depth
                          : fabric_.execution().router_buffer_depth;
    if (analysis.minimal_depth <= depth) {
      return;
    }
    // One finding localizes the problem: report the worst PE (first in
    // raster order) and count the others, so a wafer-scale program does
    // not emit a diagnostic per PE.
    const PeOccupancy* worst = nullptr;
    usize exceeding = 0;
    for (const PeOccupancy& pe : analysis.per_pe) {
      if (pe.blocks > depth) {
        ++exceeding;
        if (worst == nullptr || pe.blocks > worst->blocks) {
          worst = &pe;
        }
      }
    }
    std::ostringstream os;
    os << "worst-case router input-buffer occupancy at PE(" << worst->pe.x
       << ',' << worst->pe.y << ") reaches " << worst->blocks << " blocks (";
    bool first = true;
    std::optional<Color> single_color;
    bool one_color = true;
    for (const ParkContribution& c : worst->contributions) {
      os << (first ? "" : ", ") << label(c.color) << " via "
         << long_dir_name(c.input) << ": " << c.blocks;
      first = false;
      if (single_color.has_value() && *single_color != c.color) {
        one_color = false;
      }
      single_color = c.color;
    }
    os << "), exceeding router_buffer_depth " << depth
       << ": the run would drop blocks; router_buffer_depth >= "
       << analysis.minimal_depth << " is sufficient";
    if (exceeding > 1) {
      os << " (" << exceeding << " PEs exceed the configured depth)";
    }
    Diagnostic d{Check::BufferOverflowPossible, Severity::Error, worst->pe,
                 one_color ? single_color : std::nullopt, os.str()};
    d.bound = analysis.minimal_depth;
    push(std::move(d));
  }

  void check_deadlock() {
    // Colors that appear in some declared ordering; everything else
    // cannot sit on a wait cycle (single-color routing cycles are the
    // routing-cycle check's finding, and are skipped here).
    std::array<bool, Color::kMaxColors> interesting{};
    for (usize p = 0; p < index_.pe_count(); ++p) {
      for (const wse::ChannelDependency& dep : index_.dependencies(p)) {
        if (!options_.skip_colors[dep.prerequisite.id()] &&
            !options_.skip_colors[dep.dependent.id()]) {
          interesting[dep.prerequisite.id()] = true;
          interesting[dep.dependent.id()] = true;
        }
      }
    }
    std::vector<Color> colors;
    for (u8 c = 0; c < Color::kMaxColors; ++c) {
      if (interesting[c]) {
        colors.push_back(Color{c});
      }
    }
    if (colors.empty()) {
      return;
    }
    const WaitForGraph wait(index_, std::move(colors));

    enum class Mark : u8 { White, Gray, Black };
    std::vector<Mark> mark(wait.node_total(), Mark::White);
    // Successor lists share one stack-shaped pool: a frame's successors
    // are successors[begin, end), and popping the frame truncates the
    // pool back to `begin`.
    struct Frame {
      usize node = 0;
      usize begin = 0;
      usize next = 0;
      usize end = 0;
    };
    std::vector<Frame> stack;
    std::vector<usize> successors;
    const auto push_frame = [&](usize node) {
      mark[node] = Mark::Gray;
      const usize begin = successors.size();
      wait.successors(node, successors);
      stack.push_back(Frame{node, begin, begin, successors.size()});
    };
    for (usize slot = 0; slot < wait.colors().size(); ++slot) {
      for (usize p = 0; p < wait.pe_count(); ++p) {
        const usize root = wait.obligation_node(slot, p);
        if (mark[root] != Mark::White) {
          continue;
        }
        push_frame(root);
        while (!stack.empty()) {
          Frame& frame = stack.back();
          if (frame.next >= frame.end) {
            mark[frame.node] = Mark::Black;
            successors.resize(frame.begin);
            stack.pop_back();
            continue;
          }
          const usize target = successors[frame.next++];
          if (mark[target] == Mark::Gray) {
            report_deadlock(wait, stack, target);
            return;  // one cycle is enough to localize the knot
          }
          if (mark[target] == Mark::White) {
            push_frame(target);
          }
        }
      }
    }
  }

  template <typename Frames>
  void report_deadlock(const WaitForGraph& wait, const Frames& stack,
                       usize back_to) {
    usize start = 0;
    for (usize i = 0; i < stack.size(); ++i) {
      if (stack[i].node == back_to) {
        start = i;
        break;
      }
    }
    // The cycle alternates obligation nodes (a send waiting) with the
    // routing nodes of the prerequisite it waits on; render the sends in
    // cycle order, each naming the prerequisite and its producer (the
    // next obligation on the cycle).
    struct Obligation {
      Coord2 pe;
      Color color;
    };
    std::vector<Obligation> sends;
    std::vector<Coord2> relays;
    for (usize i = start; i < stack.size(); ++i) {
      const usize n = stack[i].node;
      if (wait.is_obligation(n)) {
        sends.push_back(Obligation{wait.pe_of(n), wait.color_of(n)});
      } else {
        relays.push_back(wait.pe_of(n));
      }
    }
    std::ostringstream os;
    os << "cross-color send ordering can deadlock: ";
    for (usize i = 0; i < sends.size(); ++i) {
      const Obligation& s = sends[i];
      const Obligation& producer = sends[(i + 1) % sends.size()];
      os << (i == 0 ? "" : "; ") << "PE(" << s.pe.x << ',' << s.pe.y
         << ") sends " << label(s.color) << " only after "
         << label(producer.color) << " arrives from PE(" << producer.pe.x
         << ',' << producer.pe.y << ')';
    }
    os << "; the wait cycle closes and none of these sends can happen";
    // Routing PEs on the cycle beyond the senders themselves (multi-hop
    // relays) are part of the knot too.
    std::vector<Coord2> extra;
    for (const Coord2 pe : relays) {
      const bool is_sender =
          std::any_of(sends.begin(), sends.end(),
                      [&](const Obligation& s) { return s.pe == pe; });
      if (!is_sender &&
          std::find(extra.begin(), extra.end(), pe) == extra.end()) {
        extra.push_back(pe);
      }
    }
    if (!extra.empty()) {
      os << " (traffic relayed through ";
      for (usize i = 0; i < extra.size(); ++i) {
        os << (i == 0 ? "" : ", ") << "PE(" << extra[i].x << ','
           << extra[i].y << ')';
      }
      os << ')';
    }
    FVF_ASSERT(!sends.empty());
    push(Diagnostic{Check::CrossColorDeadlock, Severity::Error,
                    sends.front().pe, sends.front().color, os.str()});
  }

  void check_determinism() {
    // Gather the arrival-order accumulations and the colors they fold.
    struct Fold {
      Coord2 pe;
      std::string fold_label;
      std::vector<Color> colors;
    };
    std::vector<Fold> folds;
    std::array<bool, Color::kMaxColors> fold_colors{};
    for (const detail::DeclaredFold& declared : index_.folds()) {
      Fold fold{index_.pe_at(declared.pe), declared.declaration.label, {}};
      for (const Color c : declared.declaration.colors) {
        if (!options_.skip_colors[c.id()]) {
          fold.colors.push_back(c);
          fold_colors[c.id()] = true;
        }
      }
      if (!fold.colors.empty()) {
        folds.push_back(std::move(fold));
      }
    }
    if (folds.empty()) {
      return;
    }

    // Per color: how many declared data senders can reach each PE's Ramp
    // over the union graph, with the first two recorded for the message.
    // Each color is one pool task; its senders walk in raster order.
    const usize pe_count = index_.pe_count();
    constexpr usize kSampleSenders = 2;
    struct Reach {
      std::vector<u32> sources;
      std::vector<std::array<Coord2, kSampleSenders>> sample;
    };
    std::vector<Color> reach_colors;
    for (u8 c = 0; c < Color::kMaxColors; ++c) {
      if (fold_colors[c]) {
        reach_colors.push_back(Color{c});
      }
    }
    std::array<Reach, Color::kMaxColors> reach_by_color;
    pool_.run_indexed(static_cast<i64>(reach_colors.size()), [&](i64 i) {
      const Color color = reach_colors[static_cast<usize>(i)];
      Reach& reach = reach_by_color[color.id()];
      reach.sources.assign(pe_count, 0);
      reach.sample.assign(pe_count, {});
      const ColorRoutes routes = index_.routes(color);
      const u32 bit = detail::color_bit(color);
      SenderWalk walk(index_);
      for (usize s = 0; s < pe_count; ++s) {
        if ((index_.data_sends(s) & bit) == 0) {
          continue;
        }
        const Coord2 sender = index_.pe_at(s);
        walk.run(routes, sender, [](usize) {}, [&](Coord2 pe) {
          const usize p = index_.pe_index(pe);
          if (reach.sources[p] < kSampleSenders) {
            reach.sample[p][reach.sources[p]] = sender;
          }
          ++reach.sources[p];
        });
      }
    });

    for (const Fold& fold : folds) {
      const usize p = index_.pe_index(fold.pe);
      u64 sources = 0;
      std::vector<Coord2> samples;
      for (const Color c : fold.colors) {
        const Reach& reach = reach_by_color[c.id()];
        sources += reach.sources[p];
        for (usize i = 0;
             i < std::min<usize>(reach.sources[p], kSampleSenders); ++i) {
          if (samples.size() < 2 * kSampleSenders) {
            samples.push_back(reach.sample[p][i]);
          }
        }
      }
      if (sources < 2) {
        continue;  // at most one producer: delivery order is pinned
      }
      std::ostringstream os;
      os << "PE(" << fold.pe.x << ',' << fold.pe.y << ") folds '"
         << fold.fold_label << "' in arrival order over ";
      for (usize i = 0; i < fold.colors.size(); ++i) {
        os << (i == 0 ? "" : ", ") << label(fold.colors[i]);
      }
      os << ", and the routing plan lets " << sources
         << " senders reach its Ramp (";
      for (usize i = 0; i < samples.size(); ++i) {
        os << (i == 0 ? "" : ", ") << "PE(" << samples[i].x << ','
           << samples[i].y << ')';
      }
      if (sources > samples.size()) {
        os << ", ...";
      }
      os << "): the f32 result depends on delivery interleaving";
      push(Diagnostic{Check::OrderSensitiveReduction, Severity::Warning,
                      fold.pe,
                      fold.colors.size() == 1
                          ? std::optional<Color>{fold.colors[0]}
                          : std::nullopt,
                      os.str()});
    }
  }

  const RoutingIndex& index_;
  const wse::Fabric& fabric_;
  const FlowOptions& options_;
  std::vector<Diagnostic>& out_;
  ThreadPool& pool_;
};

}  // namespace

namespace detail {

BufferAnalysis analyze_buffer_occupancy(
    const RoutingIndex& index,
    const std::array<bool, Color::kMaxColors>& skip_colors,
    ThreadPool& pool) {
  std::vector<Color> colors;
  for (const Color color : index.colors()) {
    if (!skip_colors[color.id()]) {
      colors.push_back(color);
    }
  }
  std::vector<NodeBlocks> per_color(colors.size());
  pool.run_indexed(static_cast<i64>(colors.size()), [&](i64 i) {
    const auto slot = static_cast<usize>(i);
    per_color[slot] = color_occupancy(index, colors[slot]);
  });
  const usize pe_count = index.pe_count();
  std::vector<u64> total(pe_count, 0);
  std::vector<std::vector<ParkContribution>> contributions(pe_count);
  for (usize slot = 0; slot < colors.size(); ++slot) {
    for (const auto& [n, blocks] : per_color[slot]) {
      const usize p = n / wse::kLinkCount;
      total[p] += blocks;
      contributions[p].push_back(
          ParkContribution{colors[slot], RoutingIndex::input_of(n), blocks});
    }
  }
  BufferAnalysis analysis;
  for (usize p = 0; p < pe_count; ++p) {
    if (total[p] == 0) {
      continue;
    }
    analysis.minimal_depth = std::max(analysis.minimal_depth, total[p]);
    analysis.per_pe.push_back(
        PeOccupancy{index.pe_at(p), total[p], std::move(contributions[p])});
  }
  return analysis;
}

void run_flow_checks(const RoutingIndex& index, const FlowOptions& options,
                     std::vector<Diagnostic>& out, ThreadPool& pool) {
  FlowLinter linter(index, options, out, pool);
  linter.run();
}

}  // namespace detail

BufferAnalysis analyze_buffer_occupancy(
    const wse::Fabric& fabric,
    const std::array<bool, Color::kMaxColors>& skip_colors) {
  ThreadPool pool(fabric.host_threads());
  const detail::RoutingIndex index(fabric, pool);
  return detail::analyze_buffer_occupancy(index, skip_colors, pool);
}

void run_flow_checks(const wse::Fabric& fabric, const FlowOptions& options,
                     std::vector<Diagnostic>& out) {
  ThreadPool pool(fabric.host_threads());
  const detail::RoutingIndex index(fabric, pool);
  detail::run_flow_checks(index, options, out, pool);
}

}  // namespace fvf::lint
