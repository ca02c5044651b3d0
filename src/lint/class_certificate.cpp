#include "lint/class_certificate.hpp"

#include <algorithm>
#include <array>
#include <limits>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "lint/routing_index.hpp"
#include "wse/program.hpp"
#include "wse/route.hpp"
#include "wse/router.hpp"

namespace fvf::lint::detail {

namespace {

using wse::Color;
using wse::Dir;

constexpr usize kColors = Color::kMaxColors;
constexpr usize kLinks = wse::kLinkCount;

template <typename T>
void put(std::string& key, const T& value) {
  key.append(reinterpret_cast<const char*>(&value), sizeof value);
}

/// Everything a routing, reconfiguration or flow check reads at one PE.
/// Two PEs with equal facts are one class.
struct PeFacts {
  bool loaded = false;
  /// Switch table per color (the fabric's RoutePool keeps each distinct
  /// table once, so equal tables are one address); null where unconfigured.
  std::array<const wse::ColorConfig*, kColors> tables{};
  std::array<u8, kColors> configure_counts{};
  /// Configured colors whose data / control deliveries the program handles.
  u32 handles_data = 0;
  u32 handles_control = 0;
  u32 data_sends = 0;
  u32 control_sends = 0;
  /// Summed declared in-flight bound per color.
  std::array<u64, kColors> in_flight{};
  std::vector<wse::ChannelDependency> dependencies;
  /// Arrival-order folds, each as its color count and then its color ids.
  std::vector<u32> folds;

  /// Gathers one PE's facts. `sends` is the caller's scratch buffer:
  /// reused across a row, like dependencies and folds, so gathering a
  /// fabric allocates per row, not per PE.
  void gather(const wse::Router& router, const wse::PeProgram* program,
              std::vector<wse::SendDeclaration>& sends) {
    loaded = program != nullptr;
    handles_data = 0;
    handles_control = 0;
    data_sends = 0;
    control_sends = 0;
    in_flight.fill(0);
    dependencies.clear();
    folds.clear();
    for (u8 c = 0; c < kColors; ++c) {
      const Color color{c};
      tables[c] = router.configured(color) ? &router.config(color) : nullptr;
      configure_counts[c] = static_cast<u8>(router.configure_count(color));
      if (loaded && tables[c] != nullptr) {
        handles_data |= program->handles_color(color, false) ? color_bit(color)
                                                             : 0u;
        handles_control |=
            program->handles_color(color, true) ? color_bit(color) : 0u;
      }
    }
    if (!loaded) {
      return;
    }
    sends.clear();
    program->send_declarations(sends);
    for (const wse::SendDeclaration& send : sends) {
      (send.control ? control_sends : data_sends) |= color_bit(send.color);
      in_flight[send.color.id()] += send.in_flight;
    }
    program->channel_dependencies(dependencies);
    for (const wse::ReductionDeclaration& reduction :
         program->reduction_declarations()) {
      if (reduction.folds_in_arrival_order) {
        folds.push_back(static_cast<u32>(reduction.colors.size()));
        for (const Color c : reduction.colors) {
          folds.push_back(c.id());
        }
      }
    }
  }

  /// An unambiguous byte string of the facts: equal keys, equal facts.
  void write_key(std::string& key) const {
    key.clear();
    put(key, loaded);
    for (u8 c = 0; c < kColors; ++c) {
      if (tables[c] != nullptr || configure_counts[c] != 0) {
        put(key, c);
        put(key, tables[c]);
        put(key, configure_counts[c]);
      }
    }
    put(key, static_cast<u8>(kColors));  // ends the table list
    put(key, handles_data);
    put(key, handles_control);
    put(key, data_sends);
    put(key, control_sends);
    for (u8 c = 0; c < kColors; ++c) {
      if (in_flight[c] != 0) {
        put(key, c);
        put(key, in_flight[c]);
      }
    }
    put(key, static_cast<u8>(kColors));  // ends the in-flight list
    put(key, dependencies.size());
    for (const wse::ChannelDependency& dep : dependencies) {
      put(key, dep.prerequisite.id());
      put(key, dep.dependent.id());
    }
    put(key, folds.size());
    for (const u32 word : folds) {
      put(key, word);
    }
  }
};

/// One fabric row's classes, numbered in first-occurrence order.
struct RowClasses {
  std::vector<u32> local;  ///< per PE of the row: its row-local class
  std::vector<std::string> keys;
  std::vector<PeFacts> facts;
};

/// Hop of a quotient edge: the fabric direction it moves in, or none.
constexpr u8 kNoHop = wse::kFabricDirCount;

/// A graph in compressed sparse row form: the successors of node n are
/// targets[offsets[n], offsets[n + 1]), each edge with its hop.
struct Csr {
  std::vector<usize> offsets{0};
  std::vector<usize> targets;
  std::vector<u8> hops;

  [[nodiscard]] usize size() const noexcept { return offsets.size() - 1; }
  template <typename Fn>
  void each_successor(usize n, Fn&& fn) const {
    for (usize i = offsets[n]; i < offsets[n + 1]; ++i) {
      fn(targets[i]);
    }
  }
};

/// Builds a Csr over `nodes` nodes; `successors(n, push)` calls
/// push(target, hop) for every edge out of n.
template <typename SuccessorsFn>
[[nodiscard]] Csr make_csr(usize nodes, SuccessorsFn&& successors) {
  Csr graph;
  graph.offsets.reserve(nodes + 1);
  for (usize n = 0; n < nodes; ++n) {
    successors(n, [&](usize t, u8 hop) {
      graph.targets.push_back(t);
      graph.hops.push_back(hop);
    });
    graph.offsets.push_back(graph.targets.size());
  }
  return graph;
}

[[nodiscard]] u8 hop_of(Dir dir) noexcept { return static_cast<u8>(dir); }

/// The nodes reachable from `roots`, each after all of its successors
/// (depth-first postorder), or nullopt when they include a cycle.
[[nodiscard]] std::optional<std::vector<usize>> postorder(
    const Csr& graph, const std::vector<usize>& roots) {
  enum class Mark : u8 { White, Gray, Black };
  std::vector<Mark> mark(graph.size(), Mark::White);
  std::vector<usize> order;
  struct Frame {
    usize node = 0;
    usize next = 0;
  };
  std::vector<Frame> stack;
  for (const usize root : roots) {
    if (mark[root] != Mark::White) {
      continue;
    }
    mark[root] = Mark::Gray;
    stack.push_back(Frame{root, graph.offsets[root]});
    while (!stack.empty()) {
      Frame& frame = stack.back();
      if (frame.next == graph.offsets[frame.node + 1]) {
        mark[frame.node] = Mark::Black;
        order.push_back(frame.node);
        stack.pop_back();
        continue;
      }
      const usize target = graph.targets[frame.next++];
      if (mark[target] == Mark::Gray) {
        return std::nullopt;
      }
      if (mark[target] == Mark::White) {
        mark[target] = Mark::Gray;
        stack.push_back(Frame{target, graph.offsets[target]});
      }
    }
  }
  return order;
}

/// Strongly connected component of every node (Tarjan, iterative).
[[nodiscard]] std::vector<usize> components(const Csr& graph) {
  constexpr usize kNone = static_cast<usize>(-1);
  const usize n = graph.size();
  std::vector<usize> index(n, kNone);
  std::vector<usize> low(n, 0);
  std::vector<usize> component(n, kNone);
  std::vector<usize> open;
  struct Frame {
    usize node = 0;
    usize next = 0;
  };
  std::vector<Frame> calls;
  usize counter = 0;
  usize count = 0;
  const auto enter = [&](usize v) {
    index[v] = low[v] = counter++;
    open.push_back(v);
    calls.push_back(Frame{v, graph.offsets[v]});
  };
  for (usize root = 0; root < n; ++root) {
    if (index[root] != kNone) {
      continue;
    }
    enter(root);
    while (!calls.empty()) {
      Frame& frame = calls.back();
      const usize v = frame.node;
      if (frame.next < graph.offsets[v + 1]) {
        const usize t = graph.targets[frame.next++];
        if (index[t] == kNone) {
          enter(t);
        } else if (component[t] == kNone) {
          low[v] = std::min(low[v], index[t]);  // t is still open
        }
        continue;
      }
      calls.pop_back();
      if (!calls.empty()) {
        usize& parent_low = low[calls.back().node];
        parent_low = std::min(parent_low, low[v]);
      }
      if (low[v] == index[v]) {
        usize w = kNone;
        while (w != v) {
          w = open.back();
          open.pop_back();
          component[w] = count;
        }
        ++count;
      }
    }
  }
  return component;
}

/// Whether some quotient cycle might be the image of a cycle on the
/// fabric. A fabric cycle maps to a closed quotient walk inside one
/// strongly connected component whose hops sum to zero. That cannot
/// happen when the component's hops never go both ways along an axis
/// (every hop then has a positive component along one fixed direction,
/// so a walk with a hop cannot close) and its hop-free edges form no
/// cycle. This is the one-sided case of Karp, Miller and Winograd's
/// zero-weight cycle test; anything else counts as a possible cycle.
[[nodiscard]] bool may_close_on_fabric(const Csr& graph) {
  std::vector<usize> all(graph.size());
  for (usize v = 0; v < all.size(); ++v) {
    all[v] = v;
  }
  if (postorder(graph, all).has_value()) {
    return false;  // no quotient cycle at all
  }
  const std::vector<usize> component = components(graph);
  std::vector<u8> hops(graph.size(), 0);  // per component: hop bits seen
  for (usize v = 0; v < graph.size(); ++v) {
    for (usize i = graph.offsets[v]; i < graph.offsets[v + 1]; ++i) {
      if (graph.hops[i] != kNoHop &&
          component[graph.targets[i]] == component[v]) {
        hops[component[v]] |= static_cast<u8>(1u << graph.hops[i]);
      }
    }
  }
  const u8 north_south = static_cast<u8>((1u << hop_of(Dir::North)) |
                                         (1u << hop_of(Dir::South)));
  const u8 east_west = static_cast<u8>((1u << hop_of(Dir::East)) |
                                       (1u << hop_of(Dir::West)));
  for (const u8 seen : hops) {
    if ((seen & north_south) == north_south ||
        (seen & east_west) == east_west) {
      return true;
    }
  }
  const Csr still = make_csr(graph.size(), [&](usize v, auto&& push) {
    for (usize i = graph.offsets[v]; i < graph.offsets[v + 1]; ++i) {
      if (graph.hops[i] == kNoHop &&
          component[graph.targets[i]] == component[v]) {
        push(graph.targets[i], kNoHop);
      }
    }
  });
  return !postorder(still, all).has_value();
}

[[nodiscard]] u64 saturating_add(u64 a, u64 b) noexcept {
  return a > std::numeric_limits<u64>::max() - b
             ? std::numeric_limits<u64>::max()
             : a + b;
}

/// The quotient of the fabric by its PE classes, and the checks on it.
class Quotient {
 public:
  /// `edges` holds every (class, direction, neighbor class) edge once,
  /// encoded by edge_code.
  Quotient(std::vector<PeFacts> classes, const std::vector<u64>& edges)
      : classes_(std::move(classes)), neighbors_(classes_.size()) {
    for (const u64 code : edges) {
      neighbors_[code >> 35][(code >> 32) & 7u].push_back(
          static_cast<u32>(code & 0xffffffffu));
    }
    for (u8 c = 0; c < kColors; ++c) {
      ColorGraph& graph = colors_[c];
      for (usize k = 0; k < classes_.size(); ++k) {
        if (const wse::ColorConfig* table = classes_[k].tables[c]) {
          graph.words.resize(node_count(), 0);
          pack_words(*table, &graph.words[k * kLinks]);
        }
      }
      if (graph.words.empty()) {
        continue;
      }
      graph.edges = make_csr(node_count(), [&](usize n, auto&& push) {
        each_output(graph.words[n], [&](Dir out) {
          if (out == Dir::Ramp) {
            return;
          }
          for (const u32 d : neighbors_[n / kLinks][static_cast<usize>(out)]) {
            push(node(d, wse::opposite(out)), hop_of(out));
          }
        });
      });
    }
  }

  [[nodiscard]] bool holds(const Options& options, u64 depth) const {
    if (options.check_reconfiguration && reconfigured()) {
      return false;
    }
    if (!options.check_routing && !options.check_flow) {
      return true;
    }
    if (std::any_of(colors_.begin(), colors_.end(), [](const ColorGraph& g) {
          return !g.words.empty() && may_close_on_fabric(g.edges);
        })) {
      return false;
    }
    if (options.check_routing &&
        (has_dead_end() || has_unrouted_send() || has_unhandled_delivery())) {
      return false;
    }
    return !options.check_flow ||
           (max_occupancy() <= depth && !has_order_sensitive_fold() &&
            !has_wait_cycle());
  }

 private:
  struct ColorGraph {
    /// Routing word per (class, input) node; empty when no class
    /// configures the color.
    std::vector<u32> words;
    /// Where a node's traffic goes.
    Csr edges;

    [[nodiscard]] u32 word(usize n) const noexcept {
      return words.empty() ? 0u : words[n];
    }
  };

  [[nodiscard]] usize node_count() const noexcept {
    return classes_.size() * kLinks;
  }
  [[nodiscard]] static usize node(usize k, Dir input) noexcept {
    return k * kLinks + static_cast<usize>(input);
  }

  /// Invokes fn(class, node) for every node that forwards into node `n`
  /// at some PE of n's class, grouped by the upstream neighbor's class.
  /// A Ramp input is fed only by its own PE's injection.
  template <typename Fn>
  void each_predecessor(const ColorGraph& graph, usize n, Fn&& fn) const {
    const auto input = static_cast<Dir>(n % kLinks);
    if (input == Dir::Ramp) {
      return;
    }
    const Dir toward = wse::opposite(input);
    for (const u32 c : neighbors_[n / kLinks][static_cast<usize>(input)]) {
      for (usize in = 0; in < kLinks; ++in) {
        const usize p = node(c, static_cast<Dir>(in));
        if (has_output(graph.word(p), toward)) {
          fn(c, p);
        }
      }
    }
  }

  [[nodiscard]] bool reconfigured() const {
    return std::any_of(classes_.begin(), classes_.end(), [](const PeFacts& k) {
      return std::any_of(k.configure_counts.begin(), k.configure_counts.end(),
                         [](u8 count) { return count > 1; });
    });
  }

  /// Traffic routed into an input no switch position there accepts.
  [[nodiscard]] bool has_dead_end() const {
    for (const ColorGraph& graph : colors_) {
      for (const usize t : graph.edges.targets) {
        if (!accepts(graph.word(t))) {
          return true;
        }
      }
    }
    return false;
  }

  /// A declared send whose Ramp no switch position of the color accepts.
  [[nodiscard]] bool has_unrouted_send() const {
    for (usize k = 0; k < classes_.size(); ++k) {
      const u32 sends = classes_[k].data_sends | classes_[k].control_sends;
      for (u8 c = 0; c < kColors; ++c) {
        if ((sends & color_bit(Color{c})) != 0 &&
            !accepts(colors_[c].word(node(k, Dir::Ramp)))) {
          return true;
        }
      }
    }
    return false;
  }

  /// A Ramp reachable from a declared sender over accepting inputs whose
  /// program does not handle the color.
  [[nodiscard]] bool has_unhandled_delivery() const {
    for (u8 c = 0; c < kColors; ++c) {
      const ColorGraph& graph = colors_[c];
      if (graph.words.empty()) {
        continue;
      }
      const u32 bit = color_bit(Color{c});
      for (const bool control : {false, true}) {
        std::vector<usize> frontier;
        std::vector<bool> visited;
        for (usize k = 0; k < classes_.size(); ++k) {
          const u32 sends =
              control ? classes_[k].control_sends : classes_[k].data_sends;
          const usize n = node(k, Dir::Ramp);
          if ((sends & bit) != 0 && accepts(graph.words[n])) {
            visited.resize(node_count(), false);
            visited[n] = true;
            frontier.push_back(n);
          }
        }
        while (!frontier.empty()) {
          const usize n = frontier.back();
          frontier.pop_back();
          const PeFacts& target = classes_[n / kLinks];
          const u32 handled =
              control ? target.handles_control : target.handles_data;
          if (has_output(graph.words[n], Dir::Ramp) && target.loaded &&
              (handled & bit) == 0) {
            return true;
          }
          graph.edges.each_successor(n, [&](usize t) {
            if (!visited[t] && accepts(graph.words[t])) {
              visited[t] = true;
              frontier.push_back(t);
            }
          });
        }
      }
    }
    return false;
  }

  /// Per node that leads into `targets`: a bound, valid at every PE of
  /// the node's class, on the declared senders whose traffic can visit
  /// that node, each counted with init(its class). A sender reaches a
  /// link input only through the upstream neighbor, whose class is one
  /// of the recorded alternatives: the bound sums over the neighbor's
  /// forwarding inputs and takes the largest alternative. nullopt when
  /// the nodes leading into `targets` include a quotient cycle.
  template <typename InitFn>
  [[nodiscard]] std::optional<std::vector<u64>> sender_bounds(
      const ColorGraph& graph, const std::vector<usize>& targets,
      InitFn&& init) const {
    const Csr sources = make_csr(node_count(), [&](usize n, auto&& push) {
      each_predecessor(graph, n, [&](u32, usize p) { push(p, kNoHop); });
    });
    const std::optional<std::vector<usize>> order =
        postorder(sources, targets);
    if (!order.has_value()) {
      return std::nullopt;
    }
    std::vector<u64> bound(node_count(), 0);
    for (const usize n : *order) {
      if (static_cast<Dir>(n % kLinks) == Dir::Ramp) {
        bound[n] = init(classes_[n / kLinks]);
        continue;
      }
      u64 best = 0;
      u64 sum = 0;
      u32 alternative = std::numeric_limits<u32>::max();
      each_predecessor(graph, n, [&](u32 c, usize p) {
        if (c != alternative) {
          best = std::max(best, sum);
          sum = 0;
          alternative = c;
        }
        sum = saturating_add(sum, bound[p]);
      });
      bound[n] = std::max(best, sum);
    }
    return bound;
  }

  /// A bound on the worst-case router input-buffer occupancy of any PE:
  /// per class, the in-flight-weighted sender bounds of its parkable
  /// nodes, over every color.
  [[nodiscard]] u64 max_occupancy() const {
    std::vector<u64> occupancy(classes_.size(), 0);
    for (u8 c = 0; c < kColors; ++c) {
      const ColorGraph& graph = colors_[c];
      std::vector<usize> parkable_nodes;
      for (usize n = 0; n < graph.words.size(); ++n) {
        if (parkable(graph.words[n])) {
          parkable_nodes.push_back(n);
        }
      }
      if (parkable_nodes.empty()) {
        continue;
      }
      const std::optional<std::vector<u64>> blocks = sender_bounds(
          graph, parkable_nodes,
          [c](const PeFacts& k) { return k.in_flight[c]; });
      if (!blocks.has_value()) {
        return std::numeric_limits<u64>::max();
      }
      for (const usize n : parkable_nodes) {
        occupancy[n / kLinks] =
            saturating_add(occupancy[n / kLinks], (*blocks)[n]);
      }
    }
    return occupancy.empty()
               ? 0
               : *std::max_element(occupancy.begin(), occupancy.end());
  }

  /// An arrival-order fold that two or more declared data senders might
  /// reach: per fold, the sender bounds of its class's Ramp-delivering
  /// nodes, summed over the fold's colors.
  [[nodiscard]] bool has_order_sensitive_fold() const {
    for (usize k = 0; k < classes_.size(); ++k) {
      const std::vector<u32>& folds = classes_[k].folds;
      for (usize i = 0; i < folds.size(); i += folds[i] + 1) {
        u64 reaching = 0;
        for (usize j = 1; j <= folds[i]; ++j) {
          const std::optional<u64> senders =
              senders_delivering(k, folds[i + j]);
          if (!senders.has_value()) {
            return true;
          }
          reaching = saturating_add(reaching, *senders);
        }
        if (reaching >= 2) {
          return true;
        }
      }
    }
    return false;
  }

  /// A bound on the declared data senders of color `c` that can reach the
  /// Ramp of a PE of class `k`; nullopt when it is not finite.
  [[nodiscard]] std::optional<u64> senders_delivering(usize k, u32 c) const {
    const ColorGraph& graph = colors_[c];
    std::vector<usize> delivering;
    for (usize in = 0; in < kLinks; ++in) {
      const usize n = node(k, static_cast<Dir>(in));
      if (has_output(graph.word(n), Dir::Ramp)) {
        delivering.push_back(n);
      }
    }
    const u32 bit = color_bit(Color{static_cast<u8>(c)});
    const std::optional<std::vector<u64>> senders =
        sender_bounds(graph, delivering, [bit](const PeFacts& sender) {
          return (sender.data_sends & bit) != 0 ? u64{1} : u64{0};
        });
    if (!senders.has_value()) {
      return std::nullopt;
    }
    u64 total = 0;
    for (const usize n : delivering) {
      total = saturating_add(total, (*senders)[n]);
    }
    return total;
  }

  /// Whether the quotient of lint's cross-color wait-for graph (see
  /// flow.cpp, WaitForGraph) might close a cycle on the fabric: routing
  /// nodes per (dependency color, node), then one obligation node per
  /// (dependency color, class). A routing node waits on its upstream
  /// neighbor (one hop), a Ramp on its own PE's send and a send on its
  /// prerequisite's deliveries (no hop).
  [[nodiscard]] bool has_wait_cycle() const {
    std::array<usize, kColors> slot_of{};
    slot_of.fill(kColors);
    std::vector<u8> dep_colors;
    for (const PeFacts& k : classes_) {
      for (const wse::ChannelDependency& dep : k.dependencies) {
        for (const Color c : {dep.prerequisite, dep.dependent}) {
          if (slot_of[c.id()] == kColors) {
            slot_of[c.id()] = dep_colors.size();
            dep_colors.push_back(c.id());
          }
        }
      }
    }
    if (dep_colors.empty()) {
      return false;
    }
    const usize routing_nodes = dep_colors.size() * node_count();
    const Csr wait = make_csr(
        routing_nodes + dep_colors.size() * classes_.size(),
        [&](usize n, auto&& push) {
          if (n >= routing_nodes) {
            const usize slot = (n - routing_nodes) / classes_.size();
            const usize k = (n - routing_nodes) % classes_.size();
            for (const wse::ChannelDependency& dep :
                 classes_[k].dependencies) {
              if (dep.dependent.id() != dep_colors[slot]) {
                continue;
              }
              const usize pre = slot_of[dep.prerequisite.id()];
              const ColorGraph& graph = colors_[dep_colors[pre]];
              for (usize in = 0; in < kLinks; ++in) {
                const usize at = node(k, static_cast<Dir>(in));
                if (static_cast<Dir>(in) != Dir::Ramp &&
                    has_output(graph.word(at), Dir::Ramp)) {
                  push(pre * node_count() + at, kNoHop);
                }
              }
            }
            return;
          }
          const usize slot = n / node_count();
          const usize local = n % node_count();
          const u8 c = dep_colors[slot];
          if (static_cast<Dir>(local % kLinks) == Dir::Ramp) {
            const PeFacts& k = classes_[local / kLinks];
            if (((k.data_sends | k.control_sends) & color_bit(Color{c})) !=
                0) {
              push(routing_nodes + slot * classes_.size() + local / kLinks,
                   kNoHop);
            }
            return;
          }
          const auto input = static_cast<Dir>(local % kLinks);
          each_predecessor(colors_[c], local, [&](u32, usize p) {
            push(slot * node_count() + p, hop_of(input));
          });
        });
    return may_close_on_fabric(wait);
  }

  std::vector<PeFacts> classes_;
  /// [class][fabric direction]: the neighbor classes, ascending.
  std::vector<std::array<std::vector<u32>, wse::kFabricDirCount>> neighbors_;
  std::array<ColorGraph, kColors> colors_;
};

[[nodiscard]] u64 edge_code(u32 from, Dir dir, u32 to) noexcept {
  return (u64{from} << 35) | (u64{static_cast<u32>(dir)} << 32) | u64{to};
}

}  // namespace

ClassCertificate certify(const wse::Fabric& fabric, const Options& options,
                         ThreadPool& pool) {
  const auto height = static_cast<usize>(fabric.height());
  const i32 width = fabric.width();

  // Pass 1, per row: each PE's facts, interned into row-local classes.
  std::vector<RowClasses> rows(height);
  pool.run_indexed(fabric.height(), [&](i64 row) {
    const auto y = static_cast<i32>(row);
    RowClasses& classes = rows[static_cast<usize>(row)];
    classes.local.resize(static_cast<usize>(width));
    std::unordered_map<std::string, u32> ids;
    PeFacts facts;
    std::vector<wse::SendDeclaration> sends;
    std::string key;
    for (i32 x = 0; x < width; ++x) {
      facts.gather(fabric.router(x, y), fabric.pe(x, y).program(), sends);
      facts.write_key(key);
      const auto [it, inserted] =
          ids.try_emplace(key, static_cast<u32>(classes.keys.size()));
      if (inserted) {
        classes.keys.push_back(key);
        classes.facts.push_back(facts);
      }
      classes.local[static_cast<usize>(x)] = it->second;
    }
  });

  // Merge in row order, so class ids follow raster order.
  std::unordered_map<std::string, u32> ids;
  std::vector<PeFacts> classes;
  std::vector<std::vector<u32>> global(height);
  for (usize y = 0; y < height; ++y) {
    RowClasses& row = rows[y];
    for (usize l = 0; l < row.keys.size(); ++l) {
      const auto [it, inserted] = ids.try_emplace(
          std::move(row.keys[l]), static_cast<u32>(classes.size()));
      if (inserted) {
        classes.push_back(std::move(row.facts[l]));
      }
      global[y].push_back(it->second);
    }
  }

  // Pass 2, per row: the (class, direction, neighbor class) edges.
  const auto class_at = [&](i32 x, i32 y) {
    const auto row = static_cast<usize>(y);
    return global[row][rows[row].local[static_cast<usize>(x)]];
  };
  std::vector<std::vector<u64>> row_edges(height);
  pool.run_indexed(fabric.height(), [&](i64 row) {
    const auto y = static_cast<i32>(row);
    std::vector<u64>& edges = row_edges[static_cast<usize>(row)];
    // Runs of one class repeat their edges; push only a change.
    std::array<u64, wse::kFabricDirCount> last{};
    last.fill(std::numeric_limits<u64>::max());
    for (i32 x = 0; x < width; ++x) {
      const u32 from = class_at(x, y);
      for (usize d = 0; d < wse::kFabricDirCount; ++d) {
        const Dir dir = wse::kFabricDirs[d];
        const Coord2 off = wse::dir_offset(dir);
        const Coord2 to{x + off.x, y + off.y};
        if (to.x < 0 || to.x >= width || to.y < 0 || to.y >= fabric.height()) {
          continue;  // the wafer edge absorbs what leaves it
        }
        const u64 code = edge_code(from, dir, class_at(to.x, to.y));
        if (code != last[d]) {
          edges.push_back(code);
          last[d] = code;
        }
      }
    }
    std::sort(edges.begin(), edges.end());
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  });
  std::vector<u64> edges;
  for (const std::vector<u64>& row : row_edges) {
    edges.insert(edges.end(), row.begin(), row.end());
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());

  ClassCertificate certificate;
  certificate.classes = classes.size();
  const u64 depth = options.router_buffer_depth != 0
                        ? options.router_buffer_depth
                        : fabric.execution().router_buffer_depth;
  Quotient quotient(std::move(classes), edges);
  certificate.holds = quotient.holds(options, depth);
  return certificate;
}

ClassCertificate certify(const wse::Fabric& fabric, const Options& options) {
  ThreadPool pool(fabric.host_threads());
  return certify(fabric, options, pool);
}

}  // namespace fvf::lint::detail
