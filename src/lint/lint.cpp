#include "lint/lint.hpp"

#include <algorithm>
#include <array>
#include <exception>
#include <iterator>
#include <map>
#include <optional>
#include <sstream>
#include <string_view>
#include <utility>

#include "common/assert.hpp"
#include "common/thread_pool.hpp"
#include "lint/class_certificate.hpp"
#include "lint/flow.hpp"
#include "lint/routing_index.hpp"
#include "wse/memory.hpp"
#include "wse/program.hpp"
#include "wse/router.hpp"

namespace fvf::lint {

namespace {

using detail::ColorRoutes;
using detail::long_dir_name;
using detail::RoutingIndex;
using wse::Color;
using wse::Dir;

void add(std::vector<Diagnostic>& found, Check check, Severity severity,
         Coord2 pe, std::optional<Color> color, std::string message) {
  found.push_back(Diagnostic{check, severity, pe, color, std::move(message)});
}

/// Budget of a probe ledger: large enough never to throw, so the probe
/// measures the whole declaration.
constexpr usize kProbeBudget = usize{1} << 40;

/// Share of the byte budget at which memory-near-limit fires.
constexpr f64 kMemoryWarnFraction = 0.9;

/// A probe ledger that also writes each reservation as "'tag' bytes",
/// comma-separated, for the over-budget diagnostic. Only the memory check
/// builds one, and only for a PE already found over its budget.
class RecordingLedger final : public wse::PeMemory {
 public:
  RecordingLedger() : PeMemory(kProbeBudget) {}

  [[nodiscard]] std::string text() const { return text_.str(); }

 private:
  void record(std::string_view tag, usize bytes) override {
    text_ << (first_ ? "" : ", ") << '\'' << tag << "' " << bytes;
    first_ = false;
  }

  std::ostringstream text_;
  bool first_ = true;
};

class Linter {
 public:
  /// `certified`: first try the class certificate, and skip the per-PE
  /// routing, reconfiguration and flow checks when it holds.
  Linter(const wse::Fabric& fabric, const Options& options, bool certified)
      : fabric_(fabric), options_(options), certified_(certified) {}

  /// Findings merge in one fixed order whatever the thread count: the
  /// claim audit, then per color its reconfiguration, dead-end, cycle and
  /// send findings, then the flow analyses, then memory.
  [[nodiscard]] Report run() {
    audit_claims();
    if (!options_.check_reconfiguration && !options_.check_routing &&
        !options_.check_flow && !options_.check_memory) {
      return std::move(report_);  // Level::Off: the claim audit alone
    }
    ThreadPool pool(fabric_.host_threads());
    if (certified_ && (options_.check_routing || options_.check_flow) &&
        detail::certify(fabric_, options_, pool).holds) {
      // Proved once per PE class: no per-PE routing, reconfiguration or
      // flow check would report anything.
      if (options_.check_memory) {
        lint_memory(pool);
      }
      return std::move(report_);
    }
    std::optional<RoutingIndex> index;
    if (options_.check_routing || options_.check_flow) {
      index.emplace(fabric_, pool);
    }
    std::array<std::vector<Diagnostic>, Color::kMaxColors> per_color;
    pool.run_indexed(Color::kMaxColors, [&](i64 c) {
      const auto id = static_cast<u8>(c);
      lint_color(Color{id}, index.has_value() ? &*index : nullptr,
                 per_color[id]);
    });
    for (std::vector<Diagnostic>& found : per_color) {
      append(found);
    }
    if (options_.check_flow) {
      FlowOptions flow;
      flow.router_buffer_depth = options_.router_buffer_depth;
      flow.color_label = options_.color_label;
      // Occupancy bounds and wait-for reachability are meaningless on a
      // cyclic routing graph; the routing-cycle finding owns those
      // colors.
      flow.skip_colors = cyclic_colors_;
      detail::run_flow_checks(*index, flow, report_.diagnostics, pool);
    }
    if (options_.check_memory) {
      lint_memory(pool);
    }
    return std::move(report_);
  }

 private:
  [[nodiscard]] std::string label(Color color) const {
    if (options_.color_label != nullptr) {
      return options_.color_label(color);
    }
    std::ostringstream os;
    os << "color " << static_cast<int>(color.id());
    return os.str();
  }

  void append(std::vector<Diagnostic>& found) {
    report_.diagnostics.insert(report_.diagnostics.end(),
                               std::make_move_iterator(found.begin()),
                               std::make_move_iterator(found.end()));
  }

  /// The historic load-time route audit: every configured color must be
  /// claimed in the ColorPlan. Iteration order and message text are kept
  /// verbatim so FabricHarness can preserve its fail-fast contract.
  void audit_claims() {
    if (options_.color_claimed == nullptr) {
      return;
    }
    for (i32 y = 0; y < fabric_.height(); ++y) {
      for (i32 x = 0; x < fabric_.width(); ++x) {
        const wse::Router& router = fabric_.router(x, y);
        for (u8 c = 0; c < Color::kMaxColors; ++c) {
          const Color color{c};
          if (!router.configured(color) ||
              options_.color_claimed(color)) {
            continue;
          }
          std::ostringstream os;
          os << "router at PE(" << x << ',' << y << ") configures color "
             << static_cast<int>(c)
             << " which no component claimed in the ColorPlan";
          if (options_.color_map != nullptr) {
            os << '\n' << options_.color_map();
          }
          add(report_.diagnostics, Check::UnclaimedColor, Severity::Error,
              Coord2{x, y}, color, os.str());
        }
      }
    }
  }

  /// One color's findings, in report order. `index` is non-null whenever
  /// check_routing is on.
  void lint_color(Color color, const RoutingIndex* index,
                  std::vector<Diagnostic>& found) {
    if (options_.check_reconfiguration) {
      check_reconfiguration(color, found);
    }
    if (!options_.check_routing) {
      return;
    }
    const ColorRoutes routes = index->routes(color);
    // A color no router configures routes nowhere: only its declared
    // sends can be findings.
    if (routes.configured_anywhere()) {
      check_dead_ends(*index, routes, color, found);
      cyclic_colors_[color.id()] = check_cycles(*index, routes, color, found);
    }
    check_sends(*index, routes, color, found);
  }

  void check_reconfiguration(Color color,
                             std::vector<Diagnostic>& found) const {
    for (i32 y = 0; y < fabric_.height(); ++y) {
      for (i32 x = 0; x < fabric_.width(); ++x) {
        const u32 count = fabric_.router(x, y).configure_count(color);
        if (count <= 1) {
          continue;
        }
        std::ostringstream os;
        os << "router at PE(" << x << ',' << y << ") installed "
           << label(color) << ' '
           << (count == wse::Router::kMaxConfigureCount ? "at least " : "")
           << count
           << " times during load: a later component silently replaced the "
              "switch positions an earlier one planned its traffic on";
        add(found, Check::SwitchReconfigured, Severity::Error, Coord2{x, y},
            color, os.str());
      }
    }
  }

  /// Flags traffic routed into a router input that no switch position of
  /// the receiving PE accepts: such blocks wait in the input buffer
  /// forever (or fail the run outright when the color is unconfigured
  /// there). Off-fabric outputs are absorbed at the wafer edge by design
  /// and are never findings.
  void check_dead_ends(const RoutingIndex& index, ColorRoutes routes,
                       Color color, std::vector<Diagnostic>& found) const {
    std::vector<bool> reported(index.node_count(), false);
    for (usize n = 0; n < index.node_count(); ++n) {
      const u32 word = routes[n];
      if (detail::output_count(word) == 0) {
        continue;
      }
      const Coord2 pe = index.pe_of(n);
      detail::each_output(word, [&](Dir out) {
        if (out == Dir::Ramp) {
          return;
        }
        const usize target = index.arrival_node(pe, out);
        if (target == RoutingIndex::kNoNode) {
          return;  // absorbed at the wafer edge
        }
        const u32 arrival = routes[target];
        if (detail::accepts(arrival) || reported[target]) {
          return;
        }
        reported[target] = true;
        const Coord2 to = index.pe_of(target);
        std::ostringstream os;
        os << label(color) << " is routed from PE(" << pe.x << ',' << pe.y
           << ") into the " << long_dir_name(wse::opposite(out))
           << " input of PE(" << to.x << ',' << to.y << "), ";
        if (detail::configured(arrival)) {
          os << "which no switch position there accepts: blocks would "
                "wait in that router's input buffer forever";
        } else {
          os << "where the color is not configured at all: the run "
                "would fail at the first wavelet";
        }
        add(found, Check::DeadEnd, Severity::Error, to, color, os.str());
      });
    }
  }

  /// Depth-first search over the union routing graph; reports the first
  /// cycle found per color (one finding is enough to localize the knot).
  /// Each frame carries its node's routing word and the next output to
  /// try, so the walk allocates nothing beyond the marks and the stack.
  [[nodiscard]] bool check_cycles(const RoutingIndex& index,
                                  ColorRoutes routes, Color color,
                                  std::vector<Diagnostic>& found) const {
    enum class Mark : u8 { White, Gray, Black };
    std::vector<Mark> mark(index.node_count(), Mark::White);
    struct Frame {
      usize node = 0;
      u32 word = 0;
      u32 next = 0;
    };
    std::vector<Frame> stack;
    for (usize root = 0; root < index.node_count(); ++root) {
      if (mark[root] != Mark::White) {
        continue;
      }
      stack.push_back(Frame{root, routes[root], 0});
      mark[root] = Mark::Gray;
      while (!stack.empty()) {
        Frame& frame = stack.back();
        usize target = RoutingIndex::kNoNode;
        while (target == RoutingIndex::kNoNode &&
               frame.next < detail::output_count(frame.word)) {
          const Dir out = detail::output(frame.word, frame.next++);
          if (out != Dir::Ramp) {
            target = index.arrival_node(index.pe_of(frame.node), out);
          }
        }
        if (target == RoutingIndex::kNoNode) {
          mark[frame.node] = Mark::Black;
          stack.pop_back();
          continue;
        }
        if (mark[target] == Mark::Gray) {
          report_cycle(index, color, stack, target, found);
          return true;  // one cycle per color
        }
        if (mark[target] == Mark::White) {
          mark[target] = Mark::Gray;
          stack.push_back(Frame{target, routes[target], 0});
        }
      }
    }
    return false;
  }

  template <typename Frames>
  void report_cycle(const RoutingIndex& index, Color color,
                    const Frames& stack, usize back_to,
                    std::vector<Diagnostic>& found) const {
    // The cycle is the stack suffix starting at `back_to`.
    usize start = 0;
    for (usize i = 0; i < stack.size(); ++i) {
      if (stack[i].node == back_to) {
        start = i;
        break;
      }
    }
    std::ostringstream os;
    os << label(color) << " routing forms a cycle: ";
    for (usize i = start; i < stack.size(); ++i) {
      const Coord2 pe = index.pe_of(stack[i].node);
      os << "PE(" << pe.x << ',' << pe.y << ") -> ";
    }
    const Coord2 first = index.pe_of(back_to);
    os << "PE(" << first.x << ',' << first.y
       << "); wavelets entering it would circulate forever (deadlock)";
    add(found, Check::RoutingCycle, Severity::Error, first, color, os.str());
  }

  /// Send-centric checks: every declared send must have a Ramp-accepting
  /// switch position at the sender (unrouted-send), and every PE whose
  /// Ramp the traffic can reach must handle the color
  /// (unhandled-delivery). Reachability runs over the union graph from
  /// all declared senders of each kind (data / control).
  void check_sends(const RoutingIndex& index, ColorRoutes routes, Color color,
                   std::vector<Diagnostic>& found) const {
    const u32 bit = detail::color_bit(color);
    std::vector<Coord2> data_senders;
    std::vector<Coord2> control_senders;
    for (usize p = 0; p < index.pe_count(); ++p) {
      const bool data = (index.data_sends(p) & bit) != 0;
      const bool control = (index.control_sends(p) & bit) != 0;
      if (!data && !control) {
        continue;
      }
      const Coord2 pe = index.pe_at(p);
      if (data) {
        data_senders.push_back(pe);
      }
      if (control) {
        control_senders.push_back(pe);
      }
      const u32 ramp = routes[index.node(pe, Dir::Ramp)];
      if (!detail::accepts(ramp)) {
        std::ostringstream os;
        os << "PE(" << pe.x << ',' << pe.y << ") declares a send on "
           << label(color);
        if (detail::configured(ramp)) {
          os << " but no switch position of that color accepts the Ramp: "
                "injected wavelets would never leave the PE";
        } else {
          os << " but the color is not configured on its router";
        }
        add(found, Check::UnroutedSend, Severity::Error, pe, color, os.str());
      }
    }
    check_deliveries(index, routes, color, data_senders, /*control=*/false,
                     found);
    check_deliveries(index, routes, color, control_senders, /*control=*/true,
                     found);
  }

  void check_deliveries(const RoutingIndex& index, ColorRoutes routes,
                        Color color, const std::vector<Coord2>& senders,
                        bool control, std::vector<Diagnostic>& found) const {
    // Multi-source search from every sender's Ramp injection point.
    std::vector<bool> visited(index.node_count(), false);
    std::vector<usize> frontier;
    for (const Coord2 pe : senders) {
      const usize n = index.node(pe, Dir::Ramp);
      if (detail::accepts(routes[n]) && !visited[n]) {
        visited[n] = true;
        frontier.push_back(n);
      }
    }
    if (frontier.empty()) {
      return;
    }
    std::vector<bool> delivered(index.pe_count(), false);
    while (!frontier.empty()) {
      const usize n = frontier.back();
      frontier.pop_back();
      const Coord2 pe = index.pe_of(n);
      detail::each_output(routes[n], [&](Dir out) {
        if (out == Dir::Ramp) {
          delivered[n / wse::kLinkCount] = true;
          return;
        }
        const usize t = index.arrival_node(pe, out);
        if (t != RoutingIndex::kNoNode && !visited[t] &&
            detail::accepts(routes[t])) {
          visited[t] = true;
          frontier.push_back(t);
        }
      });
    }
    for (usize p = 0; p < index.pe_count(); ++p) {
      if (!delivered[p]) {
        continue;
      }
      const Coord2 pe = index.pe_at(p);
      const wse::PeProgram* program = fabric_.pe(pe.x, pe.y).program();
      if (program == nullptr || program->handles_color(color, control)) {
        continue;
      }
      std::ostringstream os;
      os << label(color) << ' '
         << (control ? "control wavelets" : "data blocks")
         << " can reach the Ramp of PE(" << pe.x << ',' << pe.y
         << "), whose program does not handle that color";
      add(found, Check::UnhandledDelivery, Severity::Error, pe, color,
          os.str());
    }
  }

  /// One PE's memory finding before aggregation: `text` is the message
  /// after the "PE(x,y) " it opens with.
  struct MemoryFinding {
    Check check{};
    Severity severity = Severity::Error;
    Coord2 pe{};
    std::string text;
  };

  /// Probes every PE's reserve_memory declaration, one fabric row per pool
  /// task. A throwing probe fails the run with the first failure in raster
  /// order, as a serial sweep would. Identical near-limit
  /// warnings (same footprint and budget) are reported once, at the first
  /// PE in raster order, with the count of PEs they stand for: a uniform
  /// program near its limit is one warning, not one per PE. Over-budget
  /// errors stay one per PE.
  void lint_memory(ThreadPool& pool) {
    const auto rows = static_cast<usize>(fabric_.height());
    std::vector<std::vector<MemoryFinding>> per_row(rows);
    std::vector<std::exception_ptr> failures(rows);
    pool.run_indexed(fabric_.height(), [&](i64 row) {
      const auto r = static_cast<usize>(row);
      try {
        probe_row(static_cast<i32>(row), per_row[r]);
      } catch (...) {
        failures[r] = std::current_exception();
      }
    });
    std::vector<MemoryFinding> unique;
    std::vector<u64> counts;
    std::map<std::string, usize> seen;
    for (usize r = 0; r < rows; ++r) {
      if (failures[r] != nullptr) {
        std::rethrow_exception(failures[r]);
      }
      for (MemoryFinding& finding : per_row[r]) {
        if (finding.check == Check::MemoryNearLimit) {
          const auto [it, inserted] =
              seen.try_emplace(finding.text, unique.size());
          if (!inserted) {
            ++counts[it->second];
            continue;
          }
        }
        unique.push_back(std::move(finding));
        counts.push_back(1);
      }
    }
    std::vector<Diagnostic> found;
    for (usize i = 0; i < unique.size(); ++i) {
      MemoryFinding& finding = unique[i];
      std::ostringstream os;
      os << "PE(" << finding.pe.x << ',' << finding.pe.y << ") "
         << finding.text;
      if (counts[i] > 1) {
        os << " (and " << counts[i] - 1 << " more PEs with the same "
           << "declaration)";
      }
      add(found, finding.check, finding.severity, finding.pe, std::nullopt,
          os.str());
      found.back().count = counts[i];
    }
    append(found);
  }

  void probe_row(i32 y, std::vector<MemoryFinding>& found) const {
    const Coord2 size{fabric_.width(), fabric_.height()};
    for (i32 x = 0; x < fabric_.width(); ++x) {
      const wse::PeProgram* program = fabric_.pe(x, y).program();
      std::unique_ptr<wse::PeProgram> built;
      if (options_.probe_factory != nullptr) {
        built = options_.probe_factory(Coord2{x, y}, size);
        FVF_REQUIRE_MSG(built != nullptr,
                        "lint probe factory returned no program for PE("
                            << x << ',' << y << ")");
        program = built.get();
      }
      if (program == nullptr) {
        continue;  // an unloaded PE declares nothing
      }
      // Probe ledger with an effectively unlimited budget: the point is
      // to *measure* the declaration, not to fail at the first excess
      // reserve (PeMemory throws on its own budget).
      wse::PeMemory probe(kProbeBudget);
      program->reserve_memory(probe);
      const usize used = probe.used();
      const usize budget = options_.memory_budget != 0
                               ? options_.memory_budget
                               : fabric_.pe(x, y).memory().budget();
      if (used > budget) {
        std::ostringstream os;
        os << "declares " << used
           << " bytes of static PE memory, exceeding the " << budget
           << "-byte budget by " << used - budget << " bytes (";
        // Declare again, this time keeping the per-tag breakdown.
        RecordingLedger breakdown;
        program->reserve_memory(breakdown);
        os << breakdown.text() << ')';
        found.push_back({Check::MemoryOverBudget, Severity::Error,
                         Coord2{x, y}, os.str()});
      } else if (static_cast<f64>(used) >=
                 kMemoryWarnFraction * static_cast<f64>(budget)) {
        std::ostringstream os;
        os << "declares " << used << " bytes of static PE memory, "
           << static_cast<int>(100.0 * static_cast<f64>(used) /
                               static_cast<f64>(budget))
           << "% of the " << budget << "-byte budget";
        found.push_back({Check::MemoryNearLimit, Severity::Warning,
                         Coord2{x, y}, os.str()});
      }
    }
  }

  const wse::Fabric& fabric_;
  const Options& options_;
  bool certified_;
  Report report_;
  /// Written by each color's task for its own entry only.
  std::array<bool, Color::kMaxColors> cyclic_colors_{};
};

}  // namespace

std::string_view check_name(Check check) noexcept {
  switch (check) {
    case Check::UnclaimedColor: return "unclaimed-color";
    case Check::SwitchReconfigured: return "switch-reconfigured";
    case Check::RoutingCycle: return "routing-cycle";
    case Check::DeadEnd: return "dead-end";
    case Check::UnroutedSend: return "unrouted-send";
    case Check::UnhandledDelivery: return "unhandled-delivery";
    case Check::MemoryOverBudget: return "memory-over-budget";
    case Check::MemoryNearLimit: return "memory-near-limit";
    case Check::BufferOverflowPossible: return "buffer-overflow-possible";
    case Check::CrossColorDeadlock: return "cross-color-deadlock";
    case Check::OrderSensitiveReduction: return "order-sensitive-reduction";
  }
  return "unknown";
}

usize Report::error_count() const noexcept {
  return static_cast<usize>(
      std::count_if(diagnostics.begin(), diagnostics.end(),
                    [](const Diagnostic& d) {
                      return d.severity == Severity::Error;
                    }));
}

usize Report::warning_count() const noexcept {
  return diagnostics.size() - error_count();
}

std::string Report::describe() const {
  std::ostringstream os;
  for (const Diagnostic& d : diagnostics) {
    os << (d.severity == Severity::Error ? "error" : "warning") << '['
       << check_name(d.check) << "] " << d.message << '\n';
  }
  return os.str();
}

Report run(const wse::Fabric& fabric, const Options& options) {
  Linter linter(fabric, options, /*certified=*/true);
  return linter.run();
}

Report detail::run_per_pe(const wse::Fabric& fabric, const Options& options) {
  Linter linter(fabric, options, /*certified=*/false);
  return linter.run();
}

}  // namespace fvf::lint
