/// \file defects.cpp
/// \brief The lint defect corpus (lint/defects.hpp), now generated from
///        `fvf::spec` where the diagnostic class has a spec-level cause.
///
/// Three corpus entries are deliberately-broken StencilSpecs lowered
/// through the real compiler — the same pipeline every shipped program
/// uses — so the corpus exercises lint on generated programs, not
/// hand-built lookalikes:
///
///   - unhandled-delivery: a switch-protocol spec whose East data
///     handler is dropped via DefectInjection;
///   - memory-over-budget / memory-near-limit: exchange-free specs whose
///     single declared field overshoots (or crowds) the PE budget.
///
/// The remaining five classes describe defects below the spec
/// abstraction (raw router misconfiguration, unclaimed colors, cycles),
/// which `spec::compile` makes unrepresentable — those fixtures stay
/// hand-seeded.
#include "lint/defects.hpp"

#include <memory>
#include <utility>

#include "spec/compile.hpp"
#include "spec/program.hpp"
#include "wse/fabric.hpp"
#include "wse/program.hpp"
#include "wse/route.hpp"
#include "wse/router.hpp"

namespace fvf::lint {

namespace {

using wse::Color;
using wse::ColorConfig;
using wse::Dir;
using wse::position;
using wse::RouteRule;
using wse::SwitchPosition;

/// Every hand-seeded fixture runs on one color; the choice is arbitrary.
constexpr Color kColor{0};

/// Per-PE behaviour of a hand-seeded fixture, driven entirely by data so
/// each defect is a handful of lines.
struct FixtureSpec {
  std::function<void(wse::Router&)> configure;
  std::vector<wse::SendDeclaration> sends;
  std::vector<wse::ChannelDependency> deps;
  std::vector<wse::ReductionDeclaration> reductions;
  bool handles = true;
};

class FixtureProgram final : public wse::PeProgram {
 public:
  explicit FixtureProgram(FixtureSpec spec) : spec_(std::move(spec)) {}

  void configure_router(wse::Router& router) override {
    if (spec_.configure != nullptr) {
      spec_.configure(router);
    }
  }
  void reserve_memory(wse::PeMemory&) const override {}
  [[nodiscard]] bool handles_color(Color, bool) const override {
    return spec_.handles;
  }
  void send_declarations(
      std::vector<wse::SendDeclaration>& sends) const override {
    sends.insert(sends.end(), spec_.sends.begin(), spec_.sends.end());
  }
  void channel_dependencies(
      std::vector<wse::ChannelDependency>& deps) const override {
    deps.insert(deps.end(), spec_.deps.begin(), spec_.deps.end());
  }
  [[nodiscard]] std::vector<wse::ReductionDeclaration> reduction_declarations()
      const override {
    return spec_.reductions;
  }
  void on_start(wse::PeApi&) override {}
  void on_data(wse::PeApi&, Color, Dir, std::span<const u32>) override {}

 private:
  FixtureSpec spec_;
};

/// Builds a width x height fabric whose PE programs come from `spec_of`,
/// loads it, and hands it to `visit`.
[[nodiscard]] Report lint_fixture(
    const FixtureVisitor& visit, i32 width, i32 height,
    const std::function<FixtureSpec(Coord2)>& spec_of,
    const std::function<void(Options&)>& tweak = nullptr) {
  wse::Fabric fabric(width, height);
  fabric.load([&spec_of](Coord2 coord, Coord2) {
    return std::make_unique<FixtureProgram>(spec_of(coord));
  });
  Options options;
  if (tweak != nullptr) {
    tweak(options);
  }
  return visit(fabric, options);
}

/// Compiles a (deliberately broken) StencilSpec and hands the generated
/// program, loaded on a width x height fabric, to `visit` — the corpus
/// path for defects that exist at the spec level. Programs are loaded
/// kernel-less: lint only inspects structure, never runs physics.
[[nodiscard]] Report lint_spec_fixture(
    const FixtureVisitor& visit, spec::StencilSpec broken, i32 width,
    i32 height, i32 nz,
    const std::function<void(Options&)>& tweak = nullptr) {
  const auto compiled = std::make_shared<const spec::CompiledSpec>(
      spec::compile(std::move(broken)));
  wse::Fabric fabric(width, height);
  fabric.load([&compiled, nz](Coord2 coord, Coord2 fabric_size) {
    return std::make_unique<spec::SpecPeProgram>(
        coord, fabric_size, nz, compiled,
        spec::SpecPeProgram::LaunchBindings{}, nullptr);
  });
  Options options;
  if (tweak != nullptr) {
    tweak(options);
  }
  return visit(fabric, options);
}

[[nodiscard]] ColorConfig single(SwitchPosition pos) {
  std::vector<SwitchPosition> positions;
  positions.push_back(std::move(pos));
  return ColorConfig(std::move(positions));
}

/// unclaimed-color: a router configures kColor, but the claim oracle says
/// no component owns it.
[[nodiscard]] Report lint_unclaimed_color(const FixtureVisitor& visit) {
  return lint_fixture(
      visit, 1, 1,
      [](Coord2) {
        FixtureSpec spec;
        spec.configure = [](wse::Router& router) {
          router.configure(kColor, single(position(Dir::Ramp, {Dir::East})));
        };
        return spec;
      },
      [](Options& options) {
        options.color_claimed = [](Color) { return false; };
        options.color_map = [] {
          return std::string("  (no colors claimed: empty plan)");
        };
      });
}

/// switch-reconfigured: two components both install kColor on the same
/// router; the second silently replaces the first's position table.
[[nodiscard]] Report lint_switch_reconfigured(const FixtureVisitor& visit) {
  return lint_fixture(visit, 1, 1, [](Coord2) {
    FixtureSpec spec;
    spec.configure = [](wse::Router& router) {
      router.configure(kColor, single(position(Dir::Ramp, {Dir::East})));
      router.configure(kColor, single(position(Dir::Ramp, {Dir::North})));
    };
    return spec;
  });
}

/// routing-cycle: a 2x2 ring (0,0) -E-> (1,0) -N-> (1,1) -W-> (0,1) -S->
/// back to (0,0). A wavelet injected at (0,0) circulates forever.
[[nodiscard]] Report lint_routing_cycle(const FixtureVisitor& visit) {
  return lint_fixture(visit, 2, 2, [](Coord2 coord) {
    FixtureSpec spec;
    if (coord.x == 0 && coord.y == 0) {
      spec.sends = {{kColor, false}};
      spec.configure = [](wse::Router& router) {
        router.configure(kColor,
                         single(position({RouteRule{Dir::Ramp, {Dir::East}},
                                          RouteRule{Dir::North, {Dir::East}}})));
      };
    } else if (coord.x == 1 && coord.y == 0) {
      spec.configure = [](wse::Router& router) {
        router.configure(kColor, single(position(Dir::West, {Dir::North})));
      };
    } else if (coord.x == 1 && coord.y == 1) {
      spec.configure = [](wse::Router& router) {
        router.configure(kColor, single(position(Dir::South, {Dir::West})));
      };
    } else {
      spec.configure = [](wse::Router& router) {
        router.configure(kColor, single(position(Dir::East, {Dir::South})));
      };
    }
    return spec;
  });
}

/// dead-end: a 1x3 pipeline whose last PE only configures Ramp -> East;
/// blocks forwarded by the middle PE arrive on its West input, which no
/// switch position accepts — they would wait in the input buffer forever.
[[nodiscard]] Report lint_dead_end(const FixtureVisitor& visit) {
  return lint_fixture(visit, 3, 1, [](Coord2 coord) {
    FixtureSpec spec;
    if (coord.x == 0) {
      spec.sends = {{kColor, false}};
      spec.configure = [](wse::Router& router) {
        router.configure(kColor, single(position(Dir::Ramp, {Dir::East})));
      };
    } else if (coord.x == 1) {
      spec.configure = [](wse::Router& router) {
        router.configure(kColor, single(position(Dir::West, {Dir::East})));
      };
    } else {
      spec.configure = [](wse::Router& router) {
        router.configure(kColor, single(position(Dir::Ramp, {Dir::East})));
      };
    }
    return spec;
  });
}

/// unrouted-send: the program declares a send on kColor, but no switch
/// position of that color accepts the Ramp — injected wavelets would
/// never leave the PE.
[[nodiscard]] Report lint_unrouted_send(const FixtureVisitor& visit) {
  return lint_fixture(visit, 2, 1, [](Coord2 coord) {
    FixtureSpec spec;
    if (coord.x == 0) {
      spec.sends = {{kColor, false}};
      spec.configure = [](wse::Router& router) {
        router.configure(kColor, single(position(Dir::West, {Dir::Ramp})));
      };
    }
    return spec;
  });
}

/// unhandled-delivery: a compiled switch-protocol spec whose East data
/// handler is dropped (DefectInjection) — traffic is still routed and
/// declared, so exactly the delivery check fires, at the downstream PE.
[[nodiscard]] Report lint_unhandled_delivery(const FixtureVisitor& visit) {
  spec::StencilSpec broken;
  broken.name = "unhandled-delivery fixture";
  broken.exchange = spec::ExchangeKind::SwitchProtocol;
  broken.shape = spec::StencilShape::FivePoint;
  broken.block_words_per_cell = 2;
  broken.fields = {
      {"cardinal recv buffers", spec::FieldRole::CardinalRecv, 8, 0},
      {"diagonal recv buffers", spec::FieldRole::DiagonalRecv, 8, 0},
  };
  broken.defects.drop_east_data_handler = true;
  return lint_spec_fixture(visit, std::move(broken), 2, 1, 1);
}

/// memory-over-budget: a compiled spec declaring a 64 KiB field against
/// the 48 KiB WSE-2 PE budget.
[[nodiscard]] Report lint_memory_over_budget(const FixtureVisitor& visit) {
  spec::StencilSpec broken;
  broken.name = "memory-over-budget fixture";
  broken.exchange = spec::ExchangeKind::None;
  broken.fields = {{"fixture payload", spec::FieldRole::State, 16384, 0}};
  return lint_spec_fixture(visit, std::move(broken), 1, 1, 1,
                           [](Options& options) {
                             options.memory_budget =
                                 wse::PeMemory::kDefaultBudget;
                           });
}

/// memory-near-limit: 47 KiB of the 48 KiB budget — legal, but within
/// the default 90% warning fraction.
[[nodiscard]] Report lint_memory_near_limit(const FixtureVisitor& visit) {
  spec::StencilSpec broken;
  broken.name = "memory-near-limit fixture";
  broken.exchange = spec::ExchangeKind::None;
  broken.fields = {{"fixture payload", spec::FieldRole::State, 12032, 0}};
  return lint_spec_fixture(visit, std::move(broken), 1, 1, 1,
                           [](Options& options) {
                             options.memory_budget =
                                 wse::PeMemory::kDefaultBudget;
                           });
}

/// buffer-overflow-possible: the sender declares 96 blocks in flight on a
/// color whose receiving switch only accepts West in one of its two
/// positions — with the switch parked on the other position, all 96 blocks
/// queue in the West input buffer, past the default depth of 64.
[[nodiscard]] Report lint_buffer_overflow_possible(
    const FixtureVisitor& visit) {
  return lint_fixture(visit, 2, 1, [](Coord2 coord) {
    FixtureSpec spec;
    if (coord.x == 0) {
      spec.sends = {{kColor, false, 96}};
      spec.configure = [](wse::Router& router) {
        router.configure(kColor, single(position(Dir::Ramp, {Dir::East})));
      };
    } else {
      spec.configure = [](wse::Router& router) {
        router.configure(
            kColor,
            ColorConfig({position(Dir::West, {Dir::Ramp}),
                         position(Dir::East, {Dir::Ramp})}));
      };
    }
    return spec;
  });
}

/// cross-color-deadlock: two PEs with mutually-blocking send orderings.
/// (0,0) sends color 0 east only after color 1 arrives; (1,0) sends
/// color 1 west only after color 0 arrives. Neither send can ever start.
constexpr Color kEastbound{0};
constexpr Color kWestbound{1};

[[nodiscard]] Report lint_cross_color_deadlock(const FixtureVisitor& visit) {
  return lint_fixture(visit, 2, 1, [](Coord2 coord) {
    FixtureSpec spec;
    if (coord.x == 0) {
      spec.sends = {{kEastbound, false}};
      spec.deps = {{kWestbound, kEastbound}};
      spec.configure = [](wse::Router& router) {
        router.configure(kEastbound,
                         single(position(Dir::Ramp, {Dir::East})));
        router.configure(kWestbound,
                         single(position(Dir::East, {Dir::Ramp})));
      };
    } else {
      spec.sends = {{kWestbound, false}};
      spec.deps = {{kEastbound, kWestbound}};
      spec.configure = [](wse::Router& router) {
        router.configure(kWestbound,
                         single(position(Dir::Ramp, {Dir::West})));
        router.configure(kEastbound,
                         single(position(Dir::West, {Dir::Ramp})));
      };
    }
    return spec;
  });
}

/// order-sensitive-reduction: the middle PE of a 1x3 row folds kColor in
/// arrival order while both neighbors send toward it — the routing plan
/// does not pin which block lands first, so the f32 result is
/// interleaving-dependent.
[[nodiscard]] Report lint_order_sensitive_reduction(
    const FixtureVisitor& visit) {
  return lint_fixture(visit, 3, 1, [](Coord2 coord) {
    FixtureSpec spec;
    if (coord.x == 0) {
      spec.sends = {{kColor, false}};
      spec.configure = [](wse::Router& router) {
        router.configure(kColor, single(position(Dir::Ramp, {Dir::East})));
      };
    } else if (coord.x == 2) {
      spec.sends = {{kColor, false}};
      spec.configure = [](wse::Router& router) {
        router.configure(kColor, single(position(Dir::Ramp, {Dir::West})));
      };
    } else {
      spec.reductions = {{{kColor}, true, "fixture accumulator"}};
      spec.configure = [](wse::Router& router) {
        router.configure(
            kColor,
            single(position({RouteRule{Dir::West, {Dir::Ramp}},
                             RouteRule{Dir::East, {Dir::Ramp}}})));
      };
    }
    return spec;
  });
}

}  // namespace

const std::vector<Defect>& defect_corpus() {
  static const std::vector<Defect> corpus = {
      {"unclaimed-color", Check::UnclaimedColor,
       "router configures a color no component claimed in the ColorPlan",
       lint_unclaimed_color},
      {"switch-reconfigured", Check::SwitchReconfigured,
       "two components install the same color's switch positions",
       lint_switch_reconfigured},
      {"routing-cycle", Check::RoutingCycle,
       "2x2 routing ring: injected wavelets circulate forever",
       lint_routing_cycle},
      {"dead-end", Check::DeadEnd,
       "traffic routed into an input no switch position accepts",
       lint_dead_end},
      {"unrouted-send", Check::UnroutedSend,
       "declared send on a color that never accepts the Ramp",
       lint_unrouted_send},
      {"unhandled-delivery", Check::UnhandledDelivery,
       "compiled spec with its East data handler dropped: routed traffic "
       "reaches a PE that does not handle the color",
       lint_unhandled_delivery},
      {"memory-over-budget", Check::MemoryOverBudget,
       "compiled spec whose declared field exceeds the 48 KiB PE budget",
       lint_memory_over_budget},
      {"memory-near-limit", Check::MemoryNearLimit,
       "compiled spec whose declared field fills 90%+ of the PE budget",
       lint_memory_near_limit},
      {"buffer-overflow-possible", Check::BufferOverflowPossible,
       "declared in-flight blocks exceed the receiving router's input "
       "buffer depth under an adverse switch position",
       lint_buffer_overflow_possible},
      {"cross-color-deadlock", Check::CrossColorDeadlock,
       "two PEs whose declared send orderings wait on each other's colors",
       lint_cross_color_deadlock},
      {"order-sensitive-reduction", Check::OrderSensitiveReduction,
       "arrival-order f32 fold fed by two senders the routing plan does "
       "not sequence",
       lint_order_sensitive_reduction},
  };
  return corpus;
}

}  // namespace fvf::lint
