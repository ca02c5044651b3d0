// Tests of the wafer-scale-engine simulator itself: routing, switch
// positions, control wavelets, backpressure, DSD ops, memory accounting,
// and the timing model.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "wse/fabric.hpp"

namespace fvf::wse {
namespace {

constexpr Color kC0{0};
constexpr Color kC1{1};

/// A tiny configurable program for exercising the fabric.
class ScriptProgram : public PeProgram {
 public:
  std::function<void(Router&, Coord2)> configure;
  std::function<void(PeApi&)> start;
  std::function<void(PeApi&, Color, Dir, std::span<const u32>)> data;
  std::function<void(PeApi&, Color, Dir)> control;
  Coord2 coord{};

  void configure_router(Router& router) override {
    if (configure) {
      configure(router, coord);
    }
  }
  void on_start(PeApi& api) override {
    if (start) {
      start(api);
    } else {
      api.signal_done();
    }
  }
  void on_data(PeApi& api, Color c, Dir from,
               std::span<const u32> payload) override {
    if (data) {
      data(api, c, from, payload);
    }
  }
  void on_control(PeApi& api, Color c, Dir from) override {
    if (control) {
      control(api, c, from);
    }
  }
};

TEST(FabricTypesTest, OppositeDirs) {
  EXPECT_EQ(opposite(Dir::North), Dir::South);
  EXPECT_EQ(opposite(Dir::East), Dir::West);
  EXPECT_EQ(opposite(opposite(Dir::West)), Dir::West);
  EXPECT_EQ(opposite(Dir::Ramp), Dir::Ramp);
}

TEST(FabricTypesTest, PackUnpackF32RoundTrip) {
  for (const f32 v : {0.0f, -1.5f, 3.14159f, 1e-30f, -2.5e7f}) {
    EXPECT_EQ(unpack_f32(pack_f32(v)), v);
  }
}

TEST(ColorConfigTest, AdvanceWrapsAround) {
  RoutePool pool;
  Router router(pool);
  router.configure(kC0, ColorConfig({position(Dir::Ramp, {Dir::East}),
                                     position(Dir::West, {Dir::Ramp})}));
  EXPECT_EQ(router.current_position(kC0), 0u);
  router.advance_switch(kC0);
  EXPECT_EQ(router.current_position(kC0), 1u);
  router.advance_switch(kC0);
  EXPECT_EQ(router.current_position(kC0), 0u);
}

TEST(ColorConfigTest, RouteResolvesCurrentPositionOnly) {
  RoutePool pool;
  Router router(pool);
  router.configure(kC0, ColorConfig({position(Dir::Ramp, {Dir::East}),
                                     position(Dir::West, {Dir::Ramp})}));
  EXPECT_NE(router.route(kC0, Dir::Ramp), 0u);
  EXPECT_EQ(router.route(kC0, Dir::West), 0u);
  router.advance_switch(kC0);
  EXPECT_EQ(router.route(kC0, Dir::Ramp), 0u);
  EXPECT_NE(router.route(kC0, Dir::West), 0u);
}

bool same_positions(const std::vector<SwitchPosition>& a,
                    const std::vector<SwitchPosition>& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (usize p = 0; p < a.size(); ++p) {
    if (a[p].rules.size() != b[p].rules.size()) {
      return false;
    }
    for (usize r = 0; r < a[p].rules.size(); ++r) {
      if (a[p].rules[r].input != b[p].rules[r].input ||
          a[p].rules[r].outputs != b[p].rules[r].outputs) {
        return false;
      }
    }
  }
  return true;
}

TEST(ColorConfigTest, DecodedPositionsEqualTheBuilderInput) {
  // Rules listed in input-link order (the decoder's order), with fan-out,
  // an empty position and the full four positions.
  const std::vector<std::vector<SwitchPosition>> inputs = {
      {position(Dir::Ramp, {Dir::East})},
      {position({RouteRule{Dir::North, {Dir::Ramp, Dir::South}},
                 RouteRule{Dir::West, {Dir::Ramp}},
                 RouteRule{Dir::Ramp, {Dir::North, Dir::East, Dir::South,
                                       Dir::West}}}),
       position(Dir::East, {Dir::West})},
      {position(Dir::Ramp, {Dir::East}), SwitchPosition{},
       position(Dir::West, {Dir::Ramp}),
       position(Dir::South, {Dir::North, Dir::Ramp})},
  };
  for (const std::vector<SwitchPosition>& input : inputs) {
    const ColorConfig config(input);
    EXPECT_EQ(config.position_count(), input.size());
    EXPECT_TRUE(same_positions(config.decoded_positions(), input));
  }
}

TEST(ColorConfigTest, RejectsDuplicateInputs) {
  EXPECT_THROW(ColorConfig({position({RouteRule{Dir::Ramp, {Dir::East}},
                                      RouteRule{Dir::Ramp, {Dir::West}}})}),
               ContractViolation);
}

// --- interned switch tables ---------------------------------------------------

ColorConfig two_position_table() {
  return ColorConfig({position(Dir::Ramp, {Dir::East}),
                      position(Dir::West, {Dir::Ramp})});
}

TEST(RoutePoolTest, EqualConfigsShareOneTable) {
  Fabric fabric(2, 1);
  Router& a = fabric.router(0, 0);
  Router& b = fabric.router(1, 0);
  a.configure(kC0, two_position_table());
  b.configure(kC0, two_position_table());
  b.configure(kC1, two_position_table());
  EXPECT_EQ(&a.config(kC0), &b.config(kC0));
  EXPECT_EQ(&b.config(kC0), &b.config(kC1));
  a.configure(kC1, ColorConfig({position(Dir::Ramp, {Dir::West})}));
  EXPECT_NE(&a.config(kC1), &a.config(kC0));
  EXPECT_EQ(&a.config(Color{5}), &b.config(Color{7}))
      << "unconfigured colors share the empty table";
  EXPECT_FALSE(a.configured(Color{5}));
}

TEST(RoutePoolTest, AdvancingOneRouterLeavesTheOtherAlone) {
  Fabric fabric(2, 1);
  Router& a = fabric.router(0, 0);
  Router& b = fabric.router(1, 0);
  a.configure(kC0, two_position_table());
  b.configure(kC0, two_position_table());
  const u32 b_ramp = b.route(kC0, Dir::Ramp);
  ASSERT_NE(b_ramp, 0u);
  a.advance_switch(kC0);
  EXPECT_EQ(a.current_position(kC0), 1u);
  EXPECT_EQ(b.current_position(kC0), 0u);
  EXPECT_EQ(a.route(kC0, Dir::Ramp), 0u);
  EXPECT_EQ(b.route(kC0, Dir::Ramp), b_ramp);
  EXPECT_EQ(b.route(kC0, Dir::West), 0u);
}

TEST(RoutePoolTest, ReconfiguringOneRouterLeavesTheOtherAlone) {
  Fabric fabric(2, 1);
  Router& a = fabric.router(0, 0);
  Router& b = fabric.router(1, 0);
  a.configure(kC0, two_position_table());
  b.configure(kC0, two_position_table());
  b.advance_switch(kC0);
  a.configure(kC0, ColorConfig({position(Dir::North, {Dir::Ramp})}));
  EXPECT_EQ(a.config(kC0).position_count(), 1u);
  EXPECT_NE(a.route(kC0, Dir::North), 0u);
  EXPECT_EQ(b.config(kC0), two_position_table());
  EXPECT_EQ(b.current_position(kC0), 1u);
  EXPECT_EQ(b.route(kC0, Dir::North), 0u);
  EXPECT_EQ(a.configure_count(kC0), 2u);
  EXPECT_EQ(b.configure_count(kC0), 1u);
}

TEST(RoutePoolTest, RunningOutOfIdsIsANamedFailure) {
  // Distinct single-position tables: the Ramp and North rules' outputs
  // spell the index in base 5 (Dir values 0..4), five digits each.
  auto table = [](usize i) {
    auto digits = [](usize value) {
      std::vector<Dir> outputs;
      for (int d = 0; d < 5; ++d, value /= 5) {
        outputs.push_back(static_cast<Dir>(value % 5));
      }
      return outputs;
    };
    return ColorConfig({position({RouteRule{Dir::Ramp, digits(i % 3125)},
                                  RouteRule{Dir::North, digits(i / 3125)}})});
  };
  RoutePool pool;
  for (usize i = 0; i < RoutePool::kMaxTables; ++i) {
    ASSERT_EQ(pool.table(pool.intern(table(i))), table(i)) << "table " << i;
  }
  // A table already interned still resolves; a new one has no id left.
  EXPECT_EQ(pool.table(pool.intern(table(0))), table(0));
  try {
    (void)pool.intern(table(RoutePool::kMaxTables));
    ADD_FAILURE() << "interning past the id space must fail";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("route pool exhausted"),
              std::string::npos)
        << e.what();
  }
}

TEST(PeMemoryTest, BudgetEnforced) {
  PeMemory mem(1024);
  mem.reserve(512, "half");
  EXPECT_EQ(mem.used(), 512u);
  EXPECT_EQ(mem.available(), 512u);
  try {
    mem.reserve(1024, "too much");
    ADD_FAILURE() << "reserving past the budget must fail";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "budget exceeded reserving 'too much': 1536 > 1024"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(mem.used(), 512u);
  mem.reserve(512, "rest");
  EXPECT_EQ(mem.available(), 0u);
  EXPECT_EQ(mem.budget(), 1024u);
}

TEST(PeMemoryTest, RecordsTaggedAllocations) {
  // The ledger itself keeps no records; a derived ledger sees each
  // successful reservation's tag and size through the record hook.
  class Recording final : public PeMemory {
   public:
    using PeMemory::PeMemory;
    std::vector<std::pair<std::string, usize>> records;

   private:
    void record(std::string_view tag, usize bytes) override {
      records.emplace_back(std::string(tag), bytes);
    }
  };
  Recording mem(4096);
  mem.reserve(64, "a");
  mem.reserve(100, "b");
  EXPECT_THROW(mem.reserve(4096, "c"), ContractViolation);
  ASSERT_EQ(mem.records.size(), 2u);
  EXPECT_EQ(mem.records[0].first, "a");
  EXPECT_EQ(mem.records[0].second, 64u);
  EXPECT_EQ(mem.records[1].first, "b");
  EXPECT_EQ(mem.records[1].second, 100u);
  EXPECT_EQ(mem.used(), 164u);
}

// --- point-to-point data delivery ------------------------------------------

TEST(FabricTest, EastwardSendDelivers) {
  Fabric fabric(2, 1);
  std::vector<f32> received;
  fabric.load([&](Coord2 coord, Coord2) {
    auto prog = std::make_unique<ScriptProgram>();
    prog->coord = coord;
    prog->configure = [](Router& router, Coord2 c) {
      if (c.x == 0) {
        router.configure(kC0, ColorConfig({position(Dir::Ramp, {Dir::East})}));
      } else {
        router.configure(kC0, ColorConfig({position(Dir::West, {Dir::Ramp})}));
      }
    };
    if (coord.x == 0) {
      prog->start = [](PeApi& api) {
        const std::vector<f32> block{1.0f, 2.0f, 3.0f};
        api.send(kC0, block);
        api.signal_done();
      };
    } else {
      prog->data = [&received](PeApi& api, Color c, Dir from,
                               std::span<const u32> payload) {
        EXPECT_EQ(c, kC0);
        EXPECT_EQ(from, Dir::West);
        for (const u32 w : payload) {
          received.push_back(unpack_f32(w));
        }
        api.signal_done();
      };
    }
    return prog;
  });
  const RunReport report = fabric.run();
  EXPECT_TRUE(report.ok()) << (report.errors.empty() ? "" : report.errors[0]);
  ASSERT_EQ(received.size(), 3u);
  EXPECT_EQ(received[0], 1.0f);
  EXPECT_EQ(received[2], 3.0f);
}

TEST(FabricTest, MulticastFanOut) {
  // Centre PE of a 3x3 broadcasts to all four neighbors at once.
  Fabric fabric(3, 3);
  int deliveries = 0;
  fabric.load([&](Coord2 coord, Coord2) {
    auto prog = std::make_unique<ScriptProgram>();
    prog->coord = coord;
    prog->configure = [](Router& router, Coord2 c) {
      if (c.x == 1 && c.y == 1) {
        router.configure(
            kC0, ColorConfig({position(Dir::Ramp, {Dir::North, Dir::East,
                                                   Dir::South, Dir::West})}));
      } else {
        // Accept from whichever side faces the centre.
        std::vector<RouteRule> rules;
        for (const Dir d : kFabricDirs) {
          rules.push_back(RouteRule{d, {Dir::Ramp}});
        }
        router.configure(kC0, ColorConfig({position(std::move(rules))}));
      }
    };
    if (coord.x == 1 && coord.y == 1) {
      prog->start = [](PeApi& api) {
        const std::vector<f32> block{42.0f};
        api.send(kC0, block);
        api.signal_done();
      };
    } else {
      prog->data = [&deliveries](PeApi& api, Color, Dir,
                                 std::span<const u32> payload) {
        EXPECT_EQ(unpack_f32(payload[0]), 42.0f);
        ++deliveries;
        api.signal_done();
      };
      prog->start = [coord](PeApi& api) {
        // Corner PEs receive nothing; they finish immediately.
        if ((coord.x != 1) && (coord.y != 1)) {
          api.signal_done();
        }
      };
    }
    return prog;
  });
  const RunReport report = fabric.run();
  EXPECT_TRUE(report.ok()) << (report.errors.empty() ? "" : report.errors[0]);
  EXPECT_EQ(deliveries, 4);
}

TEST(FabricTest, EdgeTrafficIsAbsorbed) {
  // A PE on the west edge sends west: the wavelets leave the simulated
  // region without error (the wafer's reserved boundary layer).
  Fabric fabric(1, 1);
  fabric.load([&](Coord2 coord, Coord2) {
    auto prog = std::make_unique<ScriptProgram>();
    prog->coord = coord;
    prog->configure = [](Router& router, Coord2) {
      router.configure(kC0, ColorConfig({position(Dir::Ramp, {Dir::West})}));
    };
    prog->start = [](PeApi& api) {
      const std::vector<f32> block{1.0f, 2.0f};
      api.send(kC0, block);
      api.signal_done();
    };
    return prog;
  });
  const RunReport report = fabric.run();
  EXPECT_TRUE(report.ok()) << (report.errors.empty() ? "" : report.errors[0]);
}

TEST(FabricTest, UnconfiguredColorIsAnError) {
  Fabric fabric(2, 1);
  fabric.load([&](Coord2 coord, Coord2) {
    auto prog = std::make_unique<ScriptProgram>();
    prog->coord = coord;
    prog->configure = [](Router& router, Coord2 c) {
      if (c.x == 0) {
        router.configure(kC0, ColorConfig({position(Dir::Ramp, {Dir::East})}));
      }
      // PE 1 leaves the color unconfigured.
    };
    prog->start = [c = coord](PeApi& api) {
      if (c.x == 0) {
        const std::vector<f32> block{1.0f};
        api.send(kC0, block);
      }
      api.signal_done();
    };
    return prog;
  });
  const RunReport report = fabric.run();
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.errors[0].find("unconfigured"), std::string::npos);
}

// --- control wavelets & switch protocol --------------------------------------

TEST(FabricTest, ControlAdvancesTraversedRouters) {
  // Figure 6 protocol on a 1x2 pair: PE0 sends data + control; PE1's
  // router flips from receive to send; PE1 answers with its own data.
  Fabric fabric(2, 1);
  std::vector<f32> pe0_got, pe1_got;
  fabric.load([&](Coord2 coord, Coord2) {
    auto prog = std::make_unique<ScriptProgram>();
    prog->coord = coord;
    prog->configure = [](Router& router, Coord2 c) {
      if (c.x == 0) {
        router.configure(kC0,
                         ColorConfig({position(Dir::Ramp, {Dir::East}),
                                      position(Dir::East, {Dir::Ramp})}));
      } else {
        router.configure(kC0,
                         ColorConfig({position(Dir::West, {Dir::Ramp}),
                                      position(Dir::Ramp, {Dir::West})}));
      }
    };
    if (coord.x == 0) {
      prog->start = [](PeApi& api) {
        const std::vector<f32> block{10.0f};
        api.send(kC0, block);
        api.send_control(kC0);
      };
      prog->data = [&pe0_got](PeApi& api, Color, Dir from,
                              std::span<const u32> payload) {
        EXPECT_EQ(from, Dir::East);
        pe0_got.push_back(unpack_f32(payload[0]));
        api.signal_done();
      };
    } else {
      prog->data = [&pe1_got](PeApi&, Color, Dir from,
                              std::span<const u32> payload) {
        EXPECT_EQ(from, Dir::West);
        pe1_got.push_back(unpack_f32(payload[0]));
      };
      prog->control = [](PeApi& api, Color c, Dir) {
        // Switch has flipped: now this PE is the sender.
        const std::vector<f32> block{20.0f};
        api.send(c, block);
        api.signal_done();
      };
    }
    return prog;
  });
  const RunReport report = fabric.run();
  EXPECT_TRUE(report.ok()) << (report.errors.empty() ? "" : report.errors[0]);
  ASSERT_EQ(pe1_got.size(), 1u);
  EXPECT_EQ(pe1_got[0], 10.0f);
  ASSERT_EQ(pe0_got.size(), 1u);
  EXPECT_EQ(pe0_got[0], 20.0f);
  // Both routers advanced twice (their own control + none) -> the test's
  // protocol flips each router exactly once per control traversal.
  EXPECT_EQ(fabric.router(0, 0).current_position(kC0), 1u);
  EXPECT_EQ(fabric.router(1, 0).current_position(kC0), 1u);
}

TEST(FabricTest, BackpressureHoldsDataUntilSwitchAdvances) {
  // PE1 sends to PE0 while PE0's switch is in the "sending" position;
  // the block must wait in the router buffer until PE0's own control
  // flips the switch, then be delivered (not lost, not misrouted).
  Fabric fabric(2, 1);
  bool pe0_received = false;
  fabric.load([&](Coord2 coord, Coord2) {
    auto prog = std::make_unique<ScriptProgram>();
    prog->coord = coord;
    prog->configure = [](Router& router, Coord2 c) {
      if (c.x == 0) {
        router.configure(kC0,
                         ColorConfig({position(Dir::Ramp, {Dir::East}),
                                      position(Dir::East, {Dir::Ramp})}));
      } else {
        router.configure(kC0, ColorConfig({position(Dir::Ramp, {Dir::West})}));
      }
    };
    if (coord.x == 0) {
      prog->start = [](PeApi& api) {
        // Burn cycles before sending the control: PE1's data arrives
        // while our switch still points Ramp->East.
        api.add_cycles(10000.0);
        const std::vector<f32> block{1.0f};
        api.send(kC0, block);
        api.send_control(kC0);
      };
      prog->data = [&pe0_received](PeApi& api, Color, Dir,
                                   std::span<const u32> payload) {
        EXPECT_EQ(unpack_f32(payload[0]), 99.0f);
        pe0_received = true;
        api.signal_done();
      };
    } else {
      prog->start = [](PeApi& api) {
        const std::vector<f32> block{99.0f};
        api.send(kC0, block);
        api.signal_done();
      };
      // PE1 ignores PE0's data and control: its single position routes
      // Ramp->West only... so PE0's eastward block would strand. Give it
      // a sink rule instead via on_data being unreachable: PE0's block is
      // absorbed at PE1? No: PE1 has no West-input rule, so PE0's block
      // backpressures forever at PE1 and strands. Avoid that by not
      // letting PE0's data reach PE1: PE0 sends control only... but the
      // test sends data. Accept the stranded-block report below.
    }
    return prog;
  });
  const RunReport report = fabric.run();
  EXPECT_TRUE(pe0_received) << "backpressured block must be delivered";
  // PE0's own eastward data (and control) strand at PE1 by construction;
  // the fabric must report them rather than silently dropping.
  bool stranded_reported = false;
  for (const std::string& e : report.errors) {
    stranded_reported |= e.find("stranded") != std::string::npos;
  }
  EXPECT_TRUE(stranded_reported);
}

// --- payload arena -----------------------------------------------------------

/// Fills a block with a pattern unique to `seed`.
void fill_block(PayloadArena& arena, u32 handle, u32 words, u32 seed) {
  for (u32 i = 0; i < words; ++i) {
    arena.data(handle)[i] = seed * 100'000u + i;
  }
}

bool block_holds(const PayloadArena& arena, u32 handle, u32 words, u32 seed) {
  for (u32 i = 0; i < words; ++i) {
    if (arena.data(handle)[i] != seed * 100'000u + i) {
      return false;
    }
  }
  return true;
}

TEST(PayloadArenaTest, BlocksOfMixedExactSizesKeepTheirWords) {
  PayloadArena arena;
  // One word more than a slab holds: this block gets a slab of its own.
  constexpr u32 kOversized = (1u << 16) + 1;
  const std::vector<u32> sizes{1, 8, 24, 25, kOversized};
  std::vector<u32> handles;
  for (u32 i = 0; i < sizes.size(); ++i) {
    handles.push_back(arena.alloc(sizes[i]));
    fill_block(arena, handles.back(), sizes[i], i + 1);
  }
  for (u32 i = 0; i < sizes.size(); ++i) {
    EXPECT_TRUE(block_holds(arena, handles[i], sizes[i], i + 1))
        << sizes[i] << "-word block";
  }
  // Each block takes its words plus one header word, no rounding: the
  // four small blocks lie back to back in the first slab.
  EXPECT_EQ(handles[1] - handles[0], 2u);
  EXPECT_EQ(handles[2] - handles[1], 9u);
  EXPECT_EQ(handles[3] - handles[2], 25u);
  EXPECT_EQ(arena.reserved_bytes(),
            ((1u << 16) + kOversized + 1) * sizeof(u32));
}

TEST(PayloadArenaTest, FreedBlockIsReusedOnlyBySameSize) {
  PayloadArena arena;
  const u32 block = arena.alloc(24);
  arena.free(block);
  const u32 longer = arena.alloc(25);
  const u32 shorter = arena.alloc(23);
  EXPECT_NE(longer, block);
  EXPECT_NE(shorter, block);
  EXPECT_EQ(arena.alloc(24), block);
  // A zero-word request is a one-word block.
  const u32 one = arena.alloc(1);
  arena.free(one);
  EXPECT_EQ(arena.alloc(0), one);
}

// --- DSD ops, counters, timing ------------------------------------------------

class DsdProbeProgram : public ScriptProgram {};

TEST(DsdTest, VectorOpsComputeAndCount) {
  Fabric fabric(1, 1);
  fabric.load([&](Coord2 coord, Coord2) {
    auto prog = std::make_unique<ScriptProgram>();
    prog->coord = coord;
    prog->start = [](PeApi& api) {
      std::vector<f32> a{1.0f, 2.0f, 3.0f};
      std::vector<f32> b{4.0f, 5.0f, 6.0f};
      std::vector<f32> out(3);
      api.fmuls(Dsd::of(out), Dsd::of(a), Dsd::of(b));
      EXPECT_EQ(out[0], 4.0f);
      EXPECT_EQ(out[2], 18.0f);
      api.fadds(Dsd::of(out), Dsd::of(a), Dsd::of(b));
      EXPECT_EQ(out[1], 7.0f);
      api.fsubs(Dsd::of(out), Dsd::of(b), Dsd::of(a));
      EXPECT_EQ(out[2], 3.0f);
      api.fnegs(Dsd::of(out), Dsd::of(a));
      EXPECT_EQ(out[0], -1.0f);
      api.fmacs(Dsd::of(out), Dsd::of(a), Dsd::of(b), Dsd::of(a));
      EXPECT_EQ(out[1], 12.0f);  // 2*5+2
      std::vector<f32> pred{1.0f, -1.0f, 0.0f};
      api.selects(Dsd::of(out), Dsd::of(pred), Dsd::of(a), Dsd::of(b));
      EXPECT_EQ(out[0], 1.0f);
      EXPECT_EQ(out[1], 5.0f);
      EXPECT_EQ(out[2], 6.0f);  // pred == 0 picks b
      api.signal_done();
    };
    return prog;
  });
  const RunReport report = fabric.run();
  ASSERT_TRUE(report.ok());
  const PeCounters& counters = fabric.pe(0, 0).counters();
  EXPECT_EQ(counters.fmul, 3u);
  EXPECT_EQ(counters.fadd, 3u);
  EXPECT_EQ(counters.fsub, 3u);
  EXPECT_EQ(counters.fneg, 3u);
  EXPECT_EQ(counters.fma, 3u);
  // Table 4 memory model: fmul 2 loads/elem, fma 3 loads/elem, etc.
  EXPECT_EQ(counters.mem_loads, (2u + 2u + 2u + 1u + 3u) * 3u);
  EXPECT_EQ(counters.mem_stores, 5u * 3u);
}

TEST(DsdTest, WindowAndStride) {
  std::vector<f32> data{0.0f, 1.0f, 2.0f, 3.0f, 4.0f, 5.0f};
  const Dsd whole = Dsd::of(data);
  const Dsd mid = whole.window(2, 3);
  EXPECT_EQ(mid.length, 3);
  EXPECT_EQ(mid.at(0), 2.0f);
  EXPECT_EQ(mid.at(2), 4.0f);
}

TEST(TimingTest, VectorOpsAdvanceClock) {
  Fabric fabric(1, 1);
  f64 t_before = -1.0, t_after = -1.0;
  fabric.load([&](Coord2 coord, Coord2) {
    auto prog = std::make_unique<ScriptProgram>();
    prog->coord = coord;
    prog->start = [&](PeApi& api) {
      std::vector<f32> a(100, 1.0f), out(100);
      t_before = api.now();
      api.fmuls(Dsd::of(out), Dsd::of(a), 2.0f);
      t_after = api.now();
      api.signal_done();
    };
    return prog;
  });
  ASSERT_TRUE(fabric.run().ok());
  const FabricTimings& t = fabric.timings();
  EXPECT_NEAR(t_after - t_before,
              t.vector_op_issue_cycles + 100.0 * t.cycles_per_vector_element,
              1e-9);
}

TEST(TimingTest, ScalarModeChargesIssuePerElement) {
  ExecutionOptions exec;
  exec.vectorized = false;
  Fabric fabric(1, 1, FabricTimings{}, PeMemory::kDefaultBudget, exec);
  f64 elapsed = 0.0;
  fabric.load([&](Coord2 coord, Coord2) {
    auto prog = std::make_unique<ScriptProgram>();
    prog->coord = coord;
    prog->start = [&](PeApi& api) {
      std::vector<f32> a(50, 1.0f), out(50);
      const f64 t0 = api.now();
      api.fmuls(Dsd::of(out), Dsd::of(a), 2.0f);
      elapsed = api.now() - t0;
      api.signal_done();
    };
    return prog;
  });
  ASSERT_TRUE(fabric.run().ok());
  const FabricTimings& t = fabric.timings();
  EXPECT_NEAR(elapsed,
              50.0 * t.vector_op_issue_cycles +
                  50.0 * t.cycles_per_vector_element,
              1e-9);
}

TEST(TimingTest, SecondsConversionUsesClock) {
  FabricTimings t;
  t.clock_hz = 850e6;
  EXPECT_NEAR(t.seconds(850e6), 1.0, 1e-12);
  EXPECT_NEAR(t.seconds(70e3), 70e3 / 850e6, 1e-18);
}

TEST(FabricTest, QuiescenceWithoutDoneIsReported) {
  Fabric fabric(1, 1);
  fabric.load([&](Coord2 coord, Coord2) {
    auto prog = std::make_unique<ScriptProgram>();
    prog->coord = coord;
    prog->start = [](PeApi&) { /* never signals done */ };
    return prog;
  });
  const RunReport report = fabric.run();
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.errors[0].find("signaled done"), std::string::npos);
}

TEST(FabricTest, RunFillsTheWholeRecord) {
  // PE0 reserves 64 B and sends 3 words East to PE1; the record carries
  // the counters, traffic, memory and phase split with no second pass.
  Fabric fabric(2, 1);
  fabric.load([&](Coord2 coord, Coord2) {
    auto prog = std::make_unique<ScriptProgram>();
    prog->coord = coord;
    prog->configure = [](Router& router, Coord2 c) {
      router.configure(kC0, ColorConfig({position(
                                c.x == 0 ? Dir::Ramp : Dir::West,
                                {c.x == 0 ? Dir::East : Dir::Ramp})}));
    };
    if (coord.x == 0) {
      prog->start = [](PeApi& api) {
        api.memory().reserve(64, "columns");
        api.send(kC0, std::vector<f32>(3, 1.0f));
        api.signal_done();
      };
    } else {
      prog->start = [](PeApi&) {};
      prog->data = [](PeApi& api, Color, Dir, std::span<const u32>) {
        api.signal_done();
      };
    }
    return prog;
  });
  const RunReport report = fabric.run();
  ASSERT_TRUE(report.ok()) << report.errors.front();
  EXPECT_EQ(report.pes_done, 2);
  EXPECT_EQ(report.device_seconds,
            fabric.timings().seconds(report.makespan_cycles));
  EXPECT_EQ(report.counters.wavelets_sent, 3u);
  EXPECT_EQ(report.counters.wavelets_received, 3u);
  EXPECT_EQ(report.counters.tasks_executed, 3u);  // two starts, one data
  // Sender's East link plus the receiver's Ramp.
  EXPECT_EQ(report.color_traffic[kC0.id()], 6u);
  EXPECT_EQ(report.max_pe_memory, 64u);
  ASSERT_EQ(report.pe_phase_cycles.size(), 2u);
  EXPECT_EQ(report.pe_phase_cycles[1].total(), fabric.pe(1, 0).clock());
  EXPECT_DOUBLE_EQ(report.phase_cycles.total(),
            report.pe_phase_cycles[0].total() +
                report.pe_phase_cycles[1].total());
}

TEST(FabricTest, ASecondRunThrowsBeforeProcessingAnyEvent) {
  // A load runs once, as a launch on the wafer does.
  Fabric fabric(2, 2);
  int starts = 0;
  fabric.load([&](Coord2 coord, Coord2) {
    auto prog = std::make_unique<ScriptProgram>();
    prog->coord = coord;
    prog->start = [&starts](PeApi& api) {
      ++starts;
      api.scalar_ops(5);
      api.signal_done();
    };
    return prog;
  });
  ASSERT_TRUE(fabric.run().ok());
  ASSERT_EQ(starts, 4);
  const f64 clock = fabric.pe(1, 1).clock();
  try {
    (void)fabric.run();
    FAIL() << "a second run() must throw";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("build a new load"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(starts, 4) << "no on_start may fire on the second call";
  EXPECT_EQ(fabric.pe(1, 1).clock(), clock);
  EXPECT_EQ(fabric.pe(1, 1).counters().tasks_executed, 1u);
}

TEST(FabricTest, DeterministicAcrossRuns) {
  const auto run_once = [] {
    Fabric fabric(3, 3);
    fabric.load([&](Coord2 coord, Coord2) {
      auto prog = std::make_unique<ScriptProgram>();
      prog->coord = coord;
      prog->configure = [](Router& router, Coord2) {
        router.configure(kC1, ColorConfig({position(
                                  {RouteRule{Dir::Ramp, {Dir::East}},
                                   RouteRule{Dir::West, {Dir::Ramp}}})}));
      };
      prog->start = [coord](PeApi& api) {
        const std::vector<f32> block{static_cast<f32>(coord.x * 10 + coord.y)};
        api.send(kC1, block);
        api.signal_done();
      };
      prog->data = [](PeApi&, Color, Dir, std::span<const u32>) {};
      return prog;
    });
    const RunReport report = fabric.run();
    return std::make_pair(report.makespan_cycles, report.events_processed);
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

// --- stranded and overflowing router buffers --------------------------------

/// Every PE of a 4x3 fabric sends one data block east on each of two
/// colors. A router accepts only its own Ramp on either color, so every
/// block that reaches a neighbor parks there for good. With
/// `buffer_depth` 1 the second color's block overflows instead.
RunReport run_stranding_fabric(i32 threads, u32 buffer_depth) {
  ExecutionOptions exec;
  exec.threads = threads;
  exec.router_buffer_depth = buffer_depth;
  Fabric fabric(4, 3, FabricTimings{}, PeMemory::kDefaultBudget, exec);
  fabric.load([](Coord2 coord, Coord2) {
    auto prog = std::make_unique<ScriptProgram>();
    prog->coord = coord;
    prog->configure = [](Router& router, Coord2) {
      router.configure(kC0, ColorConfig({position(Dir::Ramp, {Dir::East})}));
      router.configure(kC1, ColorConfig({position(Dir::Ramp, {Dir::East})}));
    };
    prog->start = [coord](PeApi& api) {
      const std::vector<f32> block{static_cast<f32>(coord.x + 10 * coord.y)};
      api.send(kC0, block);
      api.send(kC1, block);
      api.signal_done();
    };
    return prog;
  });
  return fabric.run();
}

TEST(FabricTest, StrandedBlocksAreReportedInPeOrderOnEveryTiling) {
  const std::string expected =
      "9 wavelet block(s) stranded in router input buffers (switch never "
      "advanced to accept them): [PE(1,0) color 0 from W data pos 0] "
      "[PE(2,0) color 0 from W data pos 0] [PE(3,0) color 0 from W "
      "data pos 0] [PE(1,1) color 0 from W data pos 0] [PE(2,1) color 0 "
      "from W data pos 0] [PE(3,1) color 0 from W data pos 0] [PE(1,2) "
      "color 0 from W data pos 0] [PE(2,2) color 0 from W data pos 0]";
  for (const i32 threads : {1, 3}) {
    const RunReport report = run_stranding_fabric(threads, 1);
    ASSERT_FALSE(report.errors.empty());
    EXPECT_EQ(report.errors.back(), expected) << "threads " << threads;
  }
}

TEST(FabricTest, BufferOverflowMessageIsIdenticalOnEveryTiling) {
  std::vector<std::string> serial;
  for (const i32 threads : {1, 3}) {
    const RunReport report = run_stranding_fabric(threads, 1);
    if (threads == 1) {
      serial = report.errors;
      continue;
    }
    EXPECT_EQ(report.errors, serial) << "threads " << threads;
  }
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(serial.front(),
            "router input buffer overflow at PE (1,0): 1 blocks waiting, "
            "dropped data block on color 1 from W");
  EXPECT_EQ(run_stranding_fabric(1, 2).errors.front().substr(0, 3), "18 ");
}

// --- event queue ------------------------------------------------------------

/// The order the queue must reproduce: a stable sort by event_before.
std::vector<Event> sorted_by_event_before(std::vector<Event> events) {
  std::sort(events.begin(), events.end(), event_before);
  return events;
}

/// Events with heavy time ties, `src` up to UINT32_MAX, `seq` up to
/// 2^32 - 1 and times 0.0 and -0.0; (src, seq) pairs are unique, as the
/// engine's birth keys are. `timer_tag` numbers each event.
std::vector<Event> tied_events(usize count, u64 seed) {
  constexpr u64 kMax32 = std::numeric_limits<u32>::max();
  const f64 times[] = {0.0, -0.0, 1.0, 1.0 + 1e-9, 64.0, 1e12,
                       std::numeric_limits<f64>::infinity()};
  const u64 edge_fields[] = {0, 1, kMax32 - 1, kMax32, u64{1} << 31};
  std::mt19937_64 rng(seed);
  const auto field = [&] {
    return rng() % 2 == 0 ? edge_fields[rng() % std::size(edge_fields)]
                          : rng() % (kMax32 + 1);
  };
  std::set<std::pair<u64, u64>> keys;
  std::vector<Event> events;
  while (events.size() < count) {
    const u64 src = field();
    const u64 seq = field();
    if (!keys.emplace(src, seq).second) {
      continue;
    }
    Event e;
    e.time = times[rng() % std::size(times)];
    e.src = static_cast<i64>(src);
    e.seq = seq;
    e.x = static_cast<i32>(rng() % 1000);
    e.timer_tag = static_cast<u32>(events.size());
    events.push_back(e);
  }
  return events;
}

/// Same key and same body (the body travels with its key).
void expect_same_event(const Event& got, const Event& want, usize at) {
  EXPECT_EQ(got.time, want.time) << "pop " << at;
  EXPECT_FALSE(std::signbit(got.time)) << "pop " << at << ": -0.0 kept";
  EXPECT_EQ(got.src, want.src) << "pop " << at;
  EXPECT_EQ(got.seq, want.seq) << "pop " << at;
  EXPECT_EQ(got.timer_tag, want.timer_tag) << "pop " << at;
  EXPECT_EQ(got.x, want.x) << "pop " << at;
}

TEST(EventQueueTest, PopsInEventBeforeOrder) {
  for (const u64 seed : {1u, 2u, 3u}) {
    const std::vector<Event> events = tied_events(4000, seed);
    EventQueue queue;
    for (const Event& e : events) {
      queue.push(e);
    }
    const std::vector<Event> want = sorted_by_event_before(events);
    for (usize i = 0; i < want.size(); ++i) {
      ASSERT_FALSE(queue.empty());
      EXPECT_EQ(queue.top_time(), want[i].time);
      expect_same_event(queue.pop(), want[i], i);
    }
    EXPECT_TRUE(queue.empty());
    EXPECT_EQ(queue.high_water(), events.size());
  }
}

TEST(EventQueueTest, InterleavedPushAndPopMatchTheSortedReference) {
  const std::vector<Event> events = tied_events(6000, 7);
  std::mt19937_64 rng(11);
  EventQueue queue;
  std::vector<Event> reference;
  usize next = 0;
  usize pops = 0;
  while (next < events.size() || !reference.empty()) {
    const bool push = next < events.size() &&
                      (reference.empty() || rng() % 3 != 0);
    if (push) {
      queue.push(events[next]);
      reference.push_back(events[next]);
      ++next;
      continue;
    }
    const auto least =
        std::min_element(reference.begin(), reference.end(), event_before);
    expect_same_event(queue.pop(), *least, pops++);
    reference.erase(least);
  }
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueueTest, KeysItCannotHoldAreNamedFailures) {
  const auto push_fails = [](Event e, std::string_view what) {
    EventQueue queue;
    try {
      queue.push(e);
    } catch (const ContractViolation& error) {
      return std::string(error.what()).find(what) != std::string::npos;
    }
    return false;
  };
  Event seq_too_wide;
  seq_too_wide.seq = u64{1} << 32;
  EXPECT_TRUE(push_fails(seq_too_wide, "exceeds 32 bits"));
  Event src_too_wide;
  src_too_wide.src = i64{1} << 32;
  EXPECT_TRUE(push_fails(src_too_wide, "exceeds 32 bits"));
  Event src_negative;
  src_negative.src = -1;
  EXPECT_TRUE(push_fails(src_negative, "exceeds 32 bits"));
  Event time_negative;
  time_negative.time = -1.0;
  EXPECT_TRUE(push_fails(time_negative, "negative or NaN"));
  Event time_nan;
  time_nan.time = std::numeric_limits<f64>::quiet_NaN();
  EXPECT_TRUE(push_fails(time_nan, "negative or NaN"));

  // The widest keys it can hold are accepted and round-trip.
  Event widest;
  widest.src = std::numeric_limits<u32>::max();
  widest.seq = std::numeric_limits<u32>::max();
  widest.time = -0.0;
  EventQueue queue;
  queue.push(widest);
  const Event out = queue.pop();
  EXPECT_EQ(out.src, widest.src);
  EXPECT_EQ(out.seq, widest.seq);
  EXPECT_EQ(out.time, 0.0);
  EXPECT_FALSE(std::signbit(out.time));
}

}  // namespace
}  // namespace fvf::wse
