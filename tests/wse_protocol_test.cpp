// Protocol-level tests of the fabric simulator: ordering guarantees,
// multi-hop routing, switch-position cycling, failure injection, and
// regression tests for subtle races (ramp serialization, backpressure
// release order).
#include <gtest/gtest.h>

#include <vector>

#include "common/assert.hpp"
#include "wse/fabric.hpp"

namespace fvf::wse {
namespace {

constexpr Color kC0{0};
constexpr Color kC1{1};

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

// --- ordering guarantees -------------------------------------------------------

TEST(ProtocolTest, RampSerializesSequentialSends) {
  // Regression: a control wavelet sent right after a large data block
  // must NOT overtake it (the ramp link is FIFO). This was the root
  // cause of the original switch-protocol misroute.
  Fabric fabric(2, 1);
  std::vector<int> arrival_order;
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
        const std::vector<f32> big(256, 1.0f);
        api.send(kC0, big);
        api.send_control(kC0);
        api.signal_done();
      };
    } else {
      prog->data = [&arrival_order](PeApi&, Color, Dir,
                                    std::span<const u32>) {
        arrival_order.push_back(0);  // data
      };
      prog->control = [&arrival_order](PeApi& api, Color, Dir) {
        arrival_order.push_back(1);  // control
        api.signal_done();
      };
    }
    return prog;
  });
  ASSERT_TRUE(fabric.run().ok());
  ASSERT_EQ(arrival_order.size(), 2u);
  EXPECT_EQ(arrival_order[0], 0) << "data must arrive before the control";
  EXPECT_EQ(arrival_order[1], 1);
}

TEST(ProtocolTest, BlocksOnSamePathStayFifo) {
  // Three blocks injected in order must be delivered in order, even
  // across a two-hop path.
  Fabric fabric(3, 1);
  std::vector<f32> first_words;
  fabric.load([&](Coord2 coord, Coord2) {
    auto prog = std::make_unique<ScriptProgram>();
    prog->coord = coord;
    prog->configure = [](Router& router, Coord2 c) {
      if (c.x == 0) {
        router.configure(kC0, ColorConfig({position(Dir::Ramp, {Dir::East})}));
      } else if (c.x == 1) {
        router.configure(kC0, ColorConfig({position(Dir::West, {Dir::East})}));
      } else {
        router.configure(kC0, ColorConfig({position(Dir::West, {Dir::Ramp})}));
      }
    };
    if (coord.x == 0) {
      prog->start = [](PeApi& api) {
        for (int k = 0; k < 3; ++k) {
          const std::vector<f32> block(static_cast<usize>(8 + k),
                                       static_cast<f32>(k));
          api.send(kC0, block);
        }
        api.signal_done();
      };
    } else if (coord.x == 2) {
      prog->data = [&first_words](PeApi& api, Color, Dir,
                                  std::span<const u32> payload) {
        first_words.push_back(unpack_f32(payload[0]));
        if (first_words.size() == 3) {
          api.signal_done();
        }
      };
    }
    return prog;
  });
  ASSERT_TRUE(fabric.run().ok());
  ASSERT_EQ(first_words.size(), 3u);
  EXPECT_EQ(first_words[0], 0.0f);
  EXPECT_EQ(first_words[1], 1.0f);
  EXPECT_EQ(first_words[2], 2.0f);
}

TEST(ProtocolTest, MultiHopChainTraversesWholeRow) {
  // A block relayed across a 6-PE row arrives intact with the hop
  // latency accumulated.
  const i32 w = 6;
  Fabric fabric(w, 1);
  f64 arrival_time = 0.0;
  f64 send_done_time = 0.0;
  fabric.load([&](Coord2 coord, Coord2) {
    auto prog = std::make_unique<ScriptProgram>();
    prog->coord = coord;
    prog->configure = [w](Router& router, Coord2 c) {
      if (c.x == 0) {
        router.configure(kC0, ColorConfig({position(Dir::Ramp, {Dir::East})}));
      } else if (c.x == w - 1) {
        router.configure(kC0, ColorConfig({position(Dir::West, {Dir::Ramp})}));
      } else {
        router.configure(kC0, ColorConfig({position(Dir::West, {Dir::East})}));
      }
    };
    if (coord.x == 0) {
      prog->start = [&send_done_time](PeApi& api) {
        const std::vector<f32> block{7.0f};
        api.send(kC0, block);
        send_done_time = api.now();
        api.signal_done();
      };
    } else if (coord.x == w - 1) {
      prog->data = [&arrival_time](PeApi& api, Color, Dir,
                                   std::span<const u32> payload) {
        EXPECT_EQ(unpack_f32(payload[0]), 7.0f);
        arrival_time = api.now();
        api.signal_done();
      };
    }
    return prog;
  });
  ASSERT_TRUE(fabric.run().ok());
  const f64 min_latency =
      static_cast<f64>(w - 1) * fabric.timings().hop_latency_cycles;
  EXPECT_GE(arrival_time - send_done_time, min_latency);
}

// --- switch positions ----------------------------------------------------------

TEST(ProtocolTest, FourPositionSwitchCycles) {
  // A color with four switch positions visits them round-robin under
  // successive control wavelets.
  Fabric fabric(1, 1);
  fabric.load([&](Coord2 coord, Coord2) {
    auto prog = std::make_unique<ScriptProgram>();
    prog->coord = coord;
    prog->configure = [](Router& router, Coord2) {
      router.configure(kC1, ColorConfig({position(Dir::Ramp, {Dir::North}),
                                         position(Dir::Ramp, {Dir::East}),
                                         position(Dir::Ramp, {Dir::South}),
                                         position(Dir::Ramp, {Dir::West})}));
    };
    prog->start = [](PeApi& api) { api.signal_done(); };
    return prog;
  });
  ASSERT_TRUE(fabric.run().ok());
  Router& router = fabric.router(0, 0);
  EXPECT_EQ(router.config(kC1).position_count(), 4u);
  for (usize expected : {1u, 2u, 3u, 0u, 1u}) {
    router.advance_switch(kC1);
    EXPECT_EQ(router.current_position(kC1), expected);
  }
}

TEST(ProtocolTest, BackpressureReleasePreservesArrivalOrder) {
  // Two blocks queue while the switch points elsewhere; after the
  // advance they must be delivered in their original arrival order.
  Fabric fabric(2, 1);
  std::vector<f32> delivered;
  fabric.load([&](Coord2 coord, Coord2) {
    auto prog = std::make_unique<ScriptProgram>();
    prog->coord = coord;
    prog->configure = [](Router& router, Coord2 c) {
      if (c.x == 0) {
        // Position 0 only accepts Ramp (pointing East); position 1
        // accepts from East.
        router.configure(kC0,
                         ColorConfig({position(Dir::Ramp, {Dir::East}),
                                      position(Dir::East, {Dir::Ramp})}));
      } else {
        router.configure(
            kC0, ColorConfig({position({RouteRule{Dir::Ramp, {Dir::West}},
                                        RouteRule{Dir::West, {Dir::Ramp}}})}));
      }
    };
    if (coord.x == 0) {
      prog->start = [](PeApi& api) {
        // Delay so both of PE1's blocks arrive and park first; then the
        // send + control releases them.
        api.add_cycles(50000.0);
        const std::vector<f32> own{0.0f};
        api.send(kC0, own);
        api.send_control(kC0);
      };
      prog->data = [&delivered](PeApi& api, Color, Dir,
                                std::span<const u32> payload) {
        delivered.push_back(unpack_f32(payload[0]));
        if (delivered.size() == 2) {
          api.signal_done();
        }
      };
    } else {
      prog->start = [](PeApi& api) {
        const std::vector<f32> a{1.0f};
        const std::vector<f32> b{2.0f};
        api.send(kC0, a);
        api.send(kC0, b);
        api.signal_done();
      };
      prog->data = [](PeApi&, Color, Dir, std::span<const u32>) {};
    }
    return prog;
  });
  const RunReport report = fabric.run();
  ASSERT_TRUE(report.ok()) << report.errors[0];
  ASSERT_EQ(delivered.size(), 2u);
  EXPECT_EQ(delivered[0], 1.0f);
  EXPECT_EQ(delivered[1], 2.0f);
}

TEST(ProtocolTest, InterleavedColorsReleaseIndependentlyAndFifo) {
  // Four blocks of two colors park interleaved (c0:1, c1:10, c0:2,
  // c1:20). Advancing one color's switch must release only that color's
  // wavelets, in their original arrival order, leaving the other color
  // parked until its own control arrives.
  Fabric fabric(2, 1);
  std::vector<std::pair<int, f32>> delivered;  // (color id, first word)
  fabric.load([&](Coord2 coord, Coord2) {
    auto prog = std::make_unique<ScriptProgram>();
    prog->coord = coord;
    prog->configure = [](Router& router, Coord2 c) {
      for (const Color color : {kC0, kC1}) {
        if (c.x == 0) {
          // Position 0 only accepts Ramp; arrivals from East park until a
          // control advances the switch to position 1.
          router.configure(color,
                           ColorConfig({position(Dir::Ramp, {Dir::East}),
                                        position(Dir::East, {Dir::Ramp})}));
        } else {
          router.configure(
              color,
              ColorConfig({position({RouteRule{Dir::Ramp, {Dir::West}},
                                     RouteRule{Dir::West, {Dir::Ramp}}})}));
        }
      }
    };
    if (coord.x == 0) {
      prog->start = [](PeApi& api) {
        // Wait until all four of PE1's blocks have arrived and parked,
        // then open the colors one at a time — kC1 first.
        api.add_cycles(50000.0);
        api.send_control(kC1);
        api.send_control(kC0);
        api.signal_done();
      };
      prog->data = [&delivered](PeApi&, Color c, Dir,
                                std::span<const u32> payload) {
        delivered.emplace_back(c.id(), unpack_f32(payload[0]));
      };
    } else {
      prog->start = [](PeApi& api) {
        api.send(kC0, std::vector<f32>{1.0f});
        api.send(kC1, std::vector<f32>{10.0f});
        api.send(kC0, std::vector<f32>{2.0f});
        api.send(kC1, std::vector<f32>{20.0f});
        api.signal_done();
      };
      prog->data = [](PeApi&, Color, Dir, std::span<const u32>) {};
      prog->control = [](PeApi&, Color, Dir) {};
    }
    return prog;
  });
  const RunReport report = fabric.run();
  ASSERT_TRUE(report.ok()) << report.errors[0];
  ASSERT_EQ(delivered.size(), 4u);
  // kC1 released first (its control was sent first), FIFO within the
  // color; kC0's wavelets stayed parked until its own control.
  EXPECT_EQ(delivered[0], (std::pair<int, f32>{kC1.id(), 10.0f}));
  EXPECT_EQ(delivered[1], (std::pair<int, f32>{kC1.id(), 20.0f}));
  EXPECT_EQ(delivered[2], (std::pair<int, f32>{kC0.id(), 1.0f}));
  EXPECT_EQ(delivered[3], (std::pair<int, f32>{kC0.id(), 2.0f}));
}

// --- failure injection -----------------------------------------------------------

TEST(ProtocolTest, EventBudgetGuardsAgainstLivelock) {
  // Two PEs bouncing a block back and forth forever trip the event
  // budget instead of hanging.
  Fabric fabric(2, 1);
  fabric.load([&](Coord2 coord, Coord2) {
    auto prog = std::make_unique<ScriptProgram>();
    prog->coord = coord;
    prog->configure = [](Router& router, Coord2 c) {
      if (c.x == 0) {
        router.configure(
            kC0, ColorConfig({position({RouteRule{Dir::Ramp, {Dir::East}},
                                        RouteRule{Dir::East, {Dir::Ramp}}})}));
      } else {
        router.configure(
            kC0, ColorConfig({position({RouteRule{Dir::Ramp, {Dir::West}},
                                        RouteRule{Dir::West, {Dir::Ramp}}})}));
      }
    };
    prog->start = [c = coord](PeApi& api) {
      if (c.x == 0) {
        const std::vector<f32> ball{1.0f};
        api.send(kC0, ball);
      }
    };
    prog->data = [](PeApi& api, Color c, Dir, std::span<const u32> payload) {
      std::vector<f32> ball(payload.size());
      for (usize i = 0; i < payload.size(); ++i) {
        ball[i] = unpack_f32(payload[i]);
      }
      api.send(c, ball);  // bounce it back forever
    };
    return prog;
  });
  const RunReport report = fabric.run(/*max_events=*/5000);
  EXPECT_FALSE(report.ok());
  bool budget_reported = false;
  for (const std::string& e : report.errors) {
    budget_reported |= e.find("event budget") != std::string::npos;
  }
  EXPECT_TRUE(budget_reported);
}

TEST(ProtocolTest, LoadWithoutProgramIsRejected) {
  Fabric fabric(1, 1);
  EXPECT_THROW((void)fabric.run(), ContractViolation);
}

TEST(ProtocolTest, NullProgramFactoryIsRejected) {
  Fabric fabric(1, 1);
  EXPECT_THROW(fabric.load([](Coord2, Coord2) {
    return std::unique_ptr<PeProgram>{};
  }),
               ContractViolation);
}

// --- timing sensitivity ------------------------------------------------------------

TEST(ProtocolTest, FasterClockShortensSeconds) {
  FabricTimings slow;
  slow.clock_hz = 425e6;
  FabricTimings fast;
  fast.clock_hz = 850e6;
  EXPECT_DOUBLE_EQ(slow.seconds(1000.0), 2.0 * fast.seconds(1000.0));
}

TEST(ProtocolTest, HigherLinkCostDelaysDelivery) {
  const auto run_with = [](f64 cycles_per_wavelet) {
    FabricTimings t;
    t.cycles_per_wavelet_link = cycles_per_wavelet;
    Fabric fabric(2, 1, t);
    f64 arrival = 0.0;
    fabric.load([&](Coord2 coord, Coord2) {
      auto prog = std::make_unique<ScriptProgram>();
      prog->coord = coord;
      prog->configure = [](Router& router, Coord2 c) {
        if (c.x == 0) {
          router.configure(kC0,
                           ColorConfig({position(Dir::Ramp, {Dir::East})}));
        } else {
          router.configure(kC0,
                           ColorConfig({position(Dir::West, {Dir::Ramp})}));
        }
      };
      if (coord.x == 0) {
        prog->start = [](PeApi& api) {
          const std::vector<f32> block(128, 1.0f);
          api.send(kC0, block);
          api.signal_done();
        };
      } else {
        prog->data = [&arrival](PeApi& api, Color, Dir,
                                std::span<const u32>) {
          arrival = api.now();
          api.signal_done();
        };
      }
      return prog;
    });
    EXPECT_TRUE(fabric.run().ok());
    return arrival;
  };
  EXPECT_GT(run_with(4.0), run_with(1.0));
}

TEST(ProtocolTest, PerColorTrafficIsAccounted) {
  // Two colors share a link; the per-color counters must split exactly.
  Fabric fabric(2, 1);
  fabric.load([&](Coord2 coord, Coord2) {
    auto prog = std::make_unique<ScriptProgram>();
    prog->coord = coord;
    prog->configure = [](Router& router, Coord2 c) {
      for (const Color color : {kC0, kC1}) {
        if (c.x == 0) {
          router.configure(color,
                           ColorConfig({position(Dir::Ramp, {Dir::East})}));
        } else {
          router.configure(color,
                           ColorConfig({position(Dir::West, {Dir::Ramp})}));
        }
      }
    };
    if (coord.x == 0) {
      prog->start = [](PeApi& api) {
        api.send(kC0, std::vector<f32>(7, 1.0f));
        api.send(kC1, std::vector<f32>(3, 2.0f));
        api.signal_done();
      };
    } else {
      prog->data = [n = std::make_shared<int>(0)](PeApi& api, Color, Dir,
                                                  std::span<const u32>) {
        if (++*n == 2) {
          api.signal_done();
        }
      };
    }
    return prog;
  });
  const RunReport report = fabric.run();
  ASSERT_TRUE(report.ok());
  // Each block crosses two counted links: the East hop at the sender and
  // the Ramp delivery at the receiver (Table 3 counts delivered traffic
  // on every link it occupies, including the Ramp).
  EXPECT_EQ(report.color_traffic[kC0.id()], 14u);
  EXPECT_EQ(report.color_traffic[kC1.id()], 6u);
  // Per link, both colors share the sender's East output and the
  // receiver's Ramp, and the fabric totals are exactly those two links.
  EXPECT_EQ(fabric.router(0, 0).traffic_out(Dir::East), 10u);
  EXPECT_EQ(fabric.router(1, 0).traffic_out(Dir::Ramp), 10u)
      << "delivery to the Ramp counts like any other output link";
  EXPECT_EQ(report.color_traffic[kC0.id()] + report.color_traffic[kC1.id()],
            fabric.router(0, 0).traffic_out(Dir::East) +
                fabric.router(1, 0).traffic_out(Dir::Ramp));
}

TEST(ProtocolTest, RouterTrafficCountersTrackOutput) {
  Fabric fabric(2, 1);
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
        const std::vector<f32> block(10, 1.0f);
        api.send(kC0, block);
        api.signal_done();
      };
    } else {
      prog->data = [](PeApi& api, Color, Dir, std::span<const u32>) {
        api.signal_done();
      };
    }
    return prog;
  });
  ASSERT_TRUE(fabric.run().ok());
  EXPECT_EQ(fabric.router(0, 0).traffic_out(Dir::East), 10u);
  EXPECT_EQ(fabric.router(0, 0).total_fabric_traffic(), 10u);
  // Regression (Table 3 comm accounting): the Ramp delivery at the
  // receiver is accounted on the Ramp link, but never inflates the
  // fabric-link total used for inter-PE bandwidth estimates.
  EXPECT_EQ(fabric.router(1, 0).traffic_out(Dir::Ramp), 10u);
  EXPECT_EQ(fabric.router(1, 0).total_fabric_traffic(), 0u);
}

}  // namespace
}  // namespace fvf::wse
