// Direct unit tests of the HaloExchange component under each send
// discipline (the TPFA, CG and wave programs test it indirectly at scale).
#include <gtest/gtest.h>

#include <array>
#include <map>
#include <set>

#include "common/assert.hpp"
#include "dataflow/halo_exchange.hpp"

namespace fvf::dataflow {
namespace {

/// A send discipline and stencil shape the exchange runs under.
struct Variant {
  HaloDiscipline discipline;
  bool diagonals;
  const char* name;
};

void PrintTo(const Variant& v, std::ostream* os) { *os << v.name; }

/// A probe program: every round sends its own coordinate-stamped block
/// and records which neighbor value arrived for each face.
class HaloProbe : public wse::PeProgram, private HaloExchange::Client {
 public:
  HaloProbe(Coord2 coord, Coord2 fabric, i32 len, i32 rounds, Variant variant)
      : coord_(coord), len_(len), rounds_(rounds),
        exchange_(coord, fabric, len, variant.discipline, variant.diagonals,
                  this) {}

  void configure_router(wse::Router& router) override {
    exchange_.configure_router(router);
  }
  void on_start(wse::PeApi& api) override { begin(api); }
  void on_data(wse::PeApi& api, wse::Color color, wse::Dir from,
               std::span<const u32> data) override {
    ASSERT_TRUE(exchange_.handles(color, false));
    exchange_.on_data(api, color, from, data);
  }
  void on_control(wse::PeApi& api, wse::Color color, wse::Dir) override {
    ASSERT_TRUE(exchange_.handles(color, true));
    exchange_.on_control(api, color);
  }
  void on_timer(wse::PeApi& api, u32 tag) override {
    exchange_.on_timer(api, tag);
  }

  std::map<usize, std::vector<f32>> received_;

 private:
  void on_block(wse::PeApi&, mesh::Face face, wse::Dsd data) override {
    received_[static_cast<usize>(face)].push_back(data.at(0));
  }
  void on_round_complete(wse::PeApi& api,
                         const HaloExchange::FaceBlocks& blocks) override {
    i32 views = 0;
    for (const std::optional<wse::Dsd>& block : blocks) {
      views += block.has_value();
    }
    EXPECT_EQ(views, exchange_.expected_blocks())
        << "the round's views are exactly its expected blocks";
    if (exchange_.completed_rounds() < rounds_) {
      begin(api);
    } else {
      api.signal_done();
    }
  }

  /// Stamp: 100*x + y + round/1000 (round recoverable from fraction). The
  /// payload outlives the round: Switch phase-2 senders send it late.
  void begin(wse::PeApi& api) {
    payload_.assign(static_cast<usize>(len_),
                    static_cast<f32>(100 * coord_.x + coord_.y) +
                        static_cast<f32>(exchange_.completed_rounds()) *
                            0.001f);
    exchange_.begin_round(api, payload_);
  }

  Coord2 coord_;
  i32 len_;
  i32 rounds_;
  std::vector<f32> payload_;
  HaloExchange exchange_;
};

class HaloExchangeTest : public ::testing::TestWithParam<Variant> {
 protected:
  /// Runs `rounds` rounds of blocks of `len` words on a `size` fabric.
  std::vector<HaloProbe*> run(Coord2 size, i32 len, i32 rounds) {
    fabric_ = std::make_unique<wse::Fabric>(size.x, size.y);
    std::vector<HaloProbe*> probes;
    fabric_->load([&](Coord2 coord, Coord2 fs) {
      auto p = std::make_unique<HaloProbe>(coord, fs, len, rounds, GetParam());
      probes.push_back(p.get());
      return p;
    });
    const wse::RunReport report = fabric_->run();
    EXPECT_TRUE(report.ok()) << report.errors[0];
    return probes;
  }

  std::unique_ptr<wse::Fabric> fabric_;
};

TEST_P(HaloExchangeTest, EveryFaceDeliversTheRightNeighbor) {
  const std::vector<HaloProbe*> probes = run(Coord2{4, 3}, 5, 1);
  usize idx = 0;
  for (i32 y = 0; y < 3; ++y) {
    for (i32 x = 0; x < 4; ++x, ++idx) {
      const HaloProbe* probe = probes[idx];
      for (const mesh::Face f : mesh::kAllFaces) {
        if (mesh::is_vertical(f)) {
          continue;
        }
        const Coord3 off = mesh::face_offset(f);
        const i32 nx = x + off.x;
        const i32 ny = y + off.y;
        const auto it = probe->received_.find(static_cast<usize>(f));
        const bool diagonal = off.x != 0 && off.y != 0;
        if (nx < 0 || nx >= 4 || ny < 0 || ny >= 3 ||
            (diagonal && !GetParam().diagonals)) {
          EXPECT_EQ(it, probe->received_.end())
              << "no block for a missing neighbor or a face outside the "
                 "shape";
          continue;
        }
        ASSERT_NE(it, probe->received_.end())
            << "missing face " << mesh::face_name(f) << " at (" << x << ','
            << y << ")";
        ASSERT_EQ(it->second.size(), 1u);
        EXPECT_NEAR(it->second[0], static_cast<f32>(100 * nx + ny), 1e-4f);
      }
    }
  }
}

TEST_P(HaloExchangeTest, RoundsArriveInOrder) {
  const i32 rounds = 4;
  const std::vector<HaloProbe*> probes = run(Coord2{3, 3}, 2, rounds);
  // Centre PE: every face present with `rounds` blocks in round order.
  const HaloProbe* centre = probes[4];
  EXPECT_EQ(centre->received_.size(), GetParam().diagonals ? 8u : 4u);
  for (const auto& [face, values] : centre->received_) {
    ASSERT_EQ(values.size(), static_cast<usize>(rounds));
    for (i32 k = 0; k + 1 < rounds; ++k) {
      EXPECT_LT(values[static_cast<usize>(k)],
                values[static_cast<usize>(k) + 1])
          << "round stamps must increase (FIFO per link)";
    }
  }
}

TEST_P(HaloExchangeTest, SinglePeHasNoExpectedBlocks) {
  const std::vector<HaloProbe*> probes = run(Coord2{1, 1}, 3, 2);
  ASSERT_EQ(probes.size(), 1u);
  EXPECT_TRUE(probes[0]->received_.empty());
}

TEST_P(HaloExchangeTest, ExpectedBlockCounts) {
  // Interior of a 3x3: 8 (4 five-point); corner: 3, two cardinals and one
  // diagonal (2 five-point); middle of a 3x1 row: 2.
  const Variant s = GetParam();
  const HaloExchange interior(Coord2{1, 1}, Coord2{3, 3}, 4, s.discipline,
                              s.diagonals, nullptr);
  EXPECT_EQ(interior.expected_blocks(), s.diagonals ? 8 : 4);
  const HaloExchange corner(Coord2{0, 0}, Coord2{3, 3}, 4, s.discipline,
                            s.diagonals, nullptr);
  EXPECT_EQ(corner.expected_blocks(), s.diagonals ? 3 : 2);
  const HaloExchange row(Coord2{1, 0}, Coord2{3, 1}, 4, s.discipline,
                         s.diagonals, nullptr);
  EXPECT_EQ(row.expected_blocks(), 2);
}

INSTANTIATE_TEST_SUITE_P(
    Disciplines, HaloExchangeTest,
    ::testing::Values(
        Variant{HaloDiscipline::Fifo, true, "Fifo"},
        Variant{HaloDiscipline::Reliable, true, "Reliable"},
        Variant{HaloDiscipline::Switch, true, "Switch"},
        Variant{HaloDiscipline::Switch, false, "SwitchFivePoint"}));

TEST(HaloExchangeTest, DoubleBeginRoundRejected) {
  wse::Fabric fabric(2, 1);
  bool threw = false;
  fabric.load([&](Coord2 coord, Coord2 fs) {
    class Bad : public wse::PeProgram, private HaloExchange::Client {
     public:
      Bad(Coord2 c, Coord2 f)
          : exchange_(c, f, 1, HaloDiscipline::Fifo, true, this) {}
      void configure_router(wse::Router& r) override {
        exchange_.configure_router(r);
      }
      void on_start(wse::PeApi& api) override {
        exchange_.begin_round(api, v_);
        exchange_.begin_round(api, v_);  // while round 1 is in flight
      }
      void on_data(wse::PeApi& api, wse::Color c, wse::Dir from,
                   std::span<const u32> d) override {
        exchange_.on_data(api, c, from, d);
      }

     private:
      void on_block(wse::PeApi&, mesh::Face, wse::Dsd) override {}
      void on_round_complete(wse::PeApi&,
                             const HaloExchange::FaceBlocks&) override {}

      std::vector<f32> v_{1.0f};
      HaloExchange exchange_;
    };
    return std::make_unique<Bad>(coord, fs);
  });
  try {
    (void)fabric.run();
  } catch (const ContractViolation& e) {
    threw = std::string(e.what()).find("round is in flight") !=
            std::string::npos;
  }
  EXPECT_TRUE(threw);
}

/// The routes a PE's exchange must install, each switch table built
/// afresh from nested vectors for every PE and color: the oracle of the
/// tests below.
class VectorBuiltRoutes final : public wse::PeProgram {
 public:
  VectorBuiltRoutes(Coord2 coord, Coord2 fabric, Variant variant)
      : coord_(coord), fabric_(fabric), variant_(variant) {}

  void configure_router(wse::Router& router) override {
    using wse::ColorConfig;
    using wse::Dir;
    using wse::RouteRule;
    const auto pass_through = [](Dir move) {
      return ColorConfig({wse::position(
          {RouteRule{Dir::Ramp, {move}},
           RouteRule{wse::opposite(move), {Dir::Ramp}}})});
    };
    for (const wse::Color c : kCardinalColors) {
      const Dir move = movement_dir(c);
      const Dir up = upstream_dir(c);
      const Coord3 off = mesh::face_offset(cardinal_face(c));
      const Coord2 nb{coord_.x + off.x, coord_.y + off.y};
      const bool upstream =
          nb.x >= 0 && nb.x < fabric_.x && nb.y >= 0 && nb.y < fabric_.y;
      const i32 axis =
          (move == Dir::East || move == Dir::West) ? coord_.x : coord_.y;
      if (variant_.discipline != HaloDiscipline::Switch) {
        router.configure(c, pass_through(move));
      } else if (!upstream) {
        router.configure(c, ColorConfig({wse::position(Dir::Ramp, {move})}));
      } else if (axis % 2 == 0) {
        router.configure(c, ColorConfig({wse::position(Dir::Ramp, {move}),
                                         wse::position(up, {Dir::Ramp})}));
      } else {
        router.configure(c, ColorConfig({wse::position(up, {Dir::Ramp}),
                                         wse::position(Dir::Ramp, {move})}));
      }
    }
    if (variant_.diagonals) {
      for (const wse::Color c : kDiagonalColors) {
        router.configure(c, pass_through(movement_dir(c)));
      }
    }
    if (variant_.discipline == HaloDiscipline::Reliable) {
      for (const wse::Color c : kNackColors) {
        router.configure(c, pass_through(nack_movement_dir(c)));
      }
    }
  }
  void on_start(wse::PeApi&) override {}
  void on_data(wse::PeApi&, wse::Color, wse::Dir,
               std::span<const u32>) override {}

 private:
  Coord2 coord_;
  Coord2 fabric_;
  Variant variant_;
};

/// Distinct switch tables over every router and color of `fabric`: its
/// RoutePool stores each once, so equal tables share one address.
[[nodiscard]] usize distinct_tables(const wse::Fabric& fabric) {
  std::set<const wse::ColorConfig*> tables;
  for (i32 y = 0; y < fabric.height(); ++y) {
    for (i32 x = 0; x < fabric.width(); ++x) {
      for (u8 c = 0; c < wse::Color::kMaxColors; ++c) {
        if (fabric.router(x, y).configured(wse::Color{c})) {
          tables.insert(&fabric.router(x, y).config(wse::Color{c}));
        }
      }
    }
  }
  return tables.size();
}

/// Loads the exchange and the oracle on two `size` fabrics of `threads`
/// host threads and expects every router to hold the same routes.
void expect_oracle_routes(Coord2 size, i32 threads, Variant variant) {
  SCOPED_TRACE(::testing::Message() << variant.name << " diagonals="
                                    << variant.diagonals << " on " << size.x
                                    << 'x' << size.y << ", " << threads
                                    << " thread(s)");
  wse::ExecutionOptions exec;
  exec.threads = threads;
  wse::Fabric fabric(size.x, size.y, {}, wse::PeMemory::kDefaultBudget, exec);
  fabric.load([&](Coord2 coord, Coord2 fs) {
    return std::make_unique<HaloProbe>(coord, fs, 1, 1, variant);
  });
  wse::Fabric oracle(size.x, size.y);
  oracle.load([&](Coord2 coord, Coord2 fs) {
    return std::make_unique<VectorBuiltRoutes>(coord, fs, variant);
  });
  for (i32 y = 0; y < size.y; ++y) {
    for (i32 x = 0; x < size.x; ++x) {
      for (u8 id = 0; id < wse::Color::kMaxColors; ++id) {
        const wse::Color c{id};
        const wse::Router& got = fabric.router(x, y);
        const wse::Router& want = oracle.router(x, y);
        ASSERT_TRUE(got.config(c) == want.config(c))
            << "PE(" << x << ',' << y << ") color " << int{id};
        ASSERT_EQ(got.configure_count(c), want.configure_count(c));
        ASSERT_EQ(got.current_position(c), want.current_position(c));
      }
    }
  }
  EXPECT_EQ(distinct_tables(fabric), distinct_tables(oracle));
}

constexpr std::array<Variant, 6> kEveryVariant = {
    Variant{HaloDiscipline::Switch, true, "Switch"},
    Variant{HaloDiscipline::Switch, false, "Switch"},
    Variant{HaloDiscipline::Fifo, true, "Fifo"},
    Variant{HaloDiscipline::Fifo, false, "Fifo"},
    Variant{HaloDiscipline::Reliable, true, "Reliable"},
    Variant{HaloDiscipline::Reliable, false, "Reliable"}};

// First in its suite, so a process that runs the suite alone (as the
// race check does) builds the switch tables inside the row-parallel load.
TEST(HaloSwitchTablesTest, RowParallelLoadMatchesTheVectorBuiltOracle) {
  const Coord2 size{64, 64};
  static_assert(64 * 64 >= wse::kParallelMinPes);
  for (const Variant& variant : kEveryVariant) {
    expect_oracle_routes(size, 4, variant);
  }
}

TEST(HaloSwitchTablesTest, EveryRouterMatchesTheVectorBuiltOracle) {
  for (const Coord2 size : {Coord2{6, 5}, Coord2{7, 4}}) {
    for (const Variant& variant : kEveryVariant) {
      expect_oracle_routes(size, 1, variant);
    }
  }
}

}  // namespace
}  // namespace fvf::dataflow
