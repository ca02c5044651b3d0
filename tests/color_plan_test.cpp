// Tests of the dataflow::ColorPlan registry (layer 1 of the dataflow
// runtime): canonical block positions pinned to the pre-refactor color
// constants, conflict diagnostics naming both claimants, and claims
// beyond the 16 managed colors.
#include <gtest/gtest.h>

#include <string>

#include "common/assert.hpp"
#include "dataflow/color_plan.hpp"
#include "dataflow/colors.hpp"

namespace fvf::dataflow {
namespace {

// --- canonical blocks ---------------------------------------------------------

TEST(ColorPlanTest, CardinalBlockMatchesWireConstants) {
  ColorPlan plan;
  const ColorBlock block = plan.claim_cardinal("tpfa cardinal exchange");
  EXPECT_EQ(block.base, ColorSpace::kCardinalBase);
  EXPECT_EQ(block.count, ColorSpace::kBlockSize);
  EXPECT_EQ(block.at(0), kEastData);
  EXPECT_EQ(block.at(1), kWestData);
  EXPECT_EQ(block.at(2), kNorthData);
  EXPECT_EQ(block.at(3), kSouthData);
  EXPECT_EQ(plan.owner_of(kNorthData), "tpfa cardinal exchange");
}

TEST(ColorPlanTest, DiagonalBlockMatchesWireConstants) {
  ColorPlan plan;
  const ColorBlock block = plan.claim_diagonal("diag");
  EXPECT_EQ(block.base, ColorSpace::kDiagonalBase);
  EXPECT_EQ(block.count, ColorSpace::kBlockSize);
  EXPECT_EQ(block.at(0), kDiagSouth);
  EXPECT_EQ(block.at(3), kDiagWest);
}

TEST(ColorPlanTest, AllReduceBlockMatchesPreRefactorColors) {
  // The CG/transport reduce trees historically sat on colors 8..11 in the
  // order row-reduce, col-reduce, row-bcast, col-bcast; results are
  // bit-compared against goldens recorded with that layout, so the plan
  // must keep handing out exactly these colors.
  ColorPlan plan;
  const wse::AllReduceColors colors = plan.claim_allreduce("cg dot-product");
  EXPECT_EQ(colors.row_reduce, wse::Color{8});
  EXPECT_EQ(colors.col_reduce, wse::Color{9});
  EXPECT_EQ(colors.row_bcast, wse::Color{10});
  EXPECT_EQ(colors.col_bcast, wse::Color{11});
  for (u8 c = 8; c < 12; ++c) {
    EXPECT_TRUE(plan.claimed(wse::Color{c}));
    EXPECT_EQ(plan.owner_of(wse::Color{c}), "cg dot-product");
  }
}

TEST(ColorPlanTest, NackBlockMatchesPreRefactorColors) {
  // The halo reliability layer's retransmit requests historically used
  // colors 12..15 (one per cardinal direction).
  ColorPlan plan;
  const ColorBlock block = plan.claim_nack("halo retransmit");
  EXPECT_EQ(block.base, ColorSpace::kNackBase);
  EXPECT_EQ(block.count, ColorSpace::kBlockSize);
  EXPECT_EQ(block.at(0), wse::Color{12});
  EXPECT_EQ(block.at(0), kNackEast);
  EXPECT_EQ(block.at(3), wse::Color{15});
  EXPECT_EQ(block.at(3), kNackSouth);
}

TEST(ColorPlanTest, CanonicalBlocksAreDisjoint) {
  // All four canonical claims together tile the managed space exactly.
  ColorPlan plan;
  plan.claim_cardinal("cardinal");
  plan.claim_diagonal("diagonal");
  plan.claim_allreduce("allreduce");
  plan.claim_nack("nack");
  for (u8 c = 0; c < ColorPlan::kManagedColors; ++c) {
    EXPECT_TRUE(plan.claimed(wse::Color{c})) << "color " << static_cast<int>(c);
  }
}

// --- conflicts ----------------------------------------------------------------

TEST(ColorPlanTest, ConflictNamesBothClaimants) {
  ColorPlan plan;
  plan.claim_cardinal("cg halo exchange");
  try {
    plan.claim("second solver", ColorSpace::kCardinalBase, 1);
    FAIL() << "expected ContractViolation";
  } catch (const ContractViolation& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("cg halo exchange"), std::string::npos) << message;
    EXPECT_NE(message.find("second solver"), std::string::npos) << message;
  }
}

TEST(ColorPlanTest, PartialOverlapIsAConflict) {
  // Overlapping even one color of an existing block must fail.
  ColorPlan plan;
  plan.claim("a", 2, 4);  // colors 2..5
  EXPECT_THROW(plan.claim("b", 5, 2), ContractViolation);
  EXPECT_THROW(plan.claim("b", 0, 3), ContractViolation);
  // Adjacent blocks are fine.
  EXPECT_NO_THROW(plan.claim("b", 6, 2));
  EXPECT_NO_THROW(plan.claim("c", 0, 2));
}

TEST(ColorPlanTest, ClaimBeyondManagedSpaceIsRejected) {
  ColorPlan plan;
  EXPECT_THROW(plan.claim("too high", ColorPlan::kManagedColors, 1),
               ContractViolation);
  EXPECT_THROW(plan.claim("straddles the end", 14, 4), ContractViolation);
}

}  // namespace
}  // namespace fvf::dataflow
