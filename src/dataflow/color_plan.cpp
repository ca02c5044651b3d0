#include "dataflow/color_plan.hpp"

#include <sstream>

#include "common/assert.hpp"

namespace fvf::dataflow {

wse::Color ColorBlock::at(u8 i) const {
  FVF_REQUIRE(i < count);
  return wse::Color{static_cast<u8>(base + i)};
}

ColorBlock ColorPlan::claim(std::string_view owner, u8 base, u8 count) {
  FVF_REQUIRE_MSG(!owner.empty(), "color claims need an owner name");
  FVF_REQUIRE(count > 0);
  FVF_REQUIRE_MSG(base + count <= kManagedColors,
                  "claim [" << static_cast<int>(base) << ", "
                            << static_cast<int>(base + count)
                            << ") by '" << owner
                            << "' leaves the managed color space (0.."
                            << static_cast<int>(kManagedColors - 1) << ")");
  for (u8 c = base; c < base + count; ++c) {
    FVF_REQUIRE_MSG(owners_[c].empty(),
                    "color " << static_cast<int>(c)
                             << " claimed by both '" << owners_[c]
                             << "' and '" << owner << "'\n"
                             << describe());
  }
  for (u8 c = base; c < base + count; ++c) {
    owners_[c].assign(owner);
  }
  return ColorBlock{base, count};
}

ColorBlock ColorPlan::claim_cardinal(std::string_view owner) {
  return claim(owner, ColorSpace::kCardinalBase, ColorSpace::kBlockSize);
}

ColorBlock ColorPlan::claim_diagonal(std::string_view owner) {
  return claim(owner, ColorSpace::kDiagonalBase, ColorSpace::kBlockSize);
}

wse::AllReduceColors ColorPlan::claim_allreduce(std::string_view owner) {
  const ColorBlock block =
      claim(owner, ColorSpace::kAllReduceBase, ColorSpace::kBlockSize);
  return wse::AllReduceColors{block.at(0), block.at(1), block.at(2),
                              block.at(3)};
}

ColorBlock ColorPlan::claim_nack(std::string_view owner) {
  return claim(owner, ColorSpace::kNackBase, ColorSpace::kBlockSize);
}

std::string ColorPlan::describe() const {
  std::ostringstream os;
  os << "color map:";
  for (u8 c = 0; c < kManagedColors; ++c) {
    os << "\n  color " << static_cast<int>(c) << ": "
       << (owners_[c].empty() ? "<free>" : owners_[c]);
  }
  return os.str();
}

}  // namespace fvf::dataflow
