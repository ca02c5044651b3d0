#include "lint/routing_index.hpp"

#include <iterator>
#include <utility>

#include "wse/route.hpp"
#include "wse/router.hpp"

namespace fvf::lint::detail {

namespace {

using wse::Color;

/// Packs the kLinkCount node words of one configured (color, PE): the
/// union over the config's packed switch positions, outputs in
/// first-occurrence order.
void pack_words(const wse::ColorConfig& config, u32* words) {
  const usize positions = config.position_count();
  for (usize in = 0; in < wse::kLinkCount; ++in) {
    u32 word = kConfiguredBit;
    usize accepting = 0;
    u32 count = 0;
    u32 seen = 0;
    for (usize p = 0; p < positions; ++p) {
      const u32 rule = config.packed_row(p)[in];
      if (rule == 0) {
        continue;
      }
      ++accepting;
      for (u32 i = 0; i < wse::route_output_count(rule); ++i) {
        const auto out = static_cast<u32>(wse::route_output(rule, i));
        const u32 bit = 1u << out;
        if ((seen & bit) != 0) {
          continue;
        }
        seen |= bit;
        word |= out << (kOutputShift + 3 * count);
        ++count;
      }
    }
    word |= count << kCountShift;
    if (accepting > 0) {
      word |= kAcceptsBit;
    }
    if (positions >= 2 && accepting >= 1 && accepting < positions) {
      word |= kParkableBit;
    }
    words[in] = word;
  }
}

}  // namespace

RoutingIndex::RoutingIndex(const wse::Fabric& fabric, ThreadPool& pool)
    : fabric_(fabric), pe_count_(static_cast<usize>(fabric.pe_count())) {
  const auto width = static_cast<usize>(fabric.width());

  // Pass 1: the colors each router configures.
  std::vector<u32> configured_at(pe_count_, 0);
  pool.run_indexed(fabric.height(), [&](i64 row) {
    const auto y = static_cast<i32>(row);
    for (i32 x = 0; x < fabric.width(); ++x) {
      const wse::Router& router = fabric.router(x, y);
      u32 mask = 0;
      for (u8 c = 0; c < Color::kMaxColors; ++c) {
        if (router.config(Color{c}).configured()) {
          mask |= color_bit(Color{c});
        }
      }
      configured_at[pe_index(Coord2{x, y})] = mask;
    }
  });
  u32 anywhere = 0;
  for (const u32 mask : configured_at) {
    anywhere |= mask;
  }
  slot_of_.fill(kNoSlot);
  for (u8 c = 0; c < Color::kMaxColors; ++c) {
    if ((anywhere & color_bit(Color{c})) != 0) {
      slot_of_[c] = colors_.size();
      colors_.push_back(Color{c});
    }
  }
  words_.assign(colors_.size() * node_count(), 0);
  data_sends_.assign(pe_count_, 0);
  control_sends_.assign(pe_count_, 0);
  in_flight_.assign(colors_.size() * pe_count_, 0);

  // Pass 2, per row: routing words and the declaration digest. Rows write
  // disjoint words and PE entries; the variable-length declarations land
  // in per-row buffers, flattened below in raster order.
  struct RowDeclarations {
    std::vector<usize> dependency_counts;
    std::vector<wse::ChannelDependency> dependencies;
    std::vector<DeclaredFold> folds;
  };
  std::vector<RowDeclarations> rows(static_cast<usize>(fabric.height()));
  pool.run_indexed(fabric.height(), [&](i64 row) {
    const auto y = static_cast<i32>(row);
    RowDeclarations& declared = rows[static_cast<usize>(row)];
    declared.dependency_counts.assign(width, 0);
    for (i32 x = 0; x < fabric.width(); ++x) {
      const usize p = pe_index(Coord2{x, y});
      const wse::Router& router = fabric.router(x, y);
      for (usize slot = 0; slot < colors_.size(); ++slot) {
        if ((configured_at[p] & color_bit(colors_[slot])) != 0) {
          pack_words(router.config(colors_[slot]),
                     &words_[slot * node_count() + p * wse::kLinkCount]);
        }
      }
      const wse::PeProgram* program = fabric.pe(x, y).program();
      if (program == nullptr) {
        continue;
      }
      for (const wse::SendDeclaration& send : program->send_declarations()) {
        (send.control ? control_sends_ : data_sends_)[p] |=
            color_bit(send.color);
        const usize slot = slot_of_[send.color.id()];
        if (slot != kNoSlot) {
          in_flight_[slot * pe_count_ + p] += send.in_flight;
        }
      }
      const std::vector<wse::ChannelDependency> deps =
          program->channel_dependencies();
      declared.dependency_counts[static_cast<usize>(x)] = deps.size();
      declared.dependencies.insert(declared.dependencies.end(), deps.begin(),
                                   deps.end());
      for (wse::ReductionDeclaration& reduction :
           program->reduction_declarations()) {
        if (reduction.folds_in_arrival_order) {
          declared.folds.push_back(DeclaredFold{p, std::move(reduction)});
        }
      }
    }
  });

  dependency_offsets_.assign(pe_count_ + 1, 0);
  usize p = 0;
  for (RowDeclarations& declared : rows) {
    for (const usize count : declared.dependency_counts) {
      dependency_offsets_[p + 1] = dependency_offsets_[p] + count;
      ++p;
    }
    dependencies_.insert(dependencies_.end(), declared.dependencies.begin(),
                         declared.dependencies.end());
    folds_.insert(folds_.end(), std::make_move_iterator(declared.folds.begin()),
                  std::make_move_iterator(declared.folds.end()));
  }
}

}  // namespace fvf::lint::detail
