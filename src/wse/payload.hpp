/// \file payload.hpp
/// \brief Slab/arena storage for wavelet-block payloads.
///
/// Every data block moving through the fabric used to carry its own heap
/// `std::vector<u32>`, so the event hot path paid an allocation per send
/// and a full copy per forwarded hop and per queue pop. The arena replaces
/// that with chunked slabs handed out by 32-bit handle: allocation is a
/// free-list pop or a bump-pointer add, freeing is a free-list push, and
/// moving a payload between events is a handle assignment.
///
/// Handles are tile-local: each event-engine tile owns one arena, and only
/// the owning tile allocates or frees from it, so no synchronization is
/// needed. A payload crossing tiles is re-homed (copied into the
/// destination tile's arena) on the coordinating thread at the window
/// barrier — the only place cross-tile payload bytes move.
///
/// Pool internals (chunk layout, free-list order) never feed back into the
/// simulation: events are ordered by their (time, src, seq) birth keys and
/// payload *contents* are byte-identical however they are stored, so the
/// engine's bit-for-bit determinism across thread counts is unaffected.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "common/assert.hpp"
#include "common/types.hpp"

namespace fvf::wse {

/// Chunked slab allocator for u32 payload blocks, addressed by handle.
///
/// Layout: slabs of `kChunkWords` words; an allocation occupies one header
/// word (its word count) followed by exactly that many data words, so a
/// 24-word block takes 25 words. The handle encodes (chunk,
/// offset-of-data) in 32 bits. Freed blocks go on an intrusive free list
/// per word count (the next-handle link is stored in the block's first
/// data word) and are reused only by a block of the same size, so
/// steady-state traffic of a fixed block size allocates nothing. Blocks
/// larger than a chunk get a dedicated exactly-sized slab.
class PayloadArena {
 public:
  /// The null handle: "this event carries no payload bytes".
  static constexpr u32 kNull = 0xffffffffu;

  PayloadArena() = default;

  PayloadArena(const PayloadArena&) = delete;
  PayloadArena& operator=(const PayloadArena&) = delete;
  PayloadArena(PayloadArena&&) = default;
  PayloadArena& operator=(PayloadArena&&) = default;

  /// Allocates storage for `words` u32s (at least 1). O(1) amortized.
  [[nodiscard]] u32 alloc(u32 words) {
    const u32 size = words == 0 ? 1 : words;
    if (size < free_list_.size() && free_list_[size] != kNull) {
      const u32 handle = free_list_[size];
      free_list_[size] = *data(handle);  // intrusive next link
      return handle;
    }
    FVF_REQUIRE(size < kNull);
    const u32 block = size + 1;  // header + data
    if (block > kChunkWords) {
      // Oversized: a dedicated slab holding exactly this block.
      chunks_.push_back(std::make_unique<u32[]>(block));
      reserved_words_ += block;
      const u32 chunk = static_cast<u32>(chunks_.size() - 1);
      FVF_REQUIRE(chunk < kNull >> kOffsetBits);
      chunks_[chunk][0] = size;
      return (chunk << kOffsetBits) | 1u;
    }
    if (chunks_.empty() || cursor_ + block > kChunkWords) {
      chunks_.push_back(std::make_unique<u32[]>(kChunkWords));
      reserved_words_ += kChunkWords;
      FVF_REQUIRE(chunks_.size() - 1 < kNull >> kOffsetBits);
      bump_chunk_ = static_cast<u32>(chunks_.size() - 1);
      cursor_ = 0;
    }
    const u32 start = cursor_;
    cursor_ += block;
    chunks_[bump_chunk_][start] = size;
    return (bump_chunk_ << kOffsetBits) | (start + 1);
  }

  /// Returns a block to the free list of its word count. O(1) amortized:
  /// the list heads grow to the largest size freed so far, one word per
  /// size, never more than that block itself.
  void free(u32 handle) {
    u32* block = data(handle);
    const u32 size = block[-1];
    if (size >= free_list_.size()) {
      free_list_.resize(static_cast<usize>(size) + 1, kNull);
    }
    block[0] = free_list_[size];
    free_list_[size] = handle;
  }

  /// The block's data words (valid until freed).
  [[nodiscard]] u32* data(u32 handle) noexcept {
    return chunks_[handle >> kOffsetBits].get() + (handle & kOffsetMask);
  }
  [[nodiscard]] const u32* data(u32 handle) const noexcept {
    return chunks_[handle >> kOffsetBits].get() + (handle & kOffsetMask);
  }

  [[nodiscard]] std::span<const u32> view(u32 handle, u32 words) const noexcept {
    return {data(handle), static_cast<usize>(words)};
  }

  /// Copies `words` u32s out of `source` into a fresh block of this arena
  /// (cross-tile re-homing at a window barrier).
  [[nodiscard]] u32 clone_from(const PayloadArena& source, u32 handle,
                               u32 words) {
    const u32 moved = alloc(words);
    const u32* src = source.data(handle);
    u32* dst = data(moved);
    for (u32 i = 0; i < words; ++i) {
      dst[i] = src[i];
    }
    return moved;
  }

  /// Slab bytes currently reserved from the host heap.
  [[nodiscard]] usize reserved_bytes() const noexcept {
    return reserved_words_ * sizeof(u32);
  }

 private:
  static constexpr u32 kOffsetBits = 16;
  static constexpr u32 kOffsetMask = (1u << kOffsetBits) - 1;
  static constexpr u32 kChunkWords = 1u << kOffsetBits;

  std::vector<std::unique_ptr<u32[]>> chunks_;
  /// Head of each word count's free list, indexed by word count.
  std::vector<u32> free_list_;
  usize reserved_words_ = 0;
  u32 bump_chunk_ = 0;
  u32 cursor_ = 0;
};

}  // namespace fvf::wse
