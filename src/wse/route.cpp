#include "wse/route.hpp"

namespace fvf::wse {

namespace {

/// Bucket of `config`: a word-wise multiplicative hash whose top bits
/// (which depend on every bit of every word) pick the bucket.
[[nodiscard]] usize bucket_of(const ColorConfig& config,
                              usize bucket_bits) noexcept {
  constexpr u64 kGolden = 0x9e3779b97f4a7c15ULL;
  u64 hash = config.position_count() * kGolden;
  for (usize p = 0; p < config.position_count(); ++p) {
    for (usize in = 0; in < kLinkCount; ++in) {
      hash = (hash ^ config.packed_row(p)[in]) * kGolden;
    }
  }
  return static_cast<usize>(hash >> (64 - bucket_bits));
}

}  // namespace

RoutePool::RoutePool() {
  // Id 0, the unconfigured table, lives in the first chunk from the start
  // so table(0) needs no special case.
  chunks_[0].store(new Entry[kChunkSize], std::memory_order_release);
}

RoutePool::~RoutePool() {
  for (std::atomic<Entry*>& chunk : chunks_) {
    delete[] chunk.load(std::memory_order_relaxed);
  }
}

u16 RoutePool::find(usize bucket, const ColorConfig& config) const noexcept {
  for (u16 id = buckets_[bucket].load(std::memory_order_acquire); id != 0;) {
    const Entry& entry =
        chunks_[id >> kChunkBits].load(std::memory_order_acquire)
            [id & kChunkMask];
    if (entry.config == config) {
      return id;
    }
    id = entry.next;
  }
  return 0;
}

u16 RoutePool::intern(const ColorConfig& config) {
  if (!config.configured()) {
    return 0;
  }
  const usize bucket = bucket_of(config, kBucketBits);
  if (const u16 id = find(bucket, config); id != 0) {
    return id;
  }
  const std::lock_guard<std::mutex> lock(insert_mutex_);
  // Another thread may have inserted the table since the lock-free look.
  if (const u16 id = find(bucket, config); id != 0) {
    return id;
  }
  FVF_REQUIRE_MSG(size_ <= kMaxTables,
                  "route pool exhausted: more than "
                      << kMaxTables
                      << " distinct switch tables on one fabric");
  const auto id = static_cast<u16>(size_);
  std::atomic<Entry*>& chunk = chunks_[id >> kChunkBits];
  if (chunk.load(std::memory_order_relaxed) == nullptr) {
    chunk.store(new Entry[kChunkSize], std::memory_order_release);
  }
  Entry& entry = chunk.load(std::memory_order_relaxed)[id & kChunkMask];
  entry.config = config;
  entry.next = buckets_[bucket].load(std::memory_order_relaxed);
  buckets_[bucket].store(id, std::memory_order_release);
  ++size_;
  return id;
}

}  // namespace fvf::wse
