/// \file counting_new.hpp
/// \brief A counting replacement for the global operator new/delete:
///        live heap blocks, live bytes, the high-water mark of live bytes
///        and the allocation calls made, for host-memory budgets and
///        measurements.
///
/// Include it from exactly one translation unit of a binary: it defines
/// the replacement operators. Bytes are malloc_usable_size, what the
/// allocator really holds, so an allocation and its free book the same
/// figure. Sanitizer runtimes (ASan, TSan) install their own operator
/// new; under them nothing is replaced, FVF_SANITIZED_ALLOCATOR is
/// defined and the counters stay zero.
#pragma once

#include <malloc.h>

#include <atomic>
#include <cstdlib>
#include <new>

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define FVF_SANITIZED_ALLOCATOR 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define FVF_SANITIZED_ALLOCATOR 1
#endif
#endif

namespace fvf::counting {
namespace detail {

inline std::atomic<long long> live_blocks{0};
inline std::atomic<long long> live_bytes{0};
inline std::atomic<long long> peak_bytes{0};
inline std::atomic<long long> allocations{0};

inline void count_alloc(void* p) noexcept {
  allocations.fetch_add(1, std::memory_order_relaxed);
  live_blocks.fetch_add(1, std::memory_order_relaxed);
  const auto bytes = static_cast<long long>(malloc_usable_size(p));
  const long long live =
      live_bytes.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  long long peak = peak_bytes.load(std::memory_order_relaxed);
  while (live > peak && !peak_bytes.compare_exchange_weak(
                            peak, live, std::memory_order_relaxed)) {
  }
}

inline void* alloc(std::size_t size) {
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  count_alloc(p);
  return p;
}

inline void* aligned_alloc(std::size_t size, std::align_val_t align) {
  const auto a = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  void* p = std::aligned_alloc(a, ((size == 0 ? 1 : size) + a - 1) / a * a);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  count_alloc(p);
  return p;
}

inline void free(void* p) noexcept {
  if (p != nullptr) {
    live_blocks.fetch_sub(1, std::memory_order_relaxed);
    live_bytes.fetch_sub(static_cast<long long>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
    std::free(p);
  }
}

}  // namespace detail

/// Heap blocks allocated through operator new and not yet freed.
[[nodiscard]] inline long long live_blocks() noexcept {
  return detail::live_blocks.load(std::memory_order_relaxed);
}
/// Usable bytes of those blocks.
[[nodiscard]] inline long long live_bytes() noexcept {
  return detail::live_bytes.load(std::memory_order_relaxed);
}
/// Largest live_bytes() since the last reset_peak().
[[nodiscard]] inline long long peak_bytes() noexcept {
  return detail::peak_bytes.load(std::memory_order_relaxed);
}
/// Allocation calls through operator new since the process started,
/// freed or not: a load that builds and drops temporaries per PE shows
/// here even when what it keeps does not grow.
[[nodiscard]] inline long long allocations() noexcept {
  return detail::allocations.load(std::memory_order_relaxed);
}
/// Restarts the high-water mark at the current live bytes.
inline void reset_peak() noexcept {
  detail::peak_bytes.store(live_bytes(), std::memory_order_relaxed);
}

}  // namespace fvf::counting

#ifndef FVF_SANITIZED_ALLOCATOR

void* operator new(std::size_t size) {
  return fvf::counting::detail::alloc(size);
}
void* operator new[](std::size_t size) {
  return fvf::counting::detail::alloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return fvf::counting::detail::aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return fvf::counting::detail::aligned_alloc(size, align);
}
void operator delete(void* p) noexcept { fvf::counting::detail::free(p); }
void operator delete[](void* p) noexcept { fvf::counting::detail::free(p); }
void operator delete(void* p, std::size_t) noexcept {
  fvf::counting::detail::free(p);
}
void operator delete[](void* p, std::size_t) noexcept {
  fvf::counting::detail::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept {
  fvf::counting::detail::free(p);
}
void operator delete[](void* p, std::align_val_t) noexcept {
  fvf::counting::detail::free(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  fvf::counting::detail::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  fvf::counting::detail::free(p);
}

#endif  // FVF_SANITIZED_ALLOCATOR
