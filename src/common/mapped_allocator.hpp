/// \file mapped_allocator.hpp
/// \brief A standard allocator that maps every allocation as its own
///        anonymous memory region.
///
/// For a container holding one large array per owner (a fabric's
/// routers): freeing it unmaps the pages at once, and the array never
/// passes through malloc. glibc raises its mmap threshold to the size
/// of each freed mmapped block up to 32 MiB, so an array just under that
/// size would otherwise move every later allocation up to it onto the
/// heap arenas, where how much freed memory stays resident depends on
/// which thread allocated and freed what.
#pragma once

#include <cstddef>

namespace fvf {

/// Maps `bytes` (> 0) of zeroed, page-aligned read/write memory; throws
/// std::bad_alloc on failure.
[[nodiscard]] void* map_pages(std::size_t bytes);
/// Unmaps a region map_pages(bytes) returned.
void unmap_pages(void* pages, std::size_t bytes) noexcept;

template <class T>
struct MappedAllocator {
  using value_type = T;

  MappedAllocator() noexcept = default;
  template <class U>
  MappedAllocator(const MappedAllocator<U>&) noexcept {}

  [[nodiscard]] T* allocate(std::size_t n) {
    static_assert(alignof(T) <= 4096, "page alignment only");
    return static_cast<T*>(map_pages(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    unmap_pages(p, n * sizeof(T));
  }

  template <class U>
  bool operator==(const MappedAllocator<U>&) const noexcept {
    return true;
  }
};

}  // namespace fvf
