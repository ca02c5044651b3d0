#include "common/mapped_allocator.hpp"

#include <sys/mman.h>

#include <new>

namespace fvf {

void* map_pages(std::size_t bytes) {
  void* pages = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (pages == MAP_FAILED) {
    throw std::bad_alloc();
  }
  return pages;
}

void unmap_pages(void* pages, std::size_t bytes) noexcept {
  munmap(pages, bytes);
}

}  // namespace fvf
