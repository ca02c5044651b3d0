/// \file array3d.hpp
/// \brief Owning 3-D array and non-owning 3-D span with the memory layout
///        used throughout the paper: X innermost, Z outermost.
///
/// Section 6 of the paper fixes the host/device layout as "X-dimension as
/// the innermost dimension and Z-dimension as the outermost dimension".
/// Every implementation in this repository (serial, GPU-style baselines,
/// and the per-PE Z-columns of the dataflow version) shares this layout so
/// results can be compared element-by-element.
#pragma once

#include <memory>
#include <new>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/types.hpp"

namespace fvf {

/// Shape of a 3-D Cartesian grid.
struct Extents3 {
  i32 nx = 0;
  i32 ny = 0;
  i32 nz = 0;

  [[nodiscard]] constexpr i64 cell_count() const noexcept {
    return static_cast<i64>(nx) * ny * nz;
  }

  /// Linear index with X innermost, Z outermost.
  [[nodiscard]] constexpr i64 linear(i32 x, i32 y, i32 z) const noexcept {
    return (static_cast<i64>(z) * ny + y) * nx + x;
  }

  [[nodiscard]] constexpr bool contains(i32 x, i32 y, i32 z) const noexcept {
    return x >= 0 && x < nx && y >= 0 && y < ny && z >= 0 && z < nz;
  }

  [[nodiscard]] constexpr Coord3 coord(i64 linear_index) const noexcept {
    const i64 plane = static_cast<i64>(nx) * ny;
    const i32 z = static_cast<i32>(linear_index / plane);
    const i64 rem = linear_index % plane;
    return Coord3{static_cast<i32>(rem % nx), static_cast<i32>(rem / nx), z};
  }

  friend constexpr bool operator==(const Extents3&, const Extents3&) = default;
};

/// Non-owning mutable or const view over a 3-D array.
template <typename T>
class Span3 {
 public:
  Span3() = default;
  Span3(T* data, Extents3 extents) : data_(data), extents_(extents) {}

  /// Span3<T> converts to Span3<const T> (same qualification rule as
  /// std::span).
  template <typename U>
    requires std::is_convertible_v<U (*)[], T (*)[]>
  Span3(const Span3<U>& other)  // NOLINT(google-explicit-constructor)
      : data_(other.data()), extents_(other.extents()) {}

  [[nodiscard]] Extents3 extents() const noexcept { return extents_; }
  [[nodiscard]] i64 size() const noexcept { return extents_.cell_count(); }
  [[nodiscard]] T* data() const noexcept { return data_; }

  [[nodiscard]] T& operator()(i32 x, i32 y, i32 z) const {
    FVF_ASSERT(extents_.contains(x, y, z));
    return data_[extents_.linear(x, y, z)];
  }

  [[nodiscard]] T& operator[](i64 i) const {
    FVF_ASSERT(i >= 0 && i < size());
    return data_[i];
  }

  [[nodiscard]] std::span<T> flat() const noexcept {
    return {data_, static_cast<usize>(size())};
  }

 private:
  T* data_ = nullptr;
  Extents3 extents_{};
};

/// Tag of the Array3 constructor that allocates without writing the
/// elements (std::make_unique_for_overwrite's contract): every element
/// must be written before it is read.
struct ForOverwrite {
  explicit ForOverwrite() = default;
};
inline constexpr ForOverwrite kForOverwrite{};

/// Owning 3-D array, value-initialised unless made kForOverwrite.
template <typename T>
class Array3 {
 public:
  Array3() = default;

  explicit Array3(Extents3 extents, T fill = T{})
      : extents_(extents),
        storage_(static_cast<usize>(extents.cell_count()), fill) {
    FVF_REQUIRE(extents.nx >= 0 && extents.ny >= 0 && extents.nz >= 0);
  }

  /// Allocates without writing: a build that fills the array from
  /// several threads leaves each page to the thread that writes it
  /// instead of zeroing the whole array on the calling thread first.
  Array3(Extents3 extents, ForOverwrite)
      : extents_(extents),
        storage_(static_cast<usize>(extents.cell_count())) {
    FVF_REQUIRE(extents.nx >= 0 && extents.ny >= 0 && extents.nz >= 0);
  }

  Array3(i32 nx, i32 ny, i32 nz, T fill = T{})
      : Array3(Extents3{nx, ny, nz}, fill) {}

  [[nodiscard]] Extents3 extents() const noexcept { return extents_; }
  [[nodiscard]] i64 size() const noexcept { return extents_.cell_count(); }

  [[nodiscard]] T& operator()(i32 x, i32 y, i32 z) {
    FVF_ASSERT(extents_.contains(x, y, z));
    return storage_[static_cast<usize>(extents_.linear(x, y, z))];
  }
  [[nodiscard]] const T& operator()(i32 x, i32 y, i32 z) const {
    FVF_ASSERT(extents_.contains(x, y, z));
    return storage_[static_cast<usize>(extents_.linear(x, y, z))];
  }

  [[nodiscard]] T& operator[](i64 i) { return storage_[static_cast<usize>(i)]; }
  [[nodiscard]] const T& operator[](i64 i) const {
    return storage_[static_cast<usize>(i)];
  }

  [[nodiscard]] Span3<T> span() noexcept {
    return Span3<T>(storage_.data(), extents_);
  }
  [[nodiscard]] Span3<const T> span() const noexcept {
    return Span3<const T>(storage_.data(), extents_);
  }

  [[nodiscard]] std::span<T> flat() noexcept { return storage_; }
  [[nodiscard]] std::span<const T> flat() const noexcept { return storage_; }

  void fill(T value) { storage_.assign(storage_.size(), value); }

 private:
  /// std::allocator whose element construction without arguments
  /// default-initialises: a kForOverwrite array's trivial elements are
  /// left unwritten.
  template <typename U>
  struct DefaultInitAllocator : std::allocator<U> {
    template <typename V>
    struct rebind {
      using other = DefaultInitAllocator<V>;
    };
    template <typename V, typename... Args>
    void construct(V* p, Args&&... args) {
      if constexpr (sizeof...(Args) == 0) {
        ::new (static_cast<void*>(p)) V;
      } else {
        ::new (static_cast<void*>(p)) V(std::forward<Args>(args)...);
      }
    }
  };

  Extents3 extents_{};
  std::vector<T, DefaultInitAllocator<T>> storage_;
};

}  // namespace fvf
