#pragma once
/// \file aligned.hpp
/// \brief Storage helpers: cache-line alignment and uninitialized growth.
///
/// Hot shared arrays (mutex pools, per-thread accumulators) are padded to
/// cache-line boundaries to avoid false sharing between OpenMP threads.
/// Arrays that a builder overwrites in full (the COO arrays, the CSF
/// value stream) grow without a fill through DefaultInitAllocator.

#include <cstddef>
#include <cstdlib>
#include <memory>
#include <new>
#include <utility>
#include <vector>

namespace sptd {

/// Size of a destructive-interference-free block. 64 bytes on x86-64.
inline constexpr std::size_t kCacheLineBytes = 64;

/// Minimal aligned allocator for std::vector.
template <typename T, std::size_t Alignment = kCacheLineBytes>
struct AlignedAllocator {
  using value_type = T;

  // allocator_traits cannot rebind through the non-type Alignment
  // parameter automatically; spell it out.
  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Alignment>;
  };

  AlignedAllocator() noexcept = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Alignment>&) noexcept {}

  T* allocate(std::size_t n) {
    if (n == 0) return nullptr;
    void* p = ::operator new(n * sizeof(T), std::align_val_t(Alignment));
    return static_cast<T*>(p);
  }

  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, std::align_val_t(Alignment));
  }

  template <typename U>
  bool operator==(const AlignedAllocator<U, Alignment>&) const noexcept {
    return true;
  }
};

/// Vector whose buffer starts on a cache-line boundary.
template <typename T>
using aligned_vector = std::vector<T, AlignedAllocator<T>>;

/// Adapts allocator \p Base so that a value-less construct (what
/// vector::resize(n) calls per new entry) default-initializes: for a
/// trivial T the new entries are left unwritten, so growing an array the
/// caller then overwrites in full costs neither a fill pass nor a serial
/// first touch of its pages. Every other construct forwards to \p Base.
template <typename Base>
struct DefaultInitAllocator : Base {
  using Traits = std::allocator_traits<Base>;

  template <typename U>
  struct rebind {
    using other =
        DefaultInitAllocator<typename Traits::template rebind_alloc<U>>;
  };

  using Base::Base;
  DefaultInitAllocator() noexcept = default;

  template <typename U>
  void construct(U* p) {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    Traits::construct(static_cast<Base&>(*this), p,
                      std::forward<Args>(args)...);
  }
};

/// Vector whose resize() leaves new trivial entries unwritten.
template <typename T>
using uninit_vector = std::vector<T, DefaultInitAllocator<std::allocator<T>>>;

/// A T padded out to its own cache line — element i of an array of these
/// never false-shares with element i+1.
template <typename T>
struct alignas(kCacheLineBytes) CachePadded {
  T value{};
};

}  // namespace sptd
