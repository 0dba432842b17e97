// Cache-line / SIMD-register aligned storage.
//
// The interleaved SIMD matrices (Fig. 7 of the paper) require 16-byte
// (SSE2), 32-byte (AVX2) or 64-byte (AVX-512) aligned rows; we align
// everything to 64 bytes so rows never straddle cache lines, which also
// serves the paper's cache-awareness discussion (§4.1).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace repro::util {

inline constexpr std::size_t kCacheLine = 64;

// The widest vector any engine loads from allocator-backed storage is a
// 64-byte AVX-512 register (the one-register i16 rung of the adaptive
// engine); the narrower kernels need 16 (SSE2) or 32 (AVX2) bytes.
// Cache-line alignment covers all of them.
static_assert(kCacheLine % 64 == 0,
              "aligned storage must satisfy 64-byte ZMM vector loads");

/// True when `p` is aligned to `align` bytes (by default the widest vector
/// any engine loads); kernels assert this on their scratch rows, with their
/// own vector's alignment, before issuing aligned loads.
inline bool is_vector_aligned(const void* p, std::size_t align = kCacheLine) {
  return reinterpret_cast<std::uintptr_t>(p) % align == 0;
}

/// Minimal std::allocator replacement with 64-byte alignment.
template <typename T>
struct AlignedAllocator {
  using value_type = T;

  AlignedAllocator() noexcept = default;
  template <typename U>
  // NOLINTNEXTLINE(google-explicit-constructor): rebinding converting ctor
  AlignedAllocator(const AlignedAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    if (n == 0) return nullptr;
    void* p = std::aligned_alloc(kCacheLine,
                                 ((n * sizeof(T) + kCacheLine - 1) / kCacheLine) *
                                     kCacheLine);
    if (p == nullptr) throw std::bad_alloc();
    return static_cast<T*>(p);
  }

  void deallocate(T* p, std::size_t) noexcept { std::free(p); }

  template <typename U>
  bool operator==(const AlignedAllocator<U>&) const noexcept {
    return true;
  }
};

}  // namespace repro::util
