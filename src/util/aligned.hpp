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
#include <memory>
#include <new>
#include <type_traits>

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

/// n uninitialised T at a cache-line boundary, for large buffers that are
/// written before they are read. The storage comes from plain operator new:
/// large aligned_alloc blocks freed per call raised the master/worker
/// finder's per-call peak RSS from 44 to 62 MiB (perfbench titin_cluster).
template <typename T>
class AlignedBuffer {
  static_assert(std::is_trivially_default_constructible_v<T>);

 public:
  explicit AlignedBuffer(std::size_t n)
      : storage_(
            std::make_unique_for_overwrite<T[]>(n + kCacheLine / sizeof(T))) {
    void* p = storage_.get();
    std::size_t space = (n * sizeof(T)) + kCacheLine;
    data_ = static_cast<T*>(std::align(kCacheLine, n * sizeof(T), p, space));
  }

  [[nodiscard]] T* data() { return data_; }
  [[nodiscard]] const T* data() const { return data_; }

 private:
  std::unique_ptr<T[]> storage_;
  T* data_;
};

}  // namespace repro::util
