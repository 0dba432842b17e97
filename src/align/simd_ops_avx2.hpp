// The 32 x u8 AVX2 lane policy, shared by the AVX2 and AVX-512BW engine
// translation units (both adaptive engines sweep u8 in one YMM register).
// Include it only from a TU compiled with -mavx2 or wider. It sits in an
// unnamed namespace so each TU gets its own copy, compiled for its own
// flags: a shared inline definition could let the linker hand the AVX2
// engine a copy built for AVX-512.
#pragma once

#include <immintrin.h>

#include <cstdint>

namespace repro::align::detail {
namespace {

/// Thirty-two unsigned u8 lanes in one YMM register (biased saturating
/// arithmetic; see simd_kernel.hpp for the bias/losslessness discussion).
struct Avx2Ops32x8 {
  static constexpr int kLanes = 32;
  using Elem = std::uint8_t;
  static constexpr bool kSaturating = true;
  using Vec = __m256i;
  static Vec zero() { return _mm256_setzero_si256(); }
  static Vec set1(std::uint8_t x) {
    return _mm256_set1_epi8(static_cast<char>(x));
  }
  static Vec load(const std::uint8_t* p) {
    return _mm256_load_si256(reinterpret_cast<const __m256i*>(p));
  }
  static void store(std::uint8_t* p, Vec a) {
    _mm256_store_si256(reinterpret_cast<__m256i*>(p), a);
  }
  static Vec max(Vec a, Vec b) { return _mm256_max_epu8(a, b); }
  static Vec adds(Vec a, Vec b) { return _mm256_adds_epu8(a, b); }
  static Vec subs(Vec a, Vec b) { return _mm256_subs_epu8(a, b); }
  static Vec and_(Vec a, Vec b) { return _mm256_and_si256(a, b); }
};

}  // namespace
}  // namespace repro::align::detail
