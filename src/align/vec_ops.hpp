// The lane-ops policy of every SIMD engine: VecOps<T, Lanes, Isa> over
// GCC/Clang `vector_size` types. The coarse-grained kernel
// (simd_kernel.hpp) is templated over it.
//
// The paper (§4.1) notes that the lanes are data-independent, so a
// vectorizing compiler can handle them. Here it does: zero, set1, load,
// store, max, and_ and the i32 adds/subs are plain vector expressions, and
// the -m flags of the translation unit that instantiates a row pick its
// instructions. Only the saturating u8/i16 adds/subs (the Farrar/SSW
// arithmetic) go through the intrinsic hook saturate_reg: GCC 12 expands
// the equivalent vector expressions into 2-10 instructions where the ISA
// has one. Isa::kPortable rows use a branch-free formula instead.
//
// A lane vector is kParts parts of one native register each: 16 bytes for
// SSE2, SSE4.1 and portable rows, 32 for AVX2, 64 for AVX-512BW. So a
// vector wider than the register (i16 x 16 on SSE2, i16 x 32 on AVX2: the
// adaptive engines' escalation rung) is split into parts that each keep a
// register of their own, and a vector narrower than 16 bytes (4 x i16,
// 8 x u8) rides in the low half of one part: its loads and stores move
// only its own bytes. No part is ever wider than its translation unit's
// registers.
//
// Everything here sits in an unnamed namespace, and the Isa tag names the
// instructions a row may use: each per-ISA translation unit compiles its
// own copy with its own -m flags, so the linker can never hand an SSE2
// engine a copy built for AVX-512.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <utility>

#include "align/engine.hpp"

#if defined(__SSE2__)
#include <immintrin.h>
#endif

#if defined(__GNUC__)
#define REPRO_FORCE_INLINE inline __attribute__((always_inline))
#else
#define REPRO_FORCE_INLINE inline
#endif

namespace repro::align::detail {
namespace {

/// Register width, in bytes, of the ISA a row is compiled for. Portable
/// rows assume the common 128-bit SIMD unit (SSE2, NEON, WASM SIMD).
constexpr int register_bytes(Isa isa) {
  switch (isa) {
    case Isa::kAvx2:
      return 32;
    case Isa::kAvx512bw:
      return 64;
    default:
      return 16;
  }
}

#if defined(__SSE2__)
/// The intrinsic hook: one saturating u8 or i16 add (kAdd) or subtract on
/// one native register, of the width of the part P.
template <bool kAdd, typename T, typename P>
REPRO_FORCE_INLINE P saturate_reg(P a, P b) {
  constexpr bool kU8 = std::is_same_v<T, std::uint8_t>;
  if constexpr (sizeof(P) == 16) {
    const auto x = (__m128i)a;
    const auto y = (__m128i)b;
    if constexpr (kAdd)
      return (P)(kU8 ? _mm_adds_epu8(x, y) : _mm_adds_epi16(x, y));
    else
      return (P)(kU8 ? _mm_subs_epu8(x, y) : _mm_subs_epi16(x, y));
  }
#if defined(__AVX2__)
  if constexpr (sizeof(P) == 32) {
    const auto x = (__m256i)a;
    const auto y = (__m256i)b;
    if constexpr (kAdd)
      return (P)(kU8 ? _mm256_adds_epu8(x, y) : _mm256_adds_epi16(x, y));
    else
      return (P)(kU8 ? _mm256_subs_epu8(x, y) : _mm256_subs_epi16(x, y));
  }
#endif
#if defined(__AVX512BW__)
  if constexpr (sizeof(P) == 64) {
    const auto x = (__m512i)a;
    const auto y = (__m512i)b;
    if constexpr (kAdd)
      return (P)(kU8 ? _mm512_adds_epu8(x, y) : _mm512_adds_epi16(x, y));
    else
      return (P)(kU8 ? _mm512_subs_epu8(x, y) : _mm512_subs_epi16(x, y));
  }
#endif
}
#endif

/// The compiler vector of kBytes / sizeof(T) lanes of T (a class member,
/// so the attribute survives in templates). may_alias, as for __m128i:
/// parts are loaded from Elem rows.
template <typename T, int kBytes>
struct VectorOf {
  typedef T type __attribute__((vector_size(kBytes), may_alias));
};

/// Lanes of u8 (biased, saturating), i16 (saturating) or i32 (plain: scores
/// stay far inside i32, see simd_kernel.hpp) for the kernel's Ops policy.
template <typename T, int Lanes, Isa I>
struct VecOps {
  static_assert(std::is_same_v<T, std::uint8_t> ||
                    std::is_same_v<T, std::int16_t> ||
                    std::is_same_v<T, std::int32_t>,
                "lanes are u8, i16 or i32");
  static constexpr int kLanes = Lanes;
  using Elem = T;
  static constexpr bool kSaturating = sizeof(T) < 4;
  static constexpr int kBytes = Lanes * static_cast<int>(sizeof(T));
  static constexpr int kPartBytes =
      std::max(16, std::min(register_bytes(I), kBytes));
  static constexpr int kPartLanes = kPartBytes / static_cast<int>(sizeof(T));
  static constexpr int kParts = std::max(1, kBytes / kPartBytes);
  static_assert(kBytes == 8 || kParts * kPartBytes == kBytes,
                "a lane vector is 8 bytes or a whole number of parts");
  using Part = typename VectorOf<T, kPartBytes>::type;
  // An 8-byte lane vector moves as the low half of its part.
  using Halves = typename VectorOf<std::uint64_t, kPartBytes>::type;
  struct Vec {
    Part part[kParts];
  };

  static REPRO_FORCE_INLINE Vec zero() { return Vec{}; }
  static REPRO_FORCE_INLINE Vec set1(T x) {
    return build([x](std::size_t) { return Part{} + x; });
  }
  static REPRO_FORCE_INLINE Vec load(const T* p) {
    if constexpr (kBytes < kPartBytes) {
      std::uint64_t low;
      std::memcpy(&low, p, sizeof low);
      return Vec{{(Part)Halves{low}}};
    } else {
      return build([p](std::size_t i) {
        return *reinterpret_cast<const Part*>(p + i * kPartLanes);
      });
    }
  }
  static REPRO_FORCE_INLINE void store(T* p, Vec a) {
    if constexpr (kBytes < kPartBytes) {
      const std::uint64_t low = ((Halves)a.part[0])[0];
      std::memcpy(p, &low, sizeof low);
    } else {
      [&]<std::size_t... Is>(std::index_sequence<Is...>) {
        ((*reinterpret_cast<Part*>(p + Is * kPartLanes) = a.part[Is]), ...);
      }(std::make_index_sequence<kParts>{});
    }
  }
  static REPRO_FORCE_INLINE Vec max(Vec a, Vec b) {
    return build([&](std::size_t i) {
      return a.part[i] > b.part[i] ? a.part[i] : b.part[i];
    });
  }
  static REPRO_FORCE_INLINE Vec and_(Vec a, Vec b) {
    return build([&](std::size_t i) { return a.part[i] & b.part[i]; });
  }
  static REPRO_FORCE_INLINE Vec adds(Vec a, Vec b) {
    return build(
        [&](std::size_t i) { return add<true>(a.part[i], b.part[i]); });
  }
  static REPRO_FORCE_INLINE Vec subs(Vec a, Vec b) {
    return build(
        [&](std::size_t i) { return add<false>(a.part[i], b.part[i]); });
  }

  // The traceback fill's ops (traceback_fill.hpp), for vectors of exactly
  // one part.

  /// Load from an address of any alignment.
  static REPRO_FORCE_INLINE Vec loadu(const T* p) {
    static_assert(kParts == 1 && kBytes == kPartBytes);
    Vec v{};
    std::memcpy(&v.part[0], p, kBytes);
    return v;
  }
  /// Lane l takes lane l - N; the N lowest lanes take `fill`.
  template <int N>
  static REPRO_FORCE_INLINE Vec shift_up(Vec a, T fill) {
    static_assert(kParts == 1 && kBytes == kPartBytes && 0 < N && N < Lanes);
    const Part f = Part{} + fill;
    return [&]<int... Is>(std::integer_sequence<int, Is...>) {
      return Vec{{__builtin_shufflevector(a.part[0], f,
                                          (Is < N ? Lanes : Is - N)...)}};
    }(std::make_integer_sequence<int, Lanes>{});
  }
  /// The highest lane in every lane.
  static REPRO_FORCE_INLINE Vec broadcast_last(Vec a) {
    static_assert(kParts == 1 && kBytes == kPartBytes);
    return [&]<int... Is>(std::integer_sequence<int, Is...>) {
      return Vec{{__builtin_shufflevector(a.part[0], a.part[0],
                                          (Is - Is + Lanes - 1)...)}};
    }(std::make_integer_sequence<int, Lanes>{});
  }
  /// a with lane l zeroed wherever bit l of `bits` is set.
  static REPRO_FORCE_INLINE Vec zero_lanes(Vec a, std::uint64_t bits) {
    static_assert(kParts == 1 && kBytes == kPartBytes &&
                  Lanes <= 8 * static_cast<int>(sizeof(T)));
    const Part lane_bit = [&]<int... Is>(std::integer_sequence<int, Is...>) {
      return Part{static_cast<T>(T{1} << Is)...};
    }(std::make_integer_sequence<int, Lanes>{});
    const Part set = (Part{} + static_cast<T>(bits)) & lane_bit;
    return Vec{{a.part[0] & (Part)(set == 0)}};
  }

 private:
  /// The vector whose part i is f(i).
  template <class F>
  static REPRO_FORCE_INLINE Vec build(F f) {
    return [&]<std::size_t... Is>(std::index_sequence<Is...>) {
      return Vec{{f(Is)...}};
    }(std::make_index_sequence<kParts>{});
  }

  /// a + b (kAdd) or a - b on one part, saturating for u8 and i16 lanes.
  template <bool kAdd>
  static REPRO_FORCE_INLINE Part add(Part a, Part b) {
    if constexpr (!kSaturating) {
      return kAdd ? a + b : a - b;
#if defined(__SSE2__)
    } else if constexpr (I != Isa::kPortable) {
      return saturate_reg<kAdd, T>(a, b);
#endif
    } else if constexpr (std::is_unsigned_v<T>) {
      // u8: a + min(b, 255 - a) and max(a, b) - b never leave [0, 255].
      if constexpr (kAdd) {
        const Part room = ~a;
        return a + (b < room ? b : room);
      } else {
        return (a > b ? a : b) - b;
      }
    } else {
      // i16: wrap in unsigned lanes, then blend the bound of a's sign into
      // the lanes whose sign came out wrong (signed overflow).
      using UPart = typename VectorOf<std::uint16_t, kPartBytes>::type;
      const auto s = (Part)(kAdd ? (UPart)a + (UPart)b : (UPart)a - (UPart)b);
      const Part overflow =
          (kAdd ? (s ^ a) & (s ^ b) : (a ^ b) & (s ^ a)) >> 15;
      const Part bound = (a >> 15) ^ 0x7FFF;
      return (s & ~overflow) | (bound & overflow);
    }
  }
};

}  // namespace
}  // namespace repro::align::detail
