// AVX-512BW adaptive engine, compiled with -mavx512bw in its own
// translation unit; make_engine(kSimdAuto) picks its row behind a runtime
// CPU check. It is auto-avx2 with a one-register i16 rung: the u8 sweep still
// runs 32 lanes in one YMM register (simd_ops_avx2.hpp), and an escalated
// group's 32 i16 lanes fit one ZMM register instead of a double-pumped YMM
// pair. Lane count, group geometry, checkpoint layout (c*32 + k, two bytes
// per element) and therefore every scheduler counter are those of
// auto-avx2; only the instruction count of an i16 sweep changes.
#include <immintrin.h>

#include "align/engine.hpp"
#include "align/engine_detail.hpp"
#include "align/simd_engine_impl.hpp"
#include "align/simd_kernel.hpp"
#include "align/simd_ops_avx2.hpp"

namespace repro::align::detail {
namespace {

/// Thirty-two saturating i16 lanes in one ZMM register.
struct Avx512Ops32x16 {
  static constexpr int kLanes = 32;
  using Elem = std::int16_t;
  static constexpr bool kSaturating = true;
  using Vec = __m512i;
  static Vec zero() { return _mm512_setzero_si512(); }
  static Vec set1(std::int16_t x) { return _mm512_set1_epi16(x); }
  static Vec load(const std::int16_t* p) { return _mm512_load_si512(p); }
  static void store(std::int16_t* p, Vec a) { _mm512_store_si512(p, a); }
  static Vec max(Vec a, Vec b) { return _mm512_max_epi16(a, b); }
  static Vec adds(Vec a, Vec b) { return _mm512_adds_epi16(a, b); }
  static Vec subs(Vec a, Vec b) { return _mm512_subs_epi16(a, b); }
  static Vec and_(Vec a, Vec b) { return _mm512_and_si512(a, b); }
};

}  // namespace

std::unique_ptr<Engine> make_adaptive_avx512_engine(int stripe_cols) {
  return std::make_unique<AdaptiveEngineT<Avx2Ops32x8, Avx512Ops32x16>>(
      "auto-avx512", stripe_cols);
}

}  // namespace repro::align::detail
