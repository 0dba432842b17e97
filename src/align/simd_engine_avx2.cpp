// AVX2 engines, compiled with -mavx2 in their own translation unit.
// Each engine is a row of the engine table (simd_engine.cpp), which runs it
// behind a runtime CPU check. Four engines live here: 16 x i16, 8 x i32,
// 32 x u8 (biased saturating), and the adaptive driver pairing the 32 x u8
// kernel with a 32-lane i16 escalation path (VecOps splits its 64-byte
// vector over two YMM registers; simd_engine_avx512.cpp holds the
// one-register variant). The AVX2 traceback fill (8 x i32) is here too.
#include "align/engine.hpp"
#include "align/engine_detail.hpp"
#include "align/simd_engine_impl.hpp"
#include "align/traceback_fill.hpp"
#include "align/vec_ops.hpp"

namespace repro::align::detail {
namespace {

template <typename T, int Lanes>
using Avx2 = VecOps<T, Lanes, Isa::kAvx2>;

}  // namespace

std::unique_ptr<Engine> make_simd_avx2_engine(int stripe_cols) {
  return std::make_unique<SimdEngineT<Avx2<std::int16_t, 16>>>("simd16-avx2",
                                                               stripe_cols);
}

std::unique_ptr<Engine> make_simd_avx2_32_engine(int stripe_cols) {
  return std::make_unique<SimdEngineT<Avx2<Score, 8>>>("simd8x32-avx2",
                                                       stripe_cols);
}

std::unique_ptr<Engine> make_simd_avx2_u8_engine(int stripe_cols) {
  return std::make_unique<SimdEngineT<Avx2<std::uint8_t, 32>>>("simd32x8-avx2",
                                                               stripe_cols);
}

std::unique_ptr<Engine> make_adaptive_avx2_engine(int stripe_cols) {
  return std::make_unique<
      AdaptiveEngineT<Avx2<std::uint8_t, 32>, Avx2<std::int16_t, 32>>>(
      "auto-avx2", stripe_cols);
}

TracebackMatrix fill_traceback_avx2(const GroupJob& job) {
  return fill_traceback<Avx2<Score, 8>>(job);
}

}  // namespace repro::align::detail
