// SSE4.1 engine: 4 x i32 lanes — the 32-bit variant of the coarse-grained
// SIMD kernel, free of the i16 saturation limit (the paper notes the
// byte-width limit of earlier SIMD aligners "is too restrictive"; i16 moves
// the ceiling to 32767 and this engine removes it entirely).
// Compiled with -msse4.1 (its i32 max is pmaxsd) behind a runtime CPU check.
#include "align/engine.hpp"
#include "align/engine_detail.hpp"
#include "align/simd_engine_impl.hpp"
#include "align/vec_ops.hpp"

namespace repro::align::detail {

std::unique_ptr<Engine> make_simd_sse41_engine(int stripe_cols) {
  return std::make_unique<SimdEngineT<VecOps<Score, 4, Isa::kSse41>>>(
      "simd4x32-sse41", stripe_cols);
}

}  // namespace repro::align::detail
