// AVX-512BW adaptive engine, compiled with -mavx512bw in its own
// translation unit; make_engine(kSimdAuto) picks its row behind a runtime
// CPU check. It is auto-avx2 with a one-register i16 rung: the u8 sweep still
// runs 32 lanes in one YMM register (VecOps never pads a vector into a
// wider register), and an escalated group's 32 i16 lanes fit one ZMM
// register instead of a YMM pair. Lane count, group geometry, checkpoint
// layout (c*32 + k, two bytes per element) and therefore every scheduler
// counter are those of auto-avx2; only the instruction count of an i16
// sweep changes.
#include "align/engine.hpp"
#include "align/engine_detail.hpp"
#include "align/simd_engine_impl.hpp"
#include "align/vec_ops.hpp"

namespace repro::align::detail {

std::unique_ptr<Engine> make_adaptive_avx512_engine(int stripe_cols) {
  return std::make_unique<
      AdaptiveEngineT<VecOps<std::uint8_t, 32, Isa::kAvx512bw>,
                      VecOps<std::int16_t, 32, Isa::kAvx512bw>>>("auto-avx512",
                                                                stripe_cols);
}

}  // namespace repro::align::detail
