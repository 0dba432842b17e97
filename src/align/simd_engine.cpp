// The SSE2-baseline and portable SIMD engines, and the engine table, the
// one place that knows which engines exist.
//
// The 4-lane engine models the paper's Pentium III SSE configuration (4 x
// i16), the 8-lane engine its Pentium 4 SSE2 configuration (8 x i16); the
// AVX2 16-lane engine (separate TU) is the natural successor. Every row's
// lane ops are one VecOps<Elem, Lanes, Isa> (vec_ops.hpp); this TU
// instantiates the Isa::kSse2 and Isa::kPortable ones. Portable rows run
// the identical kernel on compiler vector types without intrinsics: they
// are every non-x86 build's engines, and a cross-check of the intrinsic
// rows in tests. Every engine, whatever its TU, is one row of kTable below:
// name, ISA, precision, lanes and constructor. The portable traceback fill
// (4 x i32) is instantiated here too.
#include "align/engine.hpp"

#include <limits>
#include <string>
#include <string_view>

#include "align/engine_detail.hpp"
#include "align/simd_engine_impl.hpp"
#include "align/simd_kernel.hpp"
#include "align/traceback_fill.hpp"
#include "align/vec_ops.hpp"
#include "obs/metrics.hpp"

namespace repro::align {
namespace detail {
namespace {

template <typename T, int Lanes>
using Portable = VecOps<T, Lanes, Isa::kPortable>;
template <typename T, int Lanes>
using Sse2 = VecOps<T, Lanes, Isa::kSse2>;

template <class E>
std::unique_ptr<Engine> make(const char* name, int stripe_cols) {
  return std::make_unique<E>(name, stripe_cols);
}

// One row per engine, grouped by precision, narrowest ISA first. A row whose
// ISA is compiled out is left out of the table.
constexpr EngineSpec kTable[] = {
    {EngineKind::kScalar, "scalar", Isa::kPortable, Precision::kI32, 1,
     [](int) { return make_scalar_engine(); }},
    {EngineKind::kScalarStriped, "striped", Isa::kPortable, Precision::kI32, 1,
     make_scalar_striped_engine},
    {EngineKind::kGeneralGap, "general-gap", Isa::kPortable, Precision::kI32,
     1, [](int) { return make_general_gap_engine(); }},
    {EngineKind::kSimd4x32Generic, "simd4x32-generic", Isa::kPortable,
     Precision::kI32, 4,
     [](int s) {
       return make<SimdEngineT<Portable<Score, 4>>>("simd4x32-generic", s);
     }},
#if REPRO_HAVE_SSE2
    {EngineKind::kSimd4x32, "simd4x32", Isa::kSse41, Precision::kI32, 4,
     make_simd_sse41_engine},
#endif
#if REPRO_ENABLE_AVX2
    {EngineKind::kSimd8x32, "simd8x32", Isa::kAvx2, Precision::kI32, 8,
     make_simd_avx2_32_engine},
#endif
    {EngineKind::kSimd4Generic, "simd4-generic", Isa::kPortable,
     Precision::kI16, 4,
     [](int s) {
       return make<SimdEngineT<Portable<std::int16_t, 4>>>("simd4-generic", s);
     }},
    {EngineKind::kSimd8Generic, "simd8-generic", Isa::kPortable,
     Precision::kI16, 8,
     [](int s) {
       return make<SimdEngineT<Portable<std::int16_t, 8>>>("simd8-generic", s);
     }},
#if REPRO_HAVE_SSE2
    {EngineKind::kSimd4, "simd4", Isa::kSse2, Precision::kI16, 4,
     [](int s) {
       return make<SimdEngineT<Sse2<std::int16_t, 4>>>("simd4-sse2", s);
     }},
    {EngineKind::kSimd8, "simd8", Isa::kSse2, Precision::kI16, 8,
     [](int s) {
       return make<SimdEngineT<Sse2<std::int16_t, 8>>>("simd8-sse2", s);
     }},
#endif
#if REPRO_ENABLE_AVX2
    {EngineKind::kSimd16, "simd16", Isa::kAvx2, Precision::kI16, 16,
     make_simd_avx2_engine},
#endif
    {EngineKind::kSimd8x8Generic, "simd8x8-generic", Isa::kPortable,
     Precision::kI8, 8,
     [](int s) {
       return make<SimdEngineT<Portable<std::uint8_t, 8>>>("simd8x8-generic",
                                                           s);
     }},
#if REPRO_HAVE_SSE2
    {EngineKind::kSimd16x8, "simd16x8", Isa::kSse2, Precision::kI8, 16,
     [](int s) {
       return make<SimdEngineT<Sse2<std::uint8_t, 16>>>("simd16x8-sse2", s);
     }},
#endif
#if REPRO_ENABLE_AVX2
    {EngineKind::kSimd32x8, "simd32x8", Isa::kAvx2, Precision::kI8, 32,
     make_simd_avx2_u8_engine},
#endif
    {EngineKind::kSimdAutoGeneric, "auto-generic", Isa::kPortable,
     Precision::kAdaptive, 8,
     [](int s) {
       return make<AdaptiveEngineT<Portable<std::uint8_t, 8>,
                                   Portable<std::int16_t, 8>>>("auto-generic",
                                                               s);
     }},
#if REPRO_HAVE_SSE2
    {EngineKind::kSimdAutoSse2, "auto-sse2", Isa::kSse2, Precision::kAdaptive,
     16,
     [](int s) {
       return make<AdaptiveEngineT<Sse2<std::uint8_t, 16>,
                                   Sse2<std::int16_t, 16>>>("auto-sse2", s);
     }},
#endif
#if REPRO_ENABLE_AVX2
    {EngineKind::kSimdAutoAvx2, "auto-avx2", Isa::kAvx2, Precision::kAdaptive,
     32, make_adaptive_avx2_engine},
    {EngineKind::kSimdAutoAvx512, "auto-avx512", Isa::kAvx512bw,
     Precision::kAdaptive, 32, make_adaptive_avx512_engine},
#endif
};

}  // namespace

TracebackMatrix fill_traceback_portable(const GroupJob& job) {
  return fill_traceback<Portable<Score, 4>>(job);
}

}  // namespace detail

void Engine::align(const GroupJob& job, std::span<const std::span<Score>> out) {
  do_align(job, out);
  const auto m = static_cast<std::uint64_t>(job.seq.size());
  const std::uint64_t width = m - static_cast<std::uint64_t>(job.r0);
  // Rows restored from a checkpoint are never computed; count them apart so
  // cells/sec stays an honest throughput number.
  const std::uint64_t resumed_rows =
      (job.resume != nullptr && supports_checkpoints())
          ? static_cast<std::uint64_t>(job.resume->row)
          : 0;
  const std::uint64_t group_cells =
      (static_cast<std::uint64_t>(job.r0 + job.count - 1) - resumed_rows) *
      width * static_cast<std::uint64_t>(lanes());
  const std::uint64_t skipped_cells =
      resumed_rows * width * static_cast<std::uint64_t>(lanes());
  cells_ += group_cells;
  cells_skipped_ += skipped_cells;
  aligns_ += 1;
  if constexpr (obs::kEnabled) {
    // Slots fetched once per process; per group alignment this is two
    // relaxed adds, and with REPRO_OBS=OFF the whole block vanishes.
    static obs::Counter& lane_cells =
        obs::Registry::global().counter("align.lane_cells");
    static obs::Counter& group_alignments =
        obs::Registry::global().counter("align.group_alignments");
    lane_cells.add(group_cells);
    group_alignments.add(1);
    if (skipped_cells > 0) {
      static obs::Counter& lane_cells_skipped =
          obs::Registry::global().counter("align.lane_cells_skipped");
      lane_cells_skipped.add(skipped_cells);
    }
  }
}

std::vector<Score> Engine::align_one(const GroupJob& job) {
  REPRO_CHECK(job.count == 1);
  const int m = static_cast<int>(job.seq.size());
  std::vector<Score> row(static_cast<std::size_t>(m - job.r0));
  std::span<Score> row_span(row);
  align(job, std::span<const std::span<Score>>(&row_span, 1));
  return row;
}

bool isa_available(Isa isa) {
  switch (isa) {
    case Isa::kPortable:
      return true;
#if REPRO_HAVE_SSE2
    case Isa::kSse2:
      return true;  // the x86-64 baseline
    case Isa::kSse41:
      return __builtin_cpu_supports("sse4.1") != 0;
#endif
#if REPRO_ENABLE_AVX2
    case Isa::kAvx2:
      return __builtin_cpu_supports("avx2") != 0;
    case Isa::kAvx512bw:
      return __builtin_cpu_supports("avx512bw") != 0;
#endif
    default:
      return false;  // not compiled in
  }
}

const char* isa_name(Isa isa) {
  static constexpr const char* kNames[] = {"generic", "sse2", "sse4.1", "avx2",
                                           "avx512bw"};
  return kNames[static_cast<int>(isa)];
}

std::span<const EngineSpec> engine_table() { return detail::kTable; }

const EngineSpec& best_engine(Precision precision) {
  const EngineSpec* best = nullptr;
  for (const EngineSpec& spec : detail::kTable)
    if (spec.precision == precision && spec.available() &&
        (best == nullptr || spec.lanes > best->lanes ||
         (spec.lanes == best->lanes && spec.isa > best->isa)))
      best = &spec;
  REPRO_CHECK(best != nullptr);  // every precision has a portable row
  return *best;
}

const EngineSpec& engine_spec(EngineKind kind) {
  if (kind == EngineKind::kSimdAuto) return best_engine(Precision::kAdaptive);
  for (const EngineSpec& spec : detail::kTable)
    if (spec.kind == kind) return spec;
  util::check_failed("engine_spec(kind)", __FILE__, __LINE__,
                     "engine kind " + std::to_string(static_cast<int>(kind)) +
                         " is not built into this library (its ISA is "
                         "compiled out)");
}

const EngineSpec& engine_spec(std::string_view name) {
  if (name == "auto" || name == "best")
    return engine_spec(EngineKind::kSimdAuto);
  std::string names;
  for (const EngineSpec& spec : detail::kTable) {
    if (spec.name == name) return spec;
    names += std::string(spec.name) + "|";
  }
  util::check_failed("engine_spec(name)", __FILE__, __LINE__,
                     "unknown engine '" + std::string(name) + "' (" + names +
                         "auto|best)");
}

std::unique_ptr<Engine> make_engine(EngineKind kind, int stripe_cols) {
  const EngineSpec& spec = engine_spec(kind);
  REPRO_CHECK_MSG(spec.available(), spec.name << " needs " << isa_name(spec.isa)
                                              << ", which this CPU lacks");
  return spec.make(stripe_cols);
}

std::unique_ptr<Engine> make_best_engine() {
  // The adaptive engine runs u8 lanes with lossless i16 escalation, so on
  // the widest ISA it dominates every fixed-precision choice.
  return make_engine(EngineKind::kSimdAuto);
}

EngineFactory engine_factory(EngineKind kind, int stripe_cols) {
  return [kind, stripe_cols] { return make_engine(kind, stripe_cols); };
}

bool avx2_available() { return isa_available(Isa::kAvx2); }

bool sse41_available() { return isa_available(Isa::kSse41); }

Precision engine_precision(EngineKind kind) {
  return engine_spec(kind).precision;
}

bool precision_fits(Precision precision, int m, const seq::Scoring& scoring) {
  if (precision == Precision::kI32 || precision == Precision::kAdaptive)
    return true;
  // Largest rectangle: min(r, m-r) residue pairs, maximized at r = m/2;
  // gaps only subtract, so this bounds every reachable score.
  const std::int64_t bound =
      static_cast<std::int64_t>(m / 2) * scoring.matrix.max_score();
  if (precision == Precision::kI16) {
    // 32766, not 32767: a peak of exactly INT16_MAX is indistinguishable
    // from a clamped add, so the kernels report it as saturated.
    return bound <= std::numeric_limits<std::int16_t>::max() - 1;
  }
  // kI8: the biased profile entries and the (cast) gap penalties must fit a
  // byte, and the score bound must leave one biased add of headroom below
  // the u8 ceiling (the kernel's certification limit).
  const int bias = std::max(0, -scoring.matrix.min_score());
  const int max_entry = scoring.matrix.max_score();
  if (bias + max_entry > 255 || scoring.gap.open > 255 ||
      scoring.gap.extend > 255)
    return false;
  return bound <= 255 - bias - max_entry;
}

void check_headroom(EngineKind kind, int m, const seq::Scoring& scoring) {
  const Precision p = engine_precision(kind);
  if (precision_fits(p, m, scoring)) return;
  std::string wider;
  // The multi-lane i32 rows and scalar: striped and general-gap are no
  // faster than scalar on the long sequences that get here.
  for (const EngineSpec& spec : engine_table())
    if (spec.precision == Precision::kI32 && spec.available() &&
        (spec.lanes > 1 || spec.kind == EngineKind::kScalar))
      wider += std::string(wider.empty() ? "" : ", ") + spec.name;
  const std::int64_t bound =
      static_cast<std::int64_t>(m / 2) * scoring.matrix.max_score();
  REPRO_CHECK_MSG(false, "sequence of length "
                             << m << " can reach score " << bound
                             << ", beyond the selected "
                             << (p == Precision::kI8 ? "u8" : "i16")
                             << " engine's saturation headroom — use the "
                                "adaptive engine (auto) or a wider one ("
                             << wider << ")");
}

}  // namespace repro::align
