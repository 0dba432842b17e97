// Score-only alignment engines.
//
// Engines compute the bottom rows of one *group* of neighbouring rectangles
// (paper §4.1: SIMD engines process 4/8/16 consecutive splits in one
// interleaved sweep; scalar engines process one). The finder layers —
// sequential, shared-memory, distributed — are all written against this
// interface.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "align/types.hpp"

namespace repro::align {

/// Element precision a kernel computes in. Saturating precisions (i8, i16)
/// clamp at their ceiling and detect the clamp per sweep; i32 is effectively
/// unbounded for realistic inputs. Adaptive engines start every group at i8
/// and escalate to i16 when the saturation guard fires.
enum class Precision { kI8, kI16, kI32, kAdaptive };

/// Adaptive-precision and query-profile activity since engine construction
/// (all zero for engines without SIMD profiles). Escalated groups are swept
/// twice on their first alignment (once per precision), so
/// i8_sweeps + i16_sweeps >= alignments_performed() with equality only when
/// nothing escalated.
struct PrecisionStats {
  std::uint64_t i8_sweeps = 0;        ///< group sweeps run in u8 lanes
  std::uint64_t i16_sweeps = 0;       ///< group sweeps run in i16 lanes
  std::uint64_t escalations = 0;      ///< i8 sweeps re-run at i16 (sticky)
  std::uint64_t profile_hits = 0;     ///< sweeps served by a cached profile
  std::uint64_t profile_builds = 0;   ///< query profiles (re)built
};

class Engine {
 public:
  virtual ~Engine() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Lanes per group; the finder schedules groups of exactly this many
  /// consecutive splits (the last group of a sequence may be partial).
  [[nodiscard]] virtual int lanes() const = 0;

  /// True when do_align honours GroupJob::resume / GroupJob::sink
  /// (checkpoint-resume realignment). Engines that ignore those fields are
  /// still correct — they always sweep from row 1 — but callers should not
  /// offer them resume state, and the wrapper gives them no cell discount.
  [[nodiscard]] virtual bool supports_checkpoints() const { return false; }

  /// Computes bottom rows for splits job.r0 .. job.r0+job.count-1.
  /// out[k] must have exactly m - (job.r0 + k) elements. Non-virtual: the
  /// wrapper centralizes the cell/alignment accounting (identical for every
  /// engine: lanes x rows x columns per group) and reports it to the global
  /// observability registry, so kernels never touch counters. Returns the
  /// DP rows restored from job.resume instead of computed: job.resume->row
  /// when the kernel took it, 0 when it swept from row 1 (no resume, an
  /// engine without checkpoint support, or a resume the kernel dropped).
  int align(const GroupJob& job, std::span<const std::span<Score>> out);

  /// Convenience wrapper for single-rectangle use (tests, traceback prep).
  std::vector<Score> align_one(const GroupJob& job);

  /// Cells computed since construction (each lane-cell counts once, so SIMD
  /// engines accumulate lanes x rows x columns — the quantity behind the
  /// paper's "more than a billion matrix entries per second"). Engines are
  /// single-threaded, so these are plain integers; the obs layer's shared
  /// counters are fed once per group alignment, never per cell.
  [[nodiscard]] std::uint64_t cells_computed() const { return cells_; }

  /// Group alignments performed since construction.
  [[nodiscard]] std::uint64_t alignments_performed() const { return aligns_; }

  /// Lane-cells skipped by checkpoint resumes (rows restored instead of
  /// computed); cells_computed() already excludes them.
  [[nodiscard]] std::uint64_t cells_skipped() const { return cells_skipped_; }

  /// Adaptive-precision / query-profile counters (zeros for engines without
  /// SIMD profiles). An escalated group's first alignment runs a u8 attempt
  /// (stopped at its first stripe past the u8 limit) and then a full i16
  /// sweep, yet the cell accounting above counts the group's lane-cells
  /// once, at its geometry; these counters make the extra sweep visible.
  [[nodiscard]] virtual PrecisionStats precision_stats() const { return {}; }

  void reset_counters() {
    cells_ = 0;
    aligns_ = 0;
    cells_skipped_ = 0;
  }

 protected:
  /// Engine kernel: computes the bottom rows. Implementations validate the
  /// job themselves (validate_job) and do no accounting.
  virtual void do_align(const GroupJob& job,
                        std::span<const std::span<Score>> out) = 0;

 private:
  std::uint64_t cells_ = 0;
  std::uint64_t aligns_ = 0;
  std::uint64_t cells_skipped_ = 0;
};

/// One value per engine; each has one row in engine_table() when its ISA is
/// compiled in. kSimdAuto alone has no row: it names the widest adaptive
/// row the host runs.
enum class EngineKind {
  kScalar,         ///< Fig. 3 recurrence, row-major, O(1)/cell
  kScalarStriped,  ///< scalar + cache-aware vertical striping (§4.1)
  kGeneralGap,     ///< Eq. 1 by explicit row/column scans, O(n)/cell — the
                   ///< per-cell cost model of the old (1993) algorithm
  kSimd4,          ///< 4 x i16 lanes (paper: Pentium III SSE)
  kSimd8,          ///< 8 x i16 lanes (paper: Pentium 4 SSE2)
  kSimd16,         ///< 16 x i16 lanes (AVX2; the paper's natural successor)
  kSimd4Generic,   ///< 4 scalar lanes, no intrinsics (portable reference)
  kSimd8Generic,   ///< 8 scalar lanes, no intrinsics (portable reference)
  kSimd4x32,       ///< 4 x i32 lanes (SSE4.1) — no saturation limit
  kSimd8x32,       ///< 8 x i32 lanes (AVX2) — no saturation limit
  kSimd4x32Generic,///< 4 scalar i32 lanes (portable reference)
  kSimd16x8,       ///< 16 x u8 lanes (SSE2, biased saturating arithmetic)
  kSimd32x8,       ///< 32 x u8 lanes (AVX2, biased saturating arithmetic)
  kSimd8x8Generic, ///< 8 scalar u8 lanes (portable reference)
  kSimdAuto,       ///< adaptive u8 -> i16 on the widest ISA available
  kSimdAutoGeneric,///< adaptive u8 -> i16, portable lanes (cross-check)
  kSimdAutoSse2,   ///< adaptive, 16 lanes, i16 in two XMM registers
  kSimdAutoAvx2,   ///< adaptive, 32 lanes, i16 in two YMM registers
  kSimdAutoAvx512  ///< adaptive, 32 lanes, i16 in one ZMM (AVX-512BW)
};

/// Instruction set an engine's kernel needs, in ascending order: of two
/// engines with the same precision and lane count, the later ISA wins.
enum class Isa { kPortable, kSse2, kSse41, kAvx2, kAvx512bw };

/// True when this build compiled `isa`'s kernels and the CPU runs them.
bool isa_available(Isa isa);

/// "generic" (the suffix of the portable engines' names), "sse2", "sse4.1",
/// "avx2" or "avx512bw".
const char* isa_name(Isa isa);

/// One row of the engine table: everything that tells two engines apart.
struct EngineSpec {
  EngineKind kind;
  const char* name;  ///< the `--engine` spelling
  Isa isa;
  Precision precision;
  int lanes;  ///< Engine::lanes() of the constructed engine
  std::unique_ptr<Engine> (*make)(int stripe_cols);

  [[nodiscard]] bool available() const { return isa_available(isa); }
};

/// Every engine this build compiled in, available on this CPU or not.
std::span<const EngineSpec> engine_table();

/// The row of `kind`; kSimdAuto resolves to best_engine(kAdaptive). Throws
/// when the kind's ISA was not compiled in.
const EngineSpec& engine_spec(EngineKind kind);

/// The row named `name`; "auto" and "best" resolve like kSimdAuto. Throws,
/// listing every row's name, when no row has that name.
const EngineSpec& engine_spec(std::string_view name);

/// The available row of `precision` with the most lanes, ties going to the
/// higher ISA. Every precision has a portable row, so this never fails.
const EngineSpec& best_engine(Precision precision);

/// Creates an engine; throws when this build or CPU cannot run it.
/// `stripe_cols` (0 = engine default, -1 = no striping) controls the
/// cache-aware striping of striped/SIMD engines.
std::unique_ptr<Engine> make_engine(EngineKind kind, int stripe_cols = 0);

/// make_engine(kSimdAuto): the adaptive engine on the widest ISA available.
std::unique_ptr<Engine> make_best_engine();

/// Factory for per-thread / per-rank engines (engines are not thread-safe;
/// every parallel worker owns one).
using EngineFactory = std::function<std::unique_ptr<Engine>()>;

/// Factory producing make_engine(kind, stripe_cols) instances.
EngineFactory engine_factory(EngineKind kind, int stripe_cols = 0);

/// isa_available(Isa::kAvx2).
bool avx2_available();

/// isa_available(Isa::kSse41).
bool sse41_available();

/// Element precision `kind` computes in (its row's precision).
Precision engine_precision(EngineKind kind);

/// True when a sequence of length m under `scoring` provably cannot reach
/// `precision`'s saturation certification limit: the all-match score of the
/// largest rectangle — min(r, m-r) pairs at matrix.max_score(), maximized at
/// r = m/2 — stays at or below the limit. The i16 limit is 32766 (a peak of
/// exactly 32767 is indistinguishable from a clamped add, so the kernels
/// treat it as saturated); the u8 limit is 255 - bias - max_score, with
/// bias = max(0, -matrix.min_score()) — the headroom one biased profile add
/// needs. u8 additionally requires the biased profile entries and both gap
/// penalties to fit in a byte. kI32/kAdaptive always fit.
bool precision_fits(Precision precision, int m, const seq::Scoring& scoring);

/// Upfront guard for explicit fixed-precision engine selection: throws with
/// an actionable message (naming `auto`, `scalar` and the multi-lane i32
/// engines this host runs) when precision_fits(engine_precision(kind), m,
/// scoring) is false. No-op for i32 and adaptive kinds, whose kernels cannot
/// (respectively, handle their own) saturation.
void check_headroom(EngineKind kind, int m, const seq::Scoring& scoring);

}  // namespace repro::align
