// Options, statistics and result containers of the top-alignment finders.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "align/types.hpp"
#include "core/top_alignment.hpp"

namespace repro::core {

/// Realignment ordering (§3). kBestFirst is the paper's contribution: scores
/// from older override triangles are upper bounds, so realigning
/// best-score-first provably skips rectangles that cannot win (typically
/// 90–97 % of realignments). kExhaustiveSweep realigns every rectangle
/// before each acceptance — the old algorithm's schedule — and exists for
/// the ablation benches; both produce identical top alignments.
enum class RescanPolicy { kBestFirst, kExhaustiveSweep };

/// How first-alignment bottom rows (the shadow-rejection references and the
/// dominant data structure, Appendix A) are kept.
///   kArchiveRows    — the paper's implementation: m(m-1)/2 i16 entries.
///   kRecomputeRows  — the paper's proposed linear-memory variant: originals
///                     are recomputed on demand with an empty triangle. This
///                     costs one extra (override-free) alignment per
///                     realignment — and realignments are the rare case
///                     (best-first prunes ~97 %), so the total overhead is a
///                     few percent while the O(n^2) archive disappears.
enum class MemoryMode { kArchiveRows, kRecomputeRows };

/// How accepted alignments are reconstructed.
///   kFullMatrix  — the paper's traceback: recompute the rectangle's full
///                  matrix (rows x cols Scores) and walk back.
///   kLinearSpace — the memory-efficient traceback family the paper cites
///                  ("not covered here"): O(rows + cols) memory at ~2x the
///                  score-only work. Scores and validity are identical;
///                  among co-optimal paths it may mark different pairs, so
///                  runs are internally deterministic but not byte-identical
///                  to full-matrix runs beyond the first acceptance.
enum class TracebackMode { kFullMatrix, kLinearSpace };

struct FinderOptions {
  /// Top alignments requested; the paper uses 10–30, more for long
  /// sequences, 50 for Table 1 and up to 100 for Fig. 8.
  int num_top_alignments = 20;
  /// Stop early once no remaining alignment can reach this score.
  align::Score min_score = 1;
  RescanPolicy policy = RescanPolicy::kBestFirst;
  MemoryMode memory = MemoryMode::kArchiveRows;
  TracebackMode traceback = TracebackMode::kFullMatrix;
  /// Byte budget of the checkpoint-resume realignment cache (0 disables all
  /// incremental realignment, including the low-memory untouched-lane skip).
  /// The override triangle only grows, so DP rows above the topmost
  /// newly-overridden pair are identical between rounds; sweeps resume below
  /// the deepest clean checkpoint instead of recomputing from row 1. The
  /// parallel finder splits this budget evenly across worker threads. The
  /// master/worker finder (ranks > 1) keeps no checkpoint cache and ignores
  /// it.
  std::size_t checkpoint_mem = std::size_t{256} << 20;  // 256 MiB
  /// Checkpoint rows emitted per sweep: the grid stride is
  /// ceil(rows / checkpoints_per_sweep); the row just above the group is
  /// always emitted as well, so untouched groups resume at full depth.
  int checkpoints_per_sweep = 16;
};

struct FinderStats {
  std::uint64_t first_alignments = 0;  ///< score-only alignments, empty triangle
  std::uint64_t realignments = 0;      ///< demanded re-alignments (stale member)
  std::uint64_t speculative = 0;       ///< lane-mates recomputed while current
  std::uint64_t tracebacks = 0;        ///< accepted top alignments traced
  std::uint64_t queue_pops = 0;        ///< groups popped to sweep or accept
  std::uint64_t cells = 0;             ///< matrix lane-cells computed
  // Checkpoint-resume realignment cache (zero when disabled/unsupported):
  std::uint64_t ckpt_hits = 0;        ///< sweeps resumed from a checkpoint
  std::uint64_t ckpt_misses = 0;      ///< lookups that had to start at row 1
  std::uint64_t ckpt_evictions = 0;   ///< cache entries evicted by the budget
  std::uint64_t rows_skipped = 0;     ///< realignment DP rows restored, not swept
  std::uint64_t rows_swept = 0;       ///< realignment DP rows a from-scratch run sweeps
  std::uint64_t skipped_realignments = 0;  ///< low-memory untouched lanes bumped
  // Adaptive-precision SIMD (zero for engines without precision tracking):
  std::uint64_t i8_sweeps = 0;             ///< group sweeps run in u8 lanes
  std::uint64_t i16_sweeps = 0;            ///< group sweeps run in i16 lanes
  std::uint64_t precision_escalations = 0; ///< u8 sweeps re-run at i16
  std::uint64_t profile_hits = 0;          ///< sweeps reusing a cached profile
  /// Wall time inside realignment-phase sweeps (version > 0), summed over
  /// workers like idle_seconds.
  double realign_seconds = 0.0;
  /// Wall time inside acceptances (full-matrix traceback, score check and
  /// triangle update), the search's sequential part: one acceptance runs at
  /// a time.
  double traceback_seconds = 0.0;
  double seconds = 0.0;
  /// Wall time workers spent parked on the scheduler's condition variable,
  /// summed over workers (zero with one worker; the paper's §5.1
  /// speculation exists precisely to shrink this).
  double idle_seconds = 0.0;
};

struct FinderResult {
  std::vector<TopAlignment> tops;
  FinderStats stats;
};

}  // namespace repro::core
