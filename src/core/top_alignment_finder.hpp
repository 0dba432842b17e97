// The top-alignment algorithm (paper §3, Fig. 5, Appendix A) and its one
// scheduler, shared by the sequential and shared-memory (§4.2) finders.
//
// For a sequence S of length m, all m-1 prefix/suffix rectangles are first
// aligned score-only against the empty override triangle (their bottom rows
// are archived). Rectangles are then repeatedly taken best-score-first:
//   * if the best rectangle's score is stale (older triangle), it is
//     realigned — its new score is the shadow-rejected maximum of its bottom
//     row — and requeued;
//   * if it is current, it is *accepted*: its alignment is traced back, its
//     pairs are added to the override triangle, and the search continues for
//     the next top alignment.
// Scores under an older triangle are upper bounds for newer triangles, so
// best-first ordering is exact, not heuristic in the lossy sense: it skips
// only realignments that provably cannot produce the next top alignment.
//
// The engine decides the SIMD group width: with an L-lane engine, rectangles
// are scheduled in fixed groups of L neighbouring splits (§4.1); the
// accepted top alignments are identical for every engine and group width.
//
// The scheduler runs one worker per engine over core::BestFirstSearch
// (core/task_queue.hpp). With one worker this is exactly the sequential
// algorithm above; with more it is the paper's speculative shared-memory
// scheduler, and the tops stay identical for every worker count.
#pragma once

#include <span>
#include <string_view>

#include "align/engine.hpp"
#include "align/override_triangle.hpp"
#include "core/options.hpp"
#include "seq/sequence.hpp"

namespace repro::core {

/// Runs the new algorithm with the given engine: the scheduler with one
/// worker on the calling thread. Publishes stats under "finder.".
FinderResult find_top_alignments(const seq::Sequence& s,
                                 const seq::Scoring& scoring,
                                 const FinderOptions& options,
                                 align::Engine& engine);

/// Convenience overload using the widest SIMD engine available.
FinderResult find_top_alignments(const seq::Sequence& s,
                                 const seq::Scoring& scoring,
                                 const FinderOptions& options = {});

/// The scheduler: one worker per engine (all with the same lane count), the
/// first on the calling thread and each further one on its own thread.
/// Publishes the run's stats under `metrics_prefix` (see
/// publish_finder_stats) plus `<prefix>queue.pushes`,
/// `<prefix>queue.stale_skips`, `<prefix>threads` and one
/// `<prefix>idle_wait_sec.t<k>` timer per worker.
FinderResult run_scheduler(const seq::Sequence& s, const seq::Scoring& scoring,
                           const FinderOptions& options,
                           std::span<align::Engine* const> engines,
                           std::string_view metrics_prefix);

/// Accepts rectangle r as the next top alignment: traces back the best
/// valid end cell under `triangle` (shadow-rejected against `original_row`,
/// its empty-triangle bottom row) over the full matrix or in linear space
/// (`mode`), verifies the score equals `expected`, and marks the
/// alignment's pairs in `triangle`. The original row is a recomputed one
/// (T = align::Score, MemoryMode::kRecomputeRows) or an archived one
/// (T = std::int16_t), e.g. BottomRowStore::row(r) or the distributed
/// master's fetched row; both are instantiated.
template <typename T>
TopAlignment accept_alignment(const seq::Sequence& s,
                              const seq::Scoring& scoring,
                              align::OverrideTriangle& triangle,
                              std::span<const T> original_row, int r,
                              align::Score expected,
                              TracebackMode mode = TracebackMode::kFullMatrix);

/// An engine's counters at the start of a run. Engines may be reused across
/// runs (their query profile persists by design), so add_to() adds only the
/// lane-cells and precision sweeps since the snapshot to a run's stats.
struct EngineUsage {
  explicit EngineUsage(const align::Engine& e)
      : engine(e),
        cells0(e.cells_computed()),
        precision0(e.precision_stats()) {}
  void add_to(FinderStats& stats) const;

  const align::Engine& engine;
  std::uint64_t cells0;
  align::PrecisionStats precision0;
};

/// Publishes a finished run's FinderStats to the global obs registry under
/// `prefix` (e.g. "finder." / "parallel." / "cluster."): one counter per
/// stat, a `<prefix>seconds` timer, a `<prefix>cells_per_sec` gauge, and —
/// when at least two tops were accepted — `<prefix>realignments_avoided_pct`,
/// the §3 claim measured against the exhaustive-sweep baseline of
/// (tops-1)*(m-1) realignments. No-op when REPRO_OBS is off. Shared by the
/// scheduler and the distributed finder.
void publish_finder_stats(const FinderStats& stats, int m,
                          std::string_view prefix);

}  // namespace repro::core
