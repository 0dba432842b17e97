// One group sweep: the step every driver of the search repeats (paper §3,
// §4.2, §4.3). A group of neighbouring rectangles is aligned score-only under
// the override triangle, and each member scores the best end of its bottom
// row, shadow-rejected against its empty-triangle original.
//
// The scheduler's thread workers, the cluster's worker ranks and the
// virtual-cluster oracle each own one GroupSweep per engine. It builds the
// jobs and holds the output rows, checkpoint sinks and resume copies, so
// steady-state sweeps allocate nothing. The drivers keep what differs: the
// scheduler its run lock and checkpoint cache, the cluster its messaging.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "align/engine.hpp"
#include "align/override_triangle.hpp"
#include "seq/scoring.hpp"
#include "seq/sequence.hpp"

namespace repro::core {

/// The job for splits r0 .. r0+count-1 of `s` under `overrides` (nullptr:
/// the empty triangle).
align::GroupJob group_job(const seq::Sequence& s, const seq::Scoring& scoring,
                          int r0, int count,
                          const align::OverrideTriangle* overrides);

/// Checkpoint state of one sweep class: the sweep's own, or the paired
/// plain sweep's.
struct SweepCheckpoints {
  align::CheckpointSink sink;  ///< rows the last sweep staged for a cache
  align::CheckpointRow copy;   ///< a cache copies the resume row here
  /// Resume point offered to the next sweep (usually a view of `copy`),
  /// which consumes it.
  std::optional<align::CheckpointView> resume;
};

class GroupSweep {
 public:
  /// With `checkpoints_per_sweep` > 0 every sweep stages checkpoint rows on
  /// the grid ceil(rows / checkpoints_per_sweep) plus the row above the
  /// group; with 0 it stages none.
  GroupSweep(const seq::Sequence& s, const seq::Scoring& scoring,
             align::Engine& engine, int checkpoints_per_sweep);

  [[nodiscard]] align::Engine& engine() const { return engine_; }
  [[nodiscard]] SweepCheckpoints& checkpoints() { return main_.ckpt; }
  [[nodiscard]] SweepCheckpoints& plain_checkpoints() { return plain_.ckpt; }

  /// Sweeps group (r0, count) under `overrides` (nullptr: a version-0
  /// sweep), after its plain rows when `paired_plain` (the low-memory
  /// originals). Returns the DP rows the engine restored from resume points
  /// instead of computing.
  int sweep(int r0, int count, const align::OverrideTriangle* overrides,
            bool paired_plain);

  /// Recomputes the plain rows of group (r0, count) — with count 1, one
  /// original row — and returns member k's. The last sweep's own rows stay.
  std::span<const align::Score> recompute_original(int r0, int count, int k);

  /// Member k's bottom row from the last sweep().
  [[nodiscard]] std::span<const align::Score> row(int k) const;

  /// The archived or fetched original row of split r.
  using OriginalRow = std::function<std::span<const std::int16_t>(int r)>;

  /// Member scores of the last sweep(), shadow-rejected against
  /// `original(r)` when given, else against the paired plain rows; a
  /// version-0 sweep needs neither. Valid until the next call.
  std::span<const align::Score> scores(const OriginalRow& original = {});

 private:
  struct Side {
    SweepCheckpoints ckpt;
    std::vector<std::vector<align::Score>> rows;
    std::vector<std::span<align::Score>> outs;
  };

  int run(Side& side, int r0, int count,
          const align::OverrideTriangle* overrides);

  const seq::Sequence& s_;
  const seq::Scoring& scoring_;
  align::Engine& engine_;
  int checkpoints_per_sweep_;
  Side main_;
  Side plain_;
  int r0_ = 0;
  int count_ = 0;
  bool overridden_ = false;  ///< the last sweep ran under a triangle
  bool paired_ = false;      ///< plain_ holds the last sweep's originals
  std::vector<align::Score> scores_;
};

}  // namespace repro::core
