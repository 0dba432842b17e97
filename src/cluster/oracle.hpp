// Memoising alignment oracle for the virtual-cluster simulator.
//
// The Fig.-8 experiment measures scaling to 128 processors on hardware this
// reproduction does not have; the VirtualCluster replays the *real*
// scheduling algorithm under virtual time. The oracle supplies the real
// alignment scores that drive those scheduling decisions: group member
// scores as a function of (group, triangle version), computed with a real
// engine and cached. Because the acceptance sequence is deterministic (the
// same guard as the sequential finder), triangle state at version v is
// identical across simulations with different processor counts, so cached
// scores are shared by the whole sweep — only the small fraction of
// speculative realignments a particular processor count provokes is
// computed fresh.
//
// The same determinism carries over to the simulator's failure model
// (ClusterModel::worker_failure_times): a task lost to a worker death is
// requeued and recomputed at the then-current version, so member_scores is
// simply consulted again — scores are a pure function of (group, version),
// which is exactly why the live protocol's recovery preserves the accepted
// sequence.
#pragma once

#include <map>
#include <vector>

#include "align/bottom_row_store.hpp"
#include "align/engine.hpp"
#include "align/override_triangle.hpp"
#include "core/group_sweep.hpp"
#include "core/options.hpp"
#include "core/task_queue.hpp"
#include "seq/scoring.hpp"
#include "seq/sequence.hpp"

namespace repro::cluster {

class AlignmentOracle {
 public:
  AlignmentOracle(const seq::Sequence& s, const seq::Scoring& scoring,
                  align::Engine& engine);

  [[nodiscard]] const seq::Sequence& sequence() const { return s_; }
  [[nodiscard]] int lanes() const;

  /// Resets the replayed triangle to version 0 for a fresh simulation.
  void begin_run();

  [[nodiscard]] int version() const { return version_; }

  /// Member scores of group `gi` aligned against the current triangle.
  /// Cached across runs; `expected_version` must equal version().
  const std::vector<align::Score>& member_scores(int gi, int expected_version);

  /// Advances the triangle by accepting split r with the given score; the
  /// acceptance sequence is recorded on the first run and verified (and the
  /// traceback skipped) on replays. Returns the accepted alignment.
  const core::TopAlignment& accept(int r, align::Score expected);

  /// Alignments actually computed by the engine (cache misses) — the
  /// speculation-overhead measure ("up to 8.4 % more alignments", §5.2).
  [[nodiscard]] std::uint64_t computed_alignments() const { return computed_; }

  [[nodiscard]] const std::vector<core::TopAlignment>& accepted() const {
    return accepted_;
  }

 private:
  const seq::Sequence& s_;
  const seq::Scoring& scoring_;
  core::GroupSweep sweep_;
  align::OverrideTriangle triangle_;
  align::BottomRowStore rows_;
  std::vector<core::GroupTask> layout_;  // geometry only (r0, count)
  int version_ = 0;
  std::map<std::pair<int, int>, std::vector<align::Score>> cache_;
  std::vector<core::TopAlignment> accepted_;
  std::uint64_t computed_ = 0;
};

}  // namespace repro::cluster
