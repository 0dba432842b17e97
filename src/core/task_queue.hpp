// Group task bookkeeping and the best-first queue (paper Fig. 5 and §4.1).
//
// Rectangles are scheduled in fixed groups of L consecutive splits (L = the
// engine's SIMD lane count; L = 1 degenerates to the paper's Fig.-5
// per-rectangle queue). Each member carries the score of its most recent
// alignment — an upper bound once the override triangle has grown — and the
// triangle version it was aligned against. A group's queue key is its best
// member's (score, split), so popping the queue yields exactly the task the
// sequential Fig.-5 algorithm would pick, independent of grouping.
//
// BestFirstSearch holds the search rules on top of them. Every finder drives
// it — the scheduler's threads, the cluster master's ranks and the virtual
// cluster's events — so their tops agree by construction.
#pragma once

#include <cstdint>
#include <optional>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "align/types.hpp"
#include "core/options.hpp"
#include "util/check.hpp"

namespace repro::core {

/// Sentinel "never aligned" score; orders above any real score (Fig. 5 line 4).
inline constexpr align::Score kScoreInf = align::Score{1} << 29;

/// Queue ordering key: higher score first, then smaller split.
struct TaskKey {
  align::Score score = 0;
  int r = 0;

  /// True when *this orders before (is preferred over) `o`.
  [[nodiscard]] bool before(const TaskKey& o) const {
    return score != o.score ? score > o.score : r < o.r;
  }
};

/// One group of consecutive splits with per-member alignment state.
struct GroupTask {
  int r0 = 1;
  int count = 1;
  std::vector<align::Score> score;  ///< per member; kScoreInf = never aligned
  std::vector<int> version;         ///< triangle version of last alignment; -1 = never

  GroupTask(int r0_, int count_)
      : r0(r0_),
        count(count_),
        score(static_cast<std::size_t>(count_), kScoreInf),
        version(static_cast<std::size_t>(count_), -1) {}

  /// Best member: maximum score, ties to the smallest split. This is the
  /// member the Fig.-5 task queue would pop first.
  [[nodiscard]] int best_member() const {
    int best = 0;
    for (int k = 1; k < count; ++k)
      if (score[static_cast<std::size_t>(k)] > score[static_cast<std::size_t>(best)])
        best = k;
    return best;
  }

  [[nodiscard]] TaskKey key() const {
    const int b = best_member();
    return {score[static_cast<std::size_t>(b)], r0 + b};
  }

  /// True when the best member was aligned against the current triangle.
  [[nodiscard]] bool best_up_to_date(int current_version) const {
    return version[static_cast<std::size_t>(best_member())] == current_version;
  }
};

/// Builds the fixed group partition for a sequence of length m: groups of
/// `lanes` consecutive splits 1..m-1 (the last group may be partial).
std::vector<GroupTask> make_groups(int m, int lanes);

/// Ordered queue of group indices, keyed by the groups' current TaskKeys.
/// Groups must be re-inserted after any state mutation (pop, mutate, push).
class GroupQueue {
 public:
  /// (key, group index) entries in queue order: TaskKey::before, then index.
  using Entry = std::pair<TaskKey, int>;
  struct Cmp {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.first.before(b.first)) return true;
      if (b.first.before(a.first)) return false;
      return a.second < b.second;
    }
  };

  void push(int group_index, TaskKey key);

  /// Pops the overall best group; nullopt when empty.
  std::optional<int> pop_best();

  /// Pops the best group for which `stale(index)` holds, skipping better
  /// up-to-date groups (BestFirstSearch::begin_sweep's pick).
  template <typename Pred>
  std::optional<int> pop_best_if(Pred&& stale) {
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (stale(it->second)) {
        const int g = it->second;
        entries_.erase(it);
        pops_ += 1;
        return g;
      }
      stale_skips_ += 1;
    }
    return std::nullopt;
  }

  /// Key and group index of the current head; nullopt when empty.
  [[nodiscard]] std::optional<Entry> peek() const;

  /// Lifetime push / pop counts and the number of up-to-date entries skipped
  /// over by pop_best_if while hunting for a stale group (a direct measure of
  /// how speculative the shared-memory scheduler had to get). Plain integers:
  /// every caller already serializes queue access.
  [[nodiscard]] std::uint64_t pushes() const { return pushes_; }
  [[nodiscard]] std::uint64_t pops() const { return pops_; }
  [[nodiscard]] std::uint64_t stale_skips() const { return stale_skips_; }

 private:
  std::set<Entry, Cmp> entries_;
  std::uint64_t pushes_ = 0;
  std::uint64_t pops_ = 0;
  std::uint64_t stale_skips_ = 0;
};

/// A sweep handed out by BestFirstSearch::begin_sweep.
struct Sweep {
  int group = -1;
  int version = 0;     ///< triangle version the members are aligned against
  bool quiet = false;  ///< no acceptance was running when the sweep began
};

/// A queue head taken for acceptance: its group, split and queued score.
struct Head {
  int group = -1;
  int r = 0;
  align::Score score = 0;
};

/// The best-first search of §3 (Fig. 5) with §4.2's speculative sweeps: the
/// groups, the queue, the bounds of sweeps in flight and the triangle
/// version. Callers serialise every call. A driver accepts the head while
/// verdict() allows it (take_head, trace back, accepted_head); otherwise it
/// hands begin_sweep()'s group to a worker and later commits or cancels the
/// sweep. The accepted tops are the sequential algorithm's however many
/// workers run and however their sweeps interleave.
class BestFirstSearch {
 public:
  /// kAccept: take the head now. kWait: a sweep must start or finish first.
  /// kStop: enough tops, or no remaining alignment reaches min_score.
  enum class Verdict { kWait, kAccept, kStop };

  BestFirstSearch(int m, int lanes, const FinderOptions& options);

  /// The number of tops accepted so far.
  [[nodiscard]] int version() const { return version_; }
  [[nodiscard]] const GroupTask& group(int gi) const {
    return groups_[static_cast<std::size_t>(gi)];
  }
  [[nodiscard]] const GroupQueue& queue() const { return queue_; }

  /// The acceptance rule: no acceptance is running, the head's best member
  /// is up to date, no sweep in flight holds a bound ordering before it
  /// (scores only fall as the triangle grows, so that sweep might still win)
  /// and, under RescanPolicy::kExhaustiveSweep, no member anywhere is stale.
  [[nodiscard]] Verdict verdict() const;

  /// Pops the best group due for a sweep — its best member is stale, or any
  /// member under kExhaustiveSweep — and holds its key as an in-flight bound.
  std::optional<Sweep> begin_sweep();
  /// Requeues an unfinished sweep's group under its unchanged key.
  void cancel_sweep(const Sweep& sweep);
  /// Stores the members' new scores and version, counts each as a first
  /// alignment, realignment or speculative recompute, and requeues the group.
  void commit_sweep(const Sweep& sweep, std::span<const align::Score> scores);
  /// Bumps stale members provably unchanged since their versions
  /// (low-memory untouched lanes) to the sweep's version.
  void commit_unchanged(const Sweep& sweep);

  /// Pops the head; verdict() must be kAccept.
  Head take_head();
  /// The taken head is traced back: advances the version, requeues the group.
  void accepted_head(const Head& head);

  /// The run's stats. The search writes first_alignments, realignments,
  /// exhaustive_realignments, speculative, skipped_realignments and
  /// tracebacks; drivers add the rest.
  [[nodiscard]] FinderStats& stats() { return stats_; }

 private:
  [[nodiscard]] bool due(const GroupTask& g) const;
  void end_flight(int gi);

  RescanPolicy policy_;
  std::uint64_t rectangles_;  ///< m-1: one exhaustive sweep's realignments
  align::Score min_score_;
  int num_tops_;
  std::vector<GroupTask> groups_;
  GroupQueue queue_;
  std::set<GroupQueue::Entry, GroupQueue::Cmp> inflight_;
  int version_ = 0;
  bool accepting_ = false;
  align::Score last_accepted_ = kScoreInf;
  FinderStats stats_;
};

}  // namespace repro::core
