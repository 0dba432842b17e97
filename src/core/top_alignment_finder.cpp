#include "core/top_alignment_finder.hpp"

#include <algorithm>
#include <condition_variable>
#include <exception>
#include <limits>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "align/bottom_row_store.hpp"
#include "align/checkpoint_cache.hpp"
#include "align/linear_traceback.hpp"
#include "align/traceback.hpp"
#include "core/task_queue.hpp"
#include "obs/metrics.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"

namespace repro::core {
namespace {

/// The shared acceptance step: traces rectangle r back under `triangle`
/// (full-matrix or linear-space), verifies the traced score equals the
/// queued `expected`, marks the alignment's pairs and returns it.
template <typename T>
TopAlignment accept_with_row(const seq::Sequence& s, const seq::Scoring& scoring,
                             align::OverrideTriangle& triangle,
                             std::span<const T> original_row, int r,
                             align::Score expected, TracebackMode mode) {
  align::GroupJob job;
  job.seq = s.codes();
  job.scoring = &scoring;
  job.overrides = &triangle;
  job.r0 = r;
  job.count = 1;
  align::Traceback tb = mode == TracebackMode::kLinearSpace
                            ? align::traceback_best_linear(job, original_row)
                            : align::traceback_best(job, original_row);
  REPRO_CHECK_MSG(tb.score == expected,
                  "acceptance score mismatch at r=" << r << ": queued "
                                                    << expected << ", traced "
                                                    << tb.score);
  for (const auto& [i, j] : tb.pairs) triangle.set(i, j);
  TopAlignment top;
  top.r = r;
  top.score = tb.score;
  top.end_x = tb.end_x;
  top.pairs = std::move(tb.pairs);
  return top;
}

/// One worker's private state. Its checkpoint cache partition
/// (checkpoint_mem / workers) is touched only from the worker's own thread;
/// invalidations are replayed from the shared dirty list under the run lock
/// (`synced` is the replay cursor). Sinks, views and output rows are hoisted
/// here so steady-state realignments allocate nothing; the `plain_` ones
/// serve the empty-triangle sweeps of MemoryMode::kRecomputeRows.
struct Worker {
  explicit Worker(align::Engine& e) : engine(e), usage(e) {}

  align::Engine& engine;
  EngineUsage usage;
  std::optional<align::CheckpointCache> cache;
  int synced = 0;  ///< shared dirty entries already applied to `cache`
  align::CheckpointSink sink;
  align::CheckpointSink plain_sink;
  align::CheckpointView view;
  align::CheckpointView plain_view;
  std::vector<std::vector<align::Score>> rows;
  std::vector<std::vector<align::Score>> plain_rows;
  std::vector<std::span<align::Score>> outs;
  std::vector<std::span<align::Score>> plain_outs;
  double idle = 0.0;  ///< wall time parked on the condition variable
};

/// The best-first search (§3, Fig. 5) run by one or more workers (§4.2).
///
/// Each idle worker accepts the queue head when BestFirstSearch's rule
/// allows it, and otherwise takes the best group due for a sweep, realigns
/// it with its private engine and commits the scores. The accepted tops are
/// therefore identical for every worker count, and with one worker the loop
/// is exactly the sequential algorithm. Realignments that overlap an
/// acceptance are kept: their results are upper bounds for the grown
/// triangle and are simply requeued.
///
/// One mutex guards the search and everything else except the override
/// triangle (atomic bits; the accepting worker is its only writer), the
/// bottom-row archive (first alignments write disjoint rows before any
/// acceptance), and each worker's engine and cache.
class Scheduler {
 public:
  Scheduler(const seq::Sequence& s, const seq::Scoring& scoring,
            const FinderOptions& options,
            std::span<align::Engine* const> engines)
      : s_(s),
        scoring_(scoring),
        options_(options),
        m_(s.length()),
        search_(m_, engines.front()->lanes(), options),
        triangle_(m_) {
    REPRO_CHECK_MSG(&scoring.matrix.alphabet() == &s.alphabet(),
                    "scoring matrix alphabet does not match the sequence");
    if (options.memory == MemoryMode::kArchiveRows)
      rows_.emplace(m_);  // otherwise: Appendix-A linear-memory mode
    const std::size_t budget =
        std::max<std::size_t>(1, options.checkpoint_mem / engines.size());
    workers_.reserve(engines.size());
    for (align::Engine* e : engines) {
      REPRO_CHECK_MSG(e->lanes() == engines.front()->lanes(),
                      "all worker engines must have the same lane count");
      Worker& w = workers_.emplace_back(*e);
      w.rows.resize(static_cast<std::size_t>(e->lanes()));
      w.plain_rows.resize(static_cast<std::size_t>(e->lanes()));
      if (incremental() && e->supports_checkpoints()) w.cache.emplace(budget);
    }
  }

  /// Runs worker 0 on the calling thread and every further worker on its
  /// own thread, then publishes the run's stats under `metrics_prefix`.
  FinderResult run(std::string_view metrics_prefix) {
    util::WallTimer timer;
    std::vector<std::thread> threads;
    try {
      for (std::size_t k = 1; k < workers_.size(); ++k)
        threads.emplace_back([this, k] { work(workers_[k]); });
    } catch (...) {
      stop(std::current_exception());  // still join the threads started
    }
    work(workers_.front());
    for (auto& t : threads) t.join();
    if (error_) std::rethrow_exception(error_);

    FinderStats& stats = search_.stats();
    stats.seconds = timer.seconds();
    stats.queue_pops = search_.queue().pops();
    const auto key = [metrics_prefix](std::string_view name) {
      std::string k(metrics_prefix);
      k += name;
      return k;
    };
    for (std::size_t k = 0; k < workers_.size(); ++k) {
      const Worker& w = workers_[k];
      w.usage.add_to(stats);
      stats.idle_seconds += w.idle;
      if (w.cache) {
        const align::CheckpointCacheStats& cs = w.cache->stats();
        stats.ckpt_hits += cs.hits;
        stats.ckpt_misses += cs.misses;
        stats.ckpt_evictions += cs.evictions;
      }
      if constexpr (obs::kEnabled)
        obs::Registry::global()
            .timer(key("idle_wait_sec.t") + std::to_string(k))
            .add_seconds(w.idle);
    }
    if constexpr (obs::kEnabled) {
      auto& reg = obs::Registry::global();
      reg.counter(key("queue.pushes")).add(search_.queue().pushes());
      reg.counter(key("queue.stale_skips")).add(search_.queue().stale_skips());
      reg.counter(key("threads")).add(workers_.size());
    }
    publish_finder_stats(stats, m_, metrics_prefix);
    FinderResult res;
    res.tops = std::move(tops_);
    res.stats = stats;
    return res;
  }

 private:
  bool incremental() const { return options_.checkpoint_mem > 0; }

  int ckpt_stride(int rows) const {
    const int c = std::max(1, options_.checkpoints_per_sweep);
    return std::max(1, (rows + c - 1) / c);
  }

  /// Deepest plain-checkpoint row still usable by an *overridden* sweep of
  /// the group at r0: no accepted pair reaches rows at or above it. Caller
  /// holds the lock (dirty_ is shared).
  int plain_valid_limit(int r0) const {
    int md = align::PairDirtyIndex::kNoDirtyRow;
    for (const auto& d : dirty_) md = std::min(md, d.min_dirty_row(r0));
    return md == align::PairDirtyIndex::kNoDirtyRow
               ? std::numeric_limits<int>::max()
               : md - 1;
  }

  /// True when no pair accepted since a stale member's version intersects
  /// its rectangle — row and score are then provably unchanged. Caller holds
  /// the lock.
  bool group_untouched(const GroupTask& g) const {
    for (int k = 0; k < g.count; ++k) {
      const int v = g.version[static_cast<std::size_t>(k)];
      if (v == search_.version()) continue;
      if (v < 0) return false;
      const int r = g.r0 + k;
      for (int t = v; t < search_.version(); ++t)
        if (dirty_[static_cast<std::size_t>(t)].min_dirty_row(r) <= r)
          return false;
    }
    return true;
  }

  /// Replays acceptances the worker's cache has not seen yet. Caller holds
  /// the lock.
  void sync_cache(Worker& w) {
    if (!w.cache) return;
    for (; w.synced < static_cast<int>(dirty_.size()); ++w.synced)
      w.cache->invalidate(dirty_[static_cast<std::size_t>(w.synced)]);
  }

  align::GroupJob make_job(int r0, int count,
                           const align::OverrideTriangle* overrides) const {
    align::GroupJob job;
    job.seq = s_.codes();
    job.scoring = &scoring_;
    job.overrides = overrides;
    job.r0 = r0;
    job.count = count;
    return job;
  }

  /// Wires checkpoint resume and emission into a sweep job; returns the
  /// number of DP rows the sweep will restore instead of computing. `lookup`
  /// is off for first alignments (nothing can be cached yet, and counting
  /// them as misses would dilute the hit rate). Overridden lookups read the
  /// shared dirty list, so the caller then holds the lock.
  int attach_checkpoints(Worker& w, align::GroupJob& job,
                         align::CheckpointSink& sink,
                         align::CheckpointView& view, bool plain_sweep,
                         bool lookup) const {
    if (!w.cache) return 0;
    int resumed = 0;
    if (lookup) {
      const auto found = w.cache->find(
          job.r0, plain_sweep, plain_sweep ? 0 : plain_valid_limit(job.r0));
      if (found) {
        view = *found;
        job.resume = &view;
        resumed = view.row;
        // Checkpoint-resume consistency: a resume point must lie strictly
        // inside the group's row range (the kernel re-enters at row + 1).
        REPRO_DCHECK(view.row >= 1 && view.row < job.r0);
      }
    }
    sink.stride = ckpt_stride(job.r0 + job.count - 1);
    sink.top_row = job.r0 - 1;
    job.sink = &sink;
    return resumed;
  }

  void size_outputs(std::vector<std::vector<align::Score>>& rows,
                    std::vector<std::span<align::Score>>& outs,
                    const GroupTask& g) const {
    outs.resize(static_cast<std::size_t>(g.count));
    for (int k = 0; k < g.count; ++k) {
      auto& row = rows[static_cast<std::size_t>(k)];
      row.resize(static_cast<std::size_t>(m_ - (g.r0 + k)));
      outs[static_cast<std::size_t>(k)] = row;
    }
  }

  /// Ends the run for every worker; the first error is rethrown by run().
  void stop(std::exception_ptr error) {
    std::lock_guard lock(mutex_);
    if (!error_) error_ = std::move(error);
    done_ = true;
    cv_.notify_all();
  }

  void work(Worker& w) {
    try {
      work_loop(w);
    } catch (...) {
      stop(std::current_exception());
    }
  }

  void work_loop(Worker& w) {
    util::WallTimer wait_timer;
    std::unique_lock lock(mutex_);
    while (!done_) {
      // 1. Acceptance, or the end of the search.
      const auto verdict = search_.verdict();
      if (verdict == BestFirstSearch::Verdict::kStop) {
        done_ = true;
        break;
      }
      if (verdict == BestFirstSearch::Verdict::kAccept) {
        accept_head(lock, w);
        cv_.notify_all();
        continue;
      }

      // 2. Realignment: the best group due for a sweep not yet assigned.
      if (const auto sweep = search_.begin_sweep()) {
        realign(lock, w, *sweep);
        cv_.notify_all();
        continue;
      }
      wait_timer.reset();
      cv_.wait(lock);
      w.idle += wait_timer.seconds();
    }
    cv_.notify_all();
  }

  /// Recomputes the empty-triangle bottom rows of group g — the shadow-
  /// rejection references when no archive is kept — on the worker's engine
  /// and returns member b's. Sweeping the whole group keeps the plain
  /// checkpoint entry in one layout and resumes just above the group.
  std::span<const align::Score> recompute_original(Worker& w,
                                                   const GroupTask& g, int b,
                                                   align::Score priority) {
    align::GroupJob plain = make_job(g.r0, g.count, nullptr);
    attach_checkpoints(w, plain, w.plain_sink, w.plain_view,
                       /*plain_sweep=*/true, /*lookup=*/true);
    size_outputs(w.plain_rows, w.plain_outs, g);
    w.engine.align(plain, w.plain_outs);
    if (w.cache)
      w.cache->store(g.r0, /*plain_class=*/true, priority, w.plain_sink);
    return w.plain_rows[static_cast<std::size_t>(b)];
  }

  void accept_head(std::unique_lock<std::mutex>& lock, Worker& w) {
    const Head head = search_.take_head();
    const GroupTask& g = search_.group(head.group);
    sync_cache(w);
    lock.unlock();
    // Traceback runs unlocked (the paper's sequential part: the other
    // workers may be waiting for its pairs); it is the only writer of the
    // triangle while accepting.
    const std::span<const align::Score> recomputed =
        rows_ ? std::span<const align::Score>()
              : recompute_original(w, g, head.r - g.r0, head.score);
    util::WallTimer traceback_timer;
    TopAlignment top =
        rows_ ? accept_with_row(s_, scoring_, triangle_, rows_->row(head.r),
                                head.r, head.score, options_.traceback)
              : accept_with_row(s_, scoring_, triangle_, recomputed, head.r,
                                head.score, options_.traceback);
    const double traceback_seconds = traceback_timer.seconds();
    lock.lock();
    search_.stats().traceback_seconds += traceback_seconds;
    tops_.push_back(std::move(top));
    // Triangle monotone growth: every accepted pair is now overridden.
    for ([[maybe_unused]] const auto& pair : tops_.back().pairs)
      REPRO_DCHECK(triangle_.contains(pair.first, pair.second));
    if (incremental())
      dirty_.emplace_back(
          std::span<const std::pair<int, int>>(tops_.back().pairs));
    search_.accepted_head(head);
  }

  /// (Re)aligns every member of the sweep's group against the triangle and
  /// commits the member scores (shadow-rejected bottom-row maxima).
  void realign(std::unique_lock<std::mutex>& lock, Worker& w,
               const Sweep& sweep) {
    const GroupTask& g = search_.group(sweep.group);
    const int v = sweep.version;  // label: triangle version at sweep start
    // Low-memory mode pays a paired empty-triangle sweep per realignment to
    // recompute the originals (first alignments archive nothing).
    const bool recompute = !rows_ && v > 0;

    // Low-memory fast path: when every stale member's rectangle is untouched
    // by the pairs accepted since its version, both the overridden sweep and
    // the paired empty-triangle recompute are provably no-ops — bump the
    // versions without computing anything.
    if (recompute && incremental() && group_untouched(g)) {
      search_.commit_unchanged(sweep);
      return;
    }

    const int rows_g = g.r0 + g.count - 1;
    // Checkpoint sync and lookups run locked (the dirty list is shared); the
    // views stay valid unlocked because only this thread mutates the cache.
    // A version-0 sweep runs under the empty triangle and is cached as a
    // plain sweep; overridden checkpoints stay valid via invalidation.
    sync_cache(w);
    align::GroupJob job = make_job(g.r0, g.count, v == 0 ? nullptr : &triangle_);
    const int resumed = attach_checkpoints(w, job, w.sink, w.view,
                                           /*plain_sweep=*/v == 0,
                                           /*lookup=*/v > 0);
    align::GroupJob plain = make_job(g.r0, g.count, nullptr);
    const int plain_resumed =
        recompute ? attach_checkpoints(w, plain, w.plain_sink, w.plain_view,
                                       /*plain_sweep=*/true, /*lookup=*/true)
                  : 0;
    lock.unlock();

    util::WallTimer sweep_timer;
    // Plain first: an adaptive engine then escalates the group on its plain
    // rows before its first overridden sweep (whose scores are never higher),
    // so each cache entry keeps one precision layout.
    if (recompute) {
      size_outputs(w.plain_rows, w.plain_outs, g);
      w.engine.align(plain, w.plain_outs);
    }
    size_outputs(w.rows, w.outs, g);
    w.engine.align(job, w.outs);
    const double sweep_seconds = sweep_timer.seconds();

    std::vector<align::Score> new_scores(static_cast<std::size_t>(g.count));
    for (int k = 0; k < g.count; ++k) {
      const int r = g.r0 + k;
      const auto& row = w.rows[static_cast<std::size_t>(k)];
      align::Score& score = new_scores[static_cast<std::size_t>(k)];
      if (v == 0) {
        // Every rectangle is first-aligned while all queue keys are still
        // infinite, i.e. before any acceptance; the archived bottom rows are
        // therefore always empty-triangle originals (disjoint: safe unlocked).
        if (rows_) rows_->store(r, row);
        score = align::find_best_end(row).score;
      } else if (rows_) {
        score = align::find_best_end(row, rows_->row(r)).score;
      } else {
        score = align::find_best_end(
                    row, std::span<const align::Score>(
                             w.plain_rows[static_cast<std::size_t>(k)]))
                    .score;
      }
    }

    lock.lock();
    if (w.cache) {
      // The sweep ran unlocked, so the triangle may have grown under it:
      // staged rows at or past any mid-sweep acceptance's dirty row could
      // reflect torn override bits — drop them before committing. Rows below
      // every dirty row are pure and current by the monotone-growth argument.
      // The paired plain sweep never reads the triangle and needs no drop.
      int md = align::PairDirtyIndex::kNoDirtyRow;
      for (int t = v; t < static_cast<int>(dirty_.size()); ++t)
        md = std::min(md,
                      dirty_[static_cast<std::size_t>(t)].min_dirty_row(g.r0));
      w.sink.drop_from(md);
      if constexpr (check::kContractsEnabled) {
        for (int idx = 0; idx < w.sink.count; ++idx)
          REPRO_DCHECK_MSG(
              w.sink.rows[static_cast<std::size_t>(idx)].row < md,
              "torn-read-unsafe checkpoint row "
                  << w.sink.rows[static_cast<std::size_t>(idx)].row
                  << " survived drop_from(" << md << ") for group r0="
                  << g.r0);
      }
      const align::Score priority =
          *std::max_element(new_scores.begin(), new_scores.end());
      w.cache->store(g.r0, /*plain_class=*/v == 0, priority, w.sink);
      if (recompute)
        w.cache->store(g.r0, /*plain_class=*/true, priority, w.plain_sink);
    }
    FinderStats& stats = search_.stats();
    if (v > 0) {
      stats.realign_seconds += sweep_seconds;
      stats.rows_swept += static_cast<std::uint64_t>(rows_g);
      stats.rows_skipped += static_cast<std::uint64_t>(resumed);
      if (recompute) {
        stats.rows_swept += static_cast<std::uint64_t>(rows_g);
        stats.rows_skipped += static_cast<std::uint64_t>(plain_resumed);
      }
    }
    search_.commit_sweep(sweep, new_scores);
  }

  const seq::Sequence& s_;
  const seq::Scoring& scoring_;
  const FinderOptions& options_;
  int m_;
  BestFirstSearch search_;
  align::OverrideTriangle triangle_;
  std::optional<align::BottomRowStore> rows_;
  std::vector<Worker> workers_;
  std::vector<align::PairDirtyIndex> dirty_;  ///< one entry per acceptance

  std::mutex mutex_;
  std::condition_variable cv_;
  bool done_ = false;
  std::exception_ptr error_;

  std::vector<TopAlignment> tops_;
};

}  // namespace

FinderResult run_scheduler(const seq::Sequence& s, const seq::Scoring& scoring,
                           const FinderOptions& options,
                           std::span<align::Engine* const> engines,
                           std::string_view metrics_prefix) {
  REPRO_CHECK(!engines.empty());
  Scheduler scheduler(s, scoring, options, engines);
  return scheduler.run(metrics_prefix);
}

TopAlignment accept_alignment(const seq::Sequence& s, const seq::Scoring& scoring,
                              align::OverrideTriangle& triangle,
                              std::span<const align::Score> original_row, int r,
                              align::Score expected) {
  return accept_with_row(s, scoring, triangle, original_row, r, expected,
                         TracebackMode::kFullMatrix);
}

TopAlignment accept_alignment(const seq::Sequence& s, const seq::Scoring& scoring,
                              align::OverrideTriangle& triangle,
                              std::span<const std::int16_t> original_row, int r,
                              align::Score expected) {
  return accept_with_row(s, scoring, triangle, original_row, r, expected,
                         TracebackMode::kFullMatrix);
}

void EngineUsage::add_to(FinderStats& stats) const {
  stats.cells += engine.cells_computed() - cells0;
  const align::PrecisionStats p = engine.precision_stats();
  stats.i8_sweeps += p.i8_sweeps - precision0.i8_sweeps;
  stats.i16_sweeps += p.i16_sweeps - precision0.i16_sweeps;
  stats.precision_escalations += p.escalations - precision0.escalations;
  stats.profile_hits += p.profile_hits - precision0.profile_hits;
}

void publish_finder_stats(const FinderStats& stats, int m,
                          std::string_view prefix) {
  if constexpr (!obs::kEnabled) {
    (void)stats;
    (void)m;
    (void)prefix;
    return;
  }
  auto& reg = obs::Registry::global();
  const auto key = [&prefix](std::string_view name) {
    std::string k(prefix);
    k += name;
    return k;
  };
  reg.counter(key("first_alignments")).add(stats.first_alignments);
  reg.counter(key("realignments")).add(stats.realignments);
  reg.counter(key("speculative")).add(stats.speculative);
  reg.counter(key("tracebacks")).add(stats.tracebacks);
  reg.counter(key("queue_pops")).add(stats.queue_pops);
  reg.counter(key("cells")).add(stats.cells);
  reg.counter(key("ckpt_hits")).add(stats.ckpt_hits);
  reg.counter(key("ckpt_misses")).add(stats.ckpt_misses);
  reg.counter(key("ckpt_evictions")).add(stats.ckpt_evictions);
  reg.counter(key("ckpt_rows_skipped")).add(stats.rows_skipped);
  reg.counter(key("ckpt_rows_swept")).add(stats.rows_swept);
  reg.counter(key("skipped_realignments")).add(stats.skipped_realignments);
  reg.counter(key("i8_sweeps")).add(stats.i8_sweeps);
  reg.counter(key("i16_sweeps")).add(stats.i16_sweeps);
  reg.counter(key("precision_escalations")).add(stats.precision_escalations);
  reg.counter(key("profile_hits")).add(stats.profile_hits);
  if (stats.realign_seconds > 0.0)
    reg.timer(key("realign_seconds")).add_seconds(stats.realign_seconds);
  if (stats.traceback_seconds > 0.0)
    reg.timer(key("traceback_seconds")).add_seconds(stats.traceback_seconds);
  if (stats.ckpt_hits + stats.ckpt_misses > 0)
    reg.set_gauge(key("ckpt_hit_rate_pct"),
                  100.0 * static_cast<double>(stats.ckpt_hits) /
                      static_cast<double>(stats.ckpt_hits + stats.ckpt_misses));
  if (stats.rows_swept > 0)
    reg.set_gauge(key("ckpt_rows_skipped_pct"),
                  100.0 * static_cast<double>(stats.rows_skipped) /
                      static_cast<double>(stats.rows_swept));
  reg.timer(key("seconds")).add_seconds(stats.seconds);
  if (stats.idle_seconds > 0.0)
    reg.timer(key("idle_seconds")).add_seconds(stats.idle_seconds);
  if (stats.seconds > 0.0)
    reg.set_gauge(key("cells_per_sec"),
                  static_cast<double>(stats.cells) / stats.seconds);
  if (stats.tracebacks >= 2 && m >= 2) {
    // Exhaustive-sweep baseline: each of the tops-1 later acceptances would
    // realign all m-1 rectangles (the first sweep is first-alignments).
    const double sweep = static_cast<double>(stats.tracebacks - 1) *
                         static_cast<double>(m - 1);
    reg.set_gauge(key("realignments_avoided_pct"),
                  100.0 * (1.0 - static_cast<double>(stats.realignments) /
                                     sweep));
  }
}

FinderResult find_top_alignments(const seq::Sequence& s,
                                 const seq::Scoring& scoring,
                                 const FinderOptions& options,
                                 align::Engine& engine) {
  obs::ScopedSpan span(obs::Registry::global(), "finder.run");
  align::Engine* const engines[] = {&engine};
  return run_scheduler(s, scoring, options, engines, "finder.");
}

FinderResult find_top_alignments(const seq::Sequence& s,
                                 const seq::Scoring& scoring,
                                 const FinderOptions& options) {
  const auto engine = align::make_best_engine();
  return find_top_alignments(s, scoring, options, *engine);
}

}  // namespace repro::core
