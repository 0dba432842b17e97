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
#include "core/group_sweep.hpp"
#include "core/task_queue.hpp"
#include "obs/metrics.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"

namespace repro::core {
namespace {

/// One worker's private state: its group sweep (engine, output rows,
/// checkpoint sinks and resume copies) and its idle time.
struct Worker {
  Worker(const seq::Sequence& s, const seq::Scoring& scoring, align::Engine& e,
         int checkpoints_per_sweep)
      : sweep(s, scoring, e, checkpoints_per_sweep), usage(e) {}

  GroupSweep sweep;
  EngineUsage usage;
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
/// One mutex guards the search, the checkpoint cache and everything else
/// except the override triangle (atomic bits; the accepting worker is its
/// only writer), the bottom-row archive (first alignments write disjoint rows
/// before any acceptance), and each worker's engine and buffers.
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
    bool checkpoints = incremental();
    for (align::Engine* e : engines) {
      REPRO_CHECK_MSG(e->lanes() == engines.front()->lanes(),
                      "all worker engines must have the same lane count");
      checkpoints = checkpoints && e->supports_checkpoints();
    }
    if (checkpoints) cache_.emplace(options.checkpoint_mem);
    const int checkpoints_per_sweep =
        cache_ ? std::max(1, options.checkpoints_per_sweep) : 0;
    workers_.reserve(engines.size());
    for (align::Engine* e : engines)
      workers_.emplace_back(s, scoring, *e, checkpoints_per_sweep);
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
    if (cache_) {
      const align::CheckpointCacheStats& cs = cache_->stats();
      stats.ckpt_hits = cs.hits;
      stats.ckpt_misses = cs.misses;
      stats.ckpt_evictions = cs.evictions;
    }
    for (std::size_t k = 0; k < workers_.size(); ++k) {
      const Worker& w = workers_[k];
      w.usage.add_to(stats);
      stats.idle_seconds += w.idle;
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

  /// Offers a sweep of group r0 the shared cache's deepest usable resume
  /// point for its class. The caller holds the lock (the cache and the dirty
  /// list are shared); the row is copied into the sweep's buffer, which the
  /// sweep then reads unlocked.
  void offer_resume(SweepCheckpoints& ck, int r0, bool plain_sweep) {
    if (!cache_) return;
    ck.resume = cache_->find(r0, plain_sweep,
                             plain_sweep ? 0 : plain_valid_limit(r0), ck.copy);
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

  void accept_head(std::unique_lock<std::mutex>& lock, Worker& w) {
    const Head head = search_.take_head();
    const int r0 = search_.group(head.group).r0;
    const int count = search_.group(head.group).count;
    // Without an archive the original is recomputed on the worker's engine:
    // the whole group's plain rows, which keeps the plain checkpoint entry
    // in one layout and resumes just above the group.
    SweepCheckpoints& plain = w.sweep.plain_checkpoints();
    if (!rows_) offer_resume(plain, r0, /*plain_sweep=*/true);
    lock.unlock();
    const std::span<const align::Score> recomputed =
        rows_ ? std::span<const align::Score>()
              : w.sweep.recompute_original(r0, count, head.r - r0);
    // Traceback runs unlocked (the paper's sequential part: the other
    // workers may be waiting for its pairs); it is the only writer of the
    // triangle while accepting.
    util::WallTimer traceback_timer;
    TopAlignment top =
        rows_ ? accept_alignment(s_, scoring_, triangle_, rows_->row(head.r),
                                 head.r, head.score, options_.traceback)
              : accept_alignment(s_, scoring_, triangle_, recomputed, head.r,
                                 head.score, options_.traceback);
    const double traceback_seconds = traceback_timer.seconds();
    lock.lock();
    if (!rows_ && cache_)
      cache_->store(r0, /*plain_class=*/true, head.score, plain.sink);
    search_.stats().traceback_seconds += traceback_seconds;
    tops_.push_back(std::move(top));
    // Triangle monotone growth: every accepted pair is now overridden.
    for ([[maybe_unused]] const auto& pair : tops_.back().pairs)
      REPRO_DCHECK(triangle_.contains(pair.first, pair.second));
    if (incremental()) {
      dirty_.emplace_back(
          std::span<const std::pair<int, int>>(tops_.back().pairs));
      if (cache_) cache_->invalidate(dirty_.back());
    }
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
    // Lookups run locked and copy their rows into the sweep's buffers, so
    // the sweep below reads them unlocked while other workers store and
    // invalidate. A version-0 sweep runs under the empty triangle and is
    // cached as a plain sweep; it looks nothing up (nothing is cached yet,
    // and counting misses would dilute the hit rate). Overridden
    // checkpoints stay valid via invalidation.
    GroupSweep& gs = w.sweep;
    if (v > 0) offer_resume(gs.checkpoints(), g.r0, /*plain_sweep=*/false);
    if (recompute)
      offer_resume(gs.plain_checkpoints(), g.r0, /*plain_sweep=*/true);
    lock.unlock();

    util::WallTimer sweep_timer;
    const int restored =
        gs.sweep(g.r0, g.count, v == 0 ? nullptr : &triangle_, recompute);
    const double sweep_seconds = sweep_timer.seconds();
    // Every rectangle is first-aligned while all queue keys are still
    // infinite, i.e. before any acceptance; the archived bottom rows are
    // therefore always empty-triangle originals (disjoint: safe unlocked).
    if (v == 0 && rows_)
      for (int k = 0; k < g.count; ++k) rows_->store(g.r0 + k, gs.row(k));
    const std::span<const align::Score> new_scores =
        v > 0 && rows_ ? gs.scores([this](int r) { return rows_->row(r); })
                       : gs.scores();

    lock.lock();
    if (cache_) {
      // The sweep ran unlocked, so the triangle may have grown under it:
      // staged rows at or past any mid-sweep acceptance's dirty row could
      // reflect torn override bits — drop them before committing. Rows below
      // every dirty row are pure and current by the monotone-growth argument.
      // The paired plain sweep never reads the triangle and needs no drop.
      align::CheckpointSink& sink = gs.checkpoints().sink;
      int md = align::PairDirtyIndex::kNoDirtyRow;
      for (int t = v; t < static_cast<int>(dirty_.size()); ++t)
        md = std::min(md,
                      dirty_[static_cast<std::size_t>(t)].min_dirty_row(g.r0));
      sink.drop_from(md);
      if constexpr (check::kContractsEnabled) {
        for (int idx = 0; idx < sink.count; ++idx)
          REPRO_DCHECK_MSG(
              sink.rows[static_cast<std::size_t>(idx)].row < md,
              "torn-read-unsafe checkpoint row "
                  << sink.rows[static_cast<std::size_t>(idx)].row
                  << " survived drop_from(" << md << ") for group r0="
                  << g.r0);
      }
      const align::Score priority =
          *std::max_element(new_scores.begin(), new_scores.end());
      cache_->store(g.r0, /*plain_class=*/v == 0, priority, sink);
      if (recompute)
        cache_->store(g.r0, /*plain_class=*/true, priority,
                      gs.plain_checkpoints().sink);
    }
    FinderStats& stats = search_.stats();
    if (v > 0) {
      stats.realign_seconds += sweep_seconds;
      stats.rows_swept +=
          static_cast<std::uint64_t>(recompute ? 2 * rows_g : rows_g);
      stats.rows_skipped += static_cast<std::uint64_t>(restored);
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
  std::optional<align::CheckpointCache> cache_;  ///< shared by every worker
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

template <typename T>
TopAlignment accept_alignment(const seq::Sequence& s,
                              const seq::Scoring& scoring,
                              align::OverrideTriangle& triangle,
                              std::span<const T> original_row, int r,
                              align::Score expected, TracebackMode mode) {
  const auto job = group_job(s, scoring, r, 1, &triangle);
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

template TopAlignment accept_alignment(const seq::Sequence&,
                                       const seq::Scoring&,
                                       align::OverrideTriangle&,
                                       std::span<const align::Score>, int,
                                       align::Score, TracebackMode);
template TopAlignment accept_alignment(const seq::Sequence&,
                                       const seq::Scoring&,
                                       align::OverrideTriangle&,
                                       std::span<const std::int16_t>, int,
                                       align::Score, TracebackMode);

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
