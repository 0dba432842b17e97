#include "core/task_queue.hpp"

#include <algorithm>

namespace repro::core {

std::vector<GroupTask> make_groups(int m, int lanes) {
  REPRO_CHECK(m >= 2);
  REPRO_CHECK(lanes >= 1);
  std::vector<GroupTask> groups;
  for (int r0 = 1; r0 <= m - 1; r0 += lanes)
    groups.emplace_back(r0, std::min(lanes, m - r0));
  return groups;
}

void GroupQueue::push(int group_index, TaskKey key) {
  const bool inserted = entries_.emplace(key, group_index).second;
  REPRO_CHECK_MSG(inserted, "group " << group_index << " already queued");
  pushes_ += 1;
}

std::optional<int> GroupQueue::pop_best() {
  if (entries_.empty()) return std::nullopt;
  const auto head = *entries_.begin();
  entries_.erase(entries_.begin());
  pops_ += 1;
  // Best-first ordering (Fig. 5): nothing left in the queue may order
  // before the key just popped.
  REPRO_DCHECK_MSG(entries_.empty() ||
                       !entries_.begin()->first.before(head.first),
                   "queue head (score=" << entries_.begin()->first.score
                       << ", r=" << entries_.begin()->first.r
                       << ") orders before the popped key (score="
                       << head.first.score << ", r=" << head.first.r << ")");
  return head.second;
}

std::optional<GroupQueue::Entry> GroupQueue::peek() const {
  if (entries_.empty()) return std::nullopt;
  return *entries_.begin();
}

BestFirstSearch::BestFirstSearch(int m, int lanes, const FinderOptions& options)
    : policy_(options.policy),
      rectangles_(static_cast<std::uint64_t>(m - 1)),
      min_score_(options.min_score),
      num_tops_(options.num_top_alignments) {
  REPRO_CHECK_MSG(m >= 2, "sequence too short for top alignments");
  REPRO_CHECK(options.min_score >= 1);
  groups_ = make_groups(m, lanes);
  for (std::size_t gi = 0; gi < groups_.size(); ++gi)
    queue_.push(static_cast<int>(gi), groups_[gi].key());
}

bool BestFirstSearch::due(const GroupTask& g) const {
  if (policy_ == RescanPolicy::kBestFirst) return !g.best_up_to_date(version_);
  return std::any_of(g.version.begin(), g.version.end(),
                     [this](int v) { return v != version_; });
}

BestFirstSearch::Verdict BestFirstSearch::verdict() const {
  if (version_ >= num_tops_) return Verdict::kStop;
  if (accepting_) return Verdict::kWait;
  const auto head = queue_.peek();
  if (!head) return inflight_.empty() ? Verdict::kStop : Verdict::kWait;
  if (!group(head->second).best_up_to_date(version_)) return Verdict::kWait;
  if (!inflight_.empty() && inflight_.begin()->first.before(head->first))
    return Verdict::kWait;
  if (policy_ == RescanPolicy::kExhaustiveSweep &&
      std::any_of(groups_.begin(), groups_.end(),
                  [this](const GroupTask& g) { return due(g); }))
    return Verdict::kWait;
  return head->first.score < min_score_ ? Verdict::kStop : Verdict::kAccept;
}

std::optional<Sweep> BestFirstSearch::begin_sweep() {
  const auto gi = queue_.pop_best_if([this](int g) { return due(group(g)); });
  if (!gi) return std::nullopt;
  inflight_.emplace(group(*gi).key(), *gi);
  return Sweep{*gi, version_, !accepting_};
}

void BestFirstSearch::end_flight(int gi) {
  // Keys change only on commit: a second cancel or commit, or a key moved
  // under a sweep in flight, finds no bound here.
  const std::size_t erased = inflight_.erase({group(gi).key(), gi});
  REPRO_CHECK_MSG(erased == 1, "group " << gi << " has no sweep in flight");
}

void BestFirstSearch::cancel_sweep(const Sweep& sweep) {
  end_flight(sweep.group);
  queue_.push(sweep.group, group(sweep.group).key());
}

void BestFirstSearch::commit_sweep(const Sweep& sweep,
                                   std::span<const align::Score> scores) {
  end_flight(sweep.group);
  GroupTask& g = groups_[static_cast<std::size_t>(sweep.group)];
  REPRO_CHECK(static_cast<int>(scores.size()) == g.count);
  // No acceptance started or finished during the sweep: it saw exactly the
  // version-v triangle.
  [[maybe_unused]] const bool saw_only_v =
      sweep.quiet && !accepting_ && version_ == sweep.version;
  for (int k = 0; k < g.count; ++k) {
    const auto kk = static_cast<std::size_t>(k);
    const int pv = g.version[kk];
    if (pv == -1) {
      // kScoreInf keys pin every never-aligned group above all real scores,
      // so no acceptance — and no version advance — can happen before each
      // group completed once at version 0.
      REPRO_CHECK(sweep.version == 0);
      ++stats_.first_alignments;
    } else if (pv == sweep.version) {
      ++stats_.speculative;  // lane-mate recomputed although already current
    } else {
      ++stats_.realignments;
    }
    // Upper-bound property (Fig. 5): the sweep observed at least the
    // version-v triangle and bits are only added, so a member aligned before
    // can never come back with a higher score — and recomputing an
    // up-to-date member under the same triangle is deterministic.
    REPRO_DCHECK_MSG(pv < 0 || scores[kk] <= g.score[kk],
                     "realignment raised r=" << g.r0 + k << " from "
                         << g.score[kk] << " to " << scores[kk]
                         << " — upper-bound property violated");
    REPRO_DCHECK_MSG(pv != sweep.version || !saw_only_v ||
                         scores[kk] == g.score[kk],
                     "speculative recompute changed r="
                         << g.r0 + k << " from " << g.score[kk] << " to "
                         << scores[kk]);
    g.score[kk] = scores[kk];
    g.version[kk] = sweep.version;
  }
  queue_.push(sweep.group, g.key());
}

void BestFirstSearch::commit_unchanged(const Sweep& sweep) {
  end_flight(sweep.group);
  GroupTask& g = groups_[static_cast<std::size_t>(sweep.group)];
  for (int& v : g.version) {
    if (v != sweep.version) {
      v = sweep.version;
      ++stats_.skipped_realignments;
    }
  }
  queue_.push(sweep.group, g.key());
}

Head BestFirstSearch::take_head() {
  REPRO_CHECK(verdict() == Verdict::kAccept);
  const int gi = *queue_.pop_best();
  const GroupTask& g = group(gi);
  const int b = g.best_member();
  accepting_ = true;
  return {gi, g.r0 + b, g.score[static_cast<std::size_t>(b)]};
}

void BestFirstSearch::accepted_head(const Head& head) {
  REPRO_CHECK(accepting_);
  // Acceptance order (§2.2): scores never increase down the top list.
  REPRO_DCHECK_MSG(head.score <= last_accepted_,
                   "acceptance " << version_ << " (score " << head.score
                                 << ") outranks its predecessor (score "
                                 << last_accepted_ << ")");
  last_accepted_ = head.score;
  accepting_ = false;
  if (version_ > 0) stats_.exhaustive_realignments += rectangles_;
  ++version_;
  ++stats_.tracebacks;
  queue_.push(head.group, group(head.group).key());
}

}  // namespace repro::core
