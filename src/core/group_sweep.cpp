#include "core/group_sweep.hpp"

#include <algorithm>

#include "align/traceback.hpp"
#include "util/check.hpp"

namespace repro::core {

align::GroupJob group_job(const seq::Sequence& s, const seq::Scoring& scoring,
                          int r0, int count,
                          const align::OverrideTriangle* overrides) {
  return {.seq = s.codes(),
          .scoring = &scoring,
          .overrides = overrides,
          .r0 = r0,
          .count = count};
}

GroupSweep::GroupSweep(const seq::Sequence& s, const seq::Scoring& scoring,
                       align::Engine& engine, int checkpoints_per_sweep)
    : s_(s),
      scoring_(scoring),
      engine_(engine),
      checkpoints_per_sweep_(checkpoints_per_sweep) {
  REPRO_CHECK(checkpoints_per_sweep >= 0);
  main_.rows.resize(static_cast<std::size_t>(engine.lanes()));
  plain_.rows.resize(static_cast<std::size_t>(engine.lanes()));
}

int GroupSweep::run(Side& side, int r0, int count,
                    const align::OverrideTriangle* overrides) {
  align::GroupJob job = group_job(s_, scoring_, r0, count, overrides);
  SweepCheckpoints& ck = side.ckpt;
  if (ck.resume) {
    // Checkpoint-resume consistency: a resume point must lie strictly
    // inside the group's row range (the kernel re-enters at row + 1).
    REPRO_DCHECK(ck.resume->row >= 1 && ck.resume->row < r0);
    job.resume = &*ck.resume;
  }
  if (checkpoints_per_sweep_ > 0) {
    const int rows = r0 + count - 1;
    ck.sink.stride = std::max(
        1, (rows + checkpoints_per_sweep_ - 1) / checkpoints_per_sweep_);
    ck.sink.top_row = r0 - 1;
    job.sink = &ck.sink;
  }
  side.outs.resize(static_cast<std::size_t>(count));
  for (int k = 0; k < count; ++k) {
    auto& row = side.rows[static_cast<std::size_t>(k)];
    row.resize(static_cast<std::size_t>(s_.length() - (r0 + k)));
    side.outs[static_cast<std::size_t>(k)] = row;
  }
  const int restored = engine_.align(job, side.outs);
  ck.resume.reset();
  return restored;
}

int GroupSweep::sweep(int r0, int count,
                      const align::OverrideTriangle* overrides,
                      bool paired_plain) {
  // Plain first: an adaptive engine then escalates the group on its plain
  // rows before its first overridden sweep (whose scores are never higher),
  // so each cache entry keeps one precision layout.
  const int restored = paired_plain ? run(plain_, r0, count, nullptr) : 0;
  r0_ = r0;
  count_ = count;
  overridden_ = overrides != nullptr;
  paired_ = paired_plain;
  return restored + run(main_, r0, count, overrides);
}

std::span<const align::Score> GroupSweep::recompute_original(int r0, int count,
                                                             int k) {
  REPRO_CHECK(k >= 0 && k < count);
  run(plain_, r0, count, nullptr);
  paired_ = false;  // the plain rows no longer pair with the last sweep
  return plain_.rows[static_cast<std::size_t>(k)];
}

std::span<const align::Score> GroupSweep::row(int k) const {
  REPRO_CHECK(k >= 0 && k < count_);
  return main_.rows[static_cast<std::size_t>(k)];
}

std::span<const align::Score> GroupSweep::scores(const OriginalRow& original) {
  REPRO_CHECK_MSG(original || paired_ || !overridden_,
                  "an overridden sweep's scores need originals (group r0="
                      << r0_ << ")");
  scores_.resize(static_cast<std::size_t>(count_));
  for (int k = 0; k < count_; ++k) {
    const auto i = static_cast<std::size_t>(k);
    const std::span<const align::Score> row = main_.rows[i];
    scores_[i] = original ? align::find_best_end(row, original(r0_ + k)).score
                 : paired_
                     ? align::find_best_end(
                           row, std::span<const align::Score>(plain_.rows[i]))
                           .score
                     : align::find_best_end(row).score;
  }
  return scores_;
}

}  // namespace repro::core
