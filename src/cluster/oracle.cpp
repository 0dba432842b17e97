#include "cluster/oracle.hpp"

#include "align/traceback.hpp"
#include "core/top_alignment_finder.hpp"
#include "util/check.hpp"

namespace repro::cluster {

AlignmentOracle::AlignmentOracle(const seq::Sequence& s,
                                 const seq::Scoring& scoring,
                                 align::Engine& engine)
    : s_(s),
      scoring_(scoring),
      engine_(engine),
      triangle_(s.length()),
      rows_(s.length()),
      layout_(core::make_groups(s.length(), engine.lanes())) {
  out_rows_.resize(static_cast<std::size_t>(engine.lanes()));
}

int AlignmentOracle::lanes() const { return engine_.lanes(); }

void AlignmentOracle::begin_run() {
  triangle_.clear();
  version_ = 0;
}

const std::vector<align::Score>& AlignmentOracle::member_scores(
    int gi, int expected_version) {
  REPRO_CHECK_MSG(expected_version == version_,
                  "oracle asked for version " << expected_version
                                              << " but triangle is at "
                                              << version_);
  const auto key = std::make_pair(gi, version_);
  if (const auto it = cache_.find(key); it != cache_.end()) return it->second;

  const core::GroupTask& g = layout_[static_cast<std::size_t>(gi)];
  const int m = s_.length();
  align::GroupJob job;
  job.seq = s_.codes();
  job.scoring = &scoring_;
  job.overrides = version_ == 0 ? nullptr : &triangle_;
  job.r0 = g.r0;
  job.count = g.count;
  std::vector<std::span<align::Score>> outs(static_cast<std::size_t>(g.count));
  for (int k = 0; k < g.count; ++k) {
    out_rows_[static_cast<std::size_t>(k)].resize(
        static_cast<std::size_t>(m - (g.r0 + k)));
    outs[static_cast<std::size_t>(k)] = out_rows_[static_cast<std::size_t>(k)];
  }
  engine_.align(job, outs);
  ++computed_;

  std::vector<align::Score> scores(static_cast<std::size_t>(g.count));
  for (int k = 0; k < g.count; ++k) {
    const int r = g.r0 + k;
    const auto& row = out_rows_[static_cast<std::size_t>(k)];
    if (version_ == 0) {
      if (!rows_.computed(r)) rows_.store(r, row);
      scores[static_cast<std::size_t>(k)] = align::find_best_end(row).score;
    } else {
      scores[static_cast<std::size_t>(k)] =
          align::find_best_end(row, rows_.row(r)).score;
    }
  }
  return cache_.emplace(key, std::move(scores)).first->second;
}

const core::TopAlignment& AlignmentOracle::accept(int r, align::Score expected) {
  if (static_cast<std::size_t>(version_) < accepted_.size()) {
    // Replay: the acceptance sequence is version-deterministic.
    const core::TopAlignment& top = accepted_[static_cast<std::size_t>(version_)];
    REPRO_CHECK_MSG(top.r == r && top.score == expected,
                    "replayed acceptance diverged at version " << version_);
    for (const auto& [i, j] : top.pairs) triangle_.set(i, j);
    ++version_;
    return top;
  }
  core::TopAlignment top =
      core::accept_alignment(s_, scoring_, triangle_, rows_.row(r), r,
                             expected);
  accepted_.push_back(std::move(top));
  ++version_;
  return accepted_.back();
}

}  // namespace repro::cluster
