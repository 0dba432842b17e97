#include "cluster/oracle.hpp"

#include "core/top_alignment_finder.hpp"
#include "util/check.hpp"

namespace repro::cluster {

AlignmentOracle::AlignmentOracle(const seq::Sequence& s,
                                 const seq::Scoring& scoring,
                                 align::Engine& engine)
    : s_(s),
      scoring_(scoring),
      sweep_(s, scoring, engine, /*checkpoints_per_sweep=*/0),
      triangle_(s.length()),
      rows_(s.length()),
      layout_(core::make_groups(s.length(), engine.lanes())) {}

int AlignmentOracle::lanes() const { return sweep_.engine().lanes(); }

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
  sweep_.sweep(g.r0, g.count, version_ == 0 ? nullptr : &triangle_,
               /*paired_plain=*/false);
  ++computed_;
  if (version_ == 0) {
    for (int k = 0; k < g.count; ++k)
      if (!rows_.computed(g.r0 + k)) rows_.store(g.r0 + k, sweep_.row(k));
  }
  const std::span<const align::Score> scores =
      version_ == 0 ? sweep_.scores()
                    : sweep_.scores([this](int r) { return rows_.row(r); });
  return cache_.emplace(key, std::vector<align::Score>(scores.begin(),
                                                       scores.end()))
      .first->second;
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
