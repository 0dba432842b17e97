// The new sequential algorithm, anchored on the paper's Fig.-4 example:
// the three nonoverlapping top alignments of ATGCATGCATGC.
#include <gtest/gtest.h>

#include "align/engine.hpp"
#include "core/old_finder.hpp"
#include "core/task_queue.hpp"
#include "core/top_alignment_finder.hpp"
#include "core/verify.hpp"
#include "seq/generator.hpp"

namespace repro::core {
namespace {

using seq::Alphabet;
using seq::Scoring;
using seq::Sequence;

std::vector<std::pair<int, int>> shift_pairs(int i0, int j0, int n) {
  std::vector<std::pair<int, int>> out;
  for (int k = 0; k < n; ++k) out.emplace_back(i0 + k, j0 + k);
  return out;
}

TEST(Finder, PaperFig4ThreeTopAlignments) {
  const auto s = Sequence::from_string("fig4", "ATGCATGCATGC", Alphabet::dna());
  const Scoring scoring = Scoring::paper_example();
  FinderOptions opt;
  opt.num_top_alignments = 3;
  const auto engine = align::make_engine(align::EngineKind::kScalar);
  const FinderResult res = find_top_alignments(s, scoring, opt, *engine);
  ASSERT_EQ(res.tops.size(), 3u);
  validate_tops(res.tops, s, scoring);

  // Top 1: prefix ATGC matched with the first ATGC of the suffix.
  EXPECT_EQ(res.tops[0].r, 4);
  EXPECT_EQ(res.tops[0].score, 8);
  EXPECT_EQ(res.tops[0].pairs, shift_pairs(0, 4, 4));
  // Top 2: the same rectangle, second ATGC of the suffix (the paper's
  // "equivalent" alignment).
  EXPECT_EQ(res.tops[1].r, 4);
  EXPECT_EQ(res.tops[1].score, 8);
  EXPECT_EQ(res.tops[1].pairs, shift_pairs(0, 8, 4));
  // Top 3: prefix ATGCATGC's second half matched with the suffix ATGC.
  EXPECT_EQ(res.tops[2].r, 8);
  EXPECT_EQ(res.tops[2].score, 8);
  EXPECT_EQ(res.tops[2].pairs, shift_pairs(4, 8, 4));
}

TEST(Finder, ScoresAreNonincreasing) {
  const auto g = seq::synthetic_titin(300, 1);
  FinderOptions opt;
  opt.num_top_alignments = 12;
  const auto res = find_top_alignments(g.sequence, Scoring::protein_default(), opt);
  ASSERT_GE(res.tops.size(), 2u);
  for (std::size_t t = 1; t < res.tops.size(); ++t)
    EXPECT_LE(res.tops[t].score, res.tops[t - 1].score);
}

TEST(Finder, FindsImplantedRepeats) {
  // Top alignments should land on the implanted repeat copies.
  const auto g = seq::synthetic_dna_tandem(300, 20, 6, 7);
  FinderOptions opt;
  opt.num_top_alignments = 5;
  const auto res =
      find_top_alignments(g.sequence, Scoring::paper_example(), opt);
  ASSERT_FALSE(res.tops.empty());
  validate_tops(res.tops, g.sequence, Scoring::paper_example());
  // The strongest alignment covers a decent stretch of the repeat block.
  EXPECT_GE(static_cast<int>(res.tops[0].pairs.size()), 15);
}

TEST(Finder, MinScoreStopsEarly) {
  const auto s = seq::random_sequence(Alphabet::dna(), 80, 3);
  FinderOptions opt;
  opt.num_top_alignments = 1000;
  opt.min_score = 10;  // random DNA rarely sustains score-10 self-alignments
  const auto res = find_top_alignments(s, Scoring::paper_example(), opt);
  EXPECT_LT(res.tops.size(), 1000u);
  for (const auto& top : res.tops) EXPECT_GE(top.score, 10);
}

TEST(Finder, StatsAreCoherent) {
  const auto g = seq::synthetic_titin(250, 2);
  FinderOptions opt;
  opt.num_top_alignments = 8;
  const auto engine = align::make_engine(align::EngineKind::kScalar);
  const auto res =
      find_top_alignments(g.sequence, Scoring::protein_default(), opt, *engine);
  const int m = g.sequence.length();
  EXPECT_EQ(res.stats.first_alignments, static_cast<std::uint64_t>(m - 1));
  EXPECT_EQ(res.stats.tracebacks, res.tops.size());
  EXPECT_GT(res.stats.realignments, 0u);
  EXPECT_GT(res.stats.cells, 0u);
  EXPECT_EQ(res.stats.speculative, 0u);  // scalar groups have one member
}

TEST(Finder, BestFirstSkipsMostRealignments) {
  // The paper: best-first ordering avoids 90-97 % of the realignments an
  // exhaustive sweep performs. On synthetic repeats the exact fraction
  // varies; require a substantial cut.
  const auto g = seq::synthetic_titin(400, 3);
  FinderOptions best;
  best.num_top_alignments = 10;
  FinderOptions sweep = best;
  sweep.policy = RescanPolicy::kExhaustiveSweep;
  const auto e1 = align::make_engine(align::EngineKind::kScalar);
  const auto e2 = align::make_engine(align::EngineKind::kScalar);
  const auto res_best =
      find_top_alignments(g.sequence, Scoring::protein_default(), best, *e1);
  const auto res_sweep =
      find_top_alignments(g.sequence, Scoring::protein_default(), sweep, *e2);
  ASSERT_EQ(res_best.tops.size(), res_sweep.tops.size());
  EXPECT_LT(res_best.stats.realignments * 2, res_sweep.stats.realignments);
}

TEST(Finder, RequestingMoreTopsThanExistIsSafe) {
  const auto s = Sequence::from_string("tiny", "ATGCATGC", Alphabet::dna());
  FinderOptions opt;
  opt.num_top_alignments = 500;
  const auto res = find_top_alignments(s, Scoring::paper_example(), opt);
  EXPECT_LT(res.tops.size(), 500u);
  validate_tops(res.tops, s, Scoring::paper_example());
}

TEST(Finder, RejectsDegenerateInput) {
  const auto s = Sequence::from_string("one", "A", Alphabet::dna());
  EXPECT_THROW(find_top_alignments(s, Scoring::paper_example(), {}),
               std::logic_error);
  const auto p = seq::random_sequence(Alphabet::protein(), 50, 1);
  // Alphabet mismatch between sequence and matrix must be rejected.
  EXPECT_THROW(find_top_alignments(p, Scoring::paper_example(), {}),
               std::logic_error);
}

TEST(Finder, RenderAndSummaryWork) {
  const auto s = Sequence::from_string("fig4", "ATGCATGCATGC", Alphabet::dna());
  FinderOptions opt;
  opt.num_top_alignments = 1;
  const auto res = find_top_alignments(s, Scoring::paper_example(), opt);
  ASSERT_EQ(res.tops.size(), 1u);
  EXPECT_EQ(render(res.tops[0], s), "ATGC\n||||\nATGC\n");
  EXPECT_NE(summary(res.tops[0]).find("r=4"), std::string::npos);
}

TEST(OldFinder, PaperFig4MatchesNewAlgorithm) {
  const auto s = Sequence::from_string("fig4", "ATGCATGCATGC", Alphabet::dna());
  const Scoring scoring = Scoring::paper_example();
  FinderOptions opt;
  opt.num_top_alignments = 3;
  const auto old_res = find_top_alignments_old(s, scoring, opt);
  const auto new_res = find_top_alignments(s, scoring, opt);
  std::string diff;
  EXPECT_TRUE(same_tops(old_res.tops, new_res.tops, &diff)) << diff;
}

// The search rules on scripted scores: one-lane groups of a length-4
// sequence, so group g holds split g + 1. No engines, no threads.
using Verdict = BestFirstSearch::Verdict;

BestFirstSearch scripted_search(
    std::vector<align::Score> first_scores, align::Score min_score = 1,
    RescanPolicy policy = RescanPolicy::kBestFirst) {
  FinderOptions opt;
  opt.num_top_alignments = 3;
  opt.min_score = min_score;
  opt.policy = policy;
  BestFirstSearch search(4, 1, opt);
  EXPECT_EQ(search.verdict(), Verdict::kWait);  // nothing aligned yet
  while (const auto sweep = search.begin_sweep()) {
    const align::Score score =
        first_scores[static_cast<std::size_t>(sweep->group)];
    search.commit_sweep(*sweep, {&score, 1});
  }
  EXPECT_EQ(search.stats().first_alignments, first_scores.size());
  return search;
}

void commit(BestFirstSearch& search, const Sweep& sweep, align::Score score) {
  search.commit_sweep(sweep, {&score, 1});
}

TEST(BestFirstSearch, InFlightBoundBlocksAcceptanceUntilCancelled) {
  BestFirstSearch search = scripted_search({30, 20, 10});
  ASSERT_EQ(search.verdict(), Verdict::kAccept);
  search.accepted_head(search.take_head());  // every group is stale now

  const auto held = search.begin_sweep();
  ASSERT_TRUE(held && held->group == 0);  // bound 30 stays in flight
  const auto other = search.begin_sweep();
  ASSERT_TRUE(other && other->group == 1);
  commit(search, *other, 15);
  // Group 1 heads the queue up to date, but the sweep in flight might still
  // return anything up to 30.
  EXPECT_EQ(search.queue().peek()->second, 1);
  EXPECT_EQ(search.verdict(), Verdict::kWait);

  const TaskKey before = search.group(0).key();
  search.cancel_sweep(*held);
  EXPECT_EQ(search.group(0).key().score, before.score);
  EXPECT_EQ(search.group(0).key().r, before.r);
  const auto retry = search.begin_sweep();
  ASSERT_TRUE(retry && retry->group == 0);
  commit(search, *retry, 12);
  ASSERT_EQ(search.verdict(), Verdict::kAccept);
  const Head head = search.take_head();
  EXPECT_EQ(head.r, 2);
  EXPECT_EQ(head.score, 15);
}

TEST(BestFirstSearch, ExhaustivePolicyWaitsForEveryStaleMember) {
  for (const RescanPolicy policy :
       {RescanPolicy::kBestFirst, RescanPolicy::kExhaustiveSweep}) {
    const bool exhaustive = policy == RescanPolicy::kExhaustiveSweep;
    BestFirstSearch search = scripted_search({30, 20, 10}, 1, policy);
    search.accepted_head(search.take_head());
    const auto sweep = search.begin_sweep();
    ASSERT_TRUE(sweep && sweep->group == 0);
    commit(search, *sweep, 25);
    // The head is up to date and nothing is in flight; groups 1 and 2 are
    // stale.
    EXPECT_EQ(search.verdict(), exhaustive ? Verdict::kWait : Verdict::kAccept);
    if (!exhaustive) continue;
    for (const align::Score score : {20, 10}) {
      const auto next = search.begin_sweep();
      ASSERT_TRUE(next);
      EXPECT_EQ(search.verdict(), Verdict::kWait);
      commit(search, *next, score);
    }
    EXPECT_EQ(search.verdict(), Verdict::kAccept);
    EXPECT_EQ(search.stats().realignments, 3u);
  }
}

TEST(BestFirstSearch, HeadBelowMinScoreEndsSearch) {
  EXPECT_EQ(scripted_search({10, 5, 3}, 15).verdict(), Verdict::kStop);
  BestFirstSearch search = scripted_search({30, 5, 3}, 15);
  ASSERT_EQ(search.verdict(), Verdict::kAccept);
  search.accepted_head(search.take_head());
  const auto sweep = search.begin_sweep();
  ASSERT_TRUE(sweep);
  commit(search, *sweep, 14);
  EXPECT_EQ(search.verdict(), Verdict::kStop);
}

TEST(BestFirstSearch, CommitRaisingAScoreBreaksTheUpperBoundContract) {
  if (!check::kContractsEnabled)
    GTEST_SKIP() << "contracts are compiled out (use the checked preset)";
  BestFirstSearch search = scripted_search({30, 20, 10});
  search.accepted_head(search.take_head());
  const auto sweep = search.begin_sweep();
  ASSERT_TRUE(sweep);
  EXPECT_THROW(commit(search, *sweep, 31), std::logic_error);
}

}  // namespace
}  // namespace repro::core
