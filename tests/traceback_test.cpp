// Traceback properties: reconstructed pairs reproduce the score, respect
// overrides, end in the bottom row, and honour shadow rejection. Every
// vector fill of the matrix gives every cell the scalar recurrence's value
// and the same pairs as the portable fill, at the geometry edges of its
// lane count.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "align/engine.hpp"
#include "align/override_triangle.hpp"
#include "align/traceback.hpp"
#include "core/verify.hpp"
#include "test_support.hpp"

namespace repro::align {
namespace {

using seq::Alphabet;
using seq::Scoring;

TEST(FindBestEnd, NoValidityFilter) {
  const std::vector<Score> row{0, 3, 7, 7, 2};
  const BestEnd end = find_best_end(row);
  EXPECT_EQ(end.score, 7);
  EXPECT_EQ(end.end_x, 3);  // tie broken to the smaller column
}

TEST(FindBestEnd, ShadowRejection) {
  const std::vector<Score> row{5, 9, 4};
  const std::vector<std::int16_t> original{5, 8, 4};  // col 2 changed: shadow
  const BestEnd end = find_best_end(row, original);
  EXPECT_EQ(end.score, 5);
  EXPECT_EQ(end.end_x, 1);
}

TEST(FindBestEnd, AllShadowed) {
  const std::vector<Score> row{5, 9};
  const std::vector<std::int16_t> original{4, 8};
  const BestEnd end = find_best_end(row, original);
  EXPECT_EQ(end.end_x, 0);  // no valid end at all
}

TEST(FindBestEnd, SizeMismatchThrows) {
  const std::vector<Score> row{5, 9};
  const std::vector<std::int16_t> original{4};
  EXPECT_THROW(find_best_end(row, original), std::logic_error);
}

/// The scalar recurrence of rectangle job.r0, (rows + 1) x (cols + 1).
std::vector<std::vector<Score>> scalar_matrix(const GroupJob& job) {
  const auto& seq = job.seq;
  const int m = static_cast<int>(seq.size());
  const int r = job.r0;
  const int cols = m - r;
  const Score open = job.scoring->gap.open;
  const Score ext = job.scoring->gap.extend;
  std::vector<std::vector<Score>> h(
      static_cast<std::size_t>(r) + 1,
      std::vector<Score>(static_cast<std::size_t>(cols) + 1, 0));
  std::vector<Score> max_y(static_cast<std::size_t>(cols) + 1, kNegInf);
  for (int y = 1; y <= r; ++y) {
    const auto& up = h[static_cast<std::size_t>(y - 1)];
    auto& row = h[static_cast<std::size_t>(y)];
    Score max_x = kNegInf;
    for (int x = 1; x <= cols; ++x) {
      const int i = y - 1;
      const int j = r + x - 1;
      const auto ux = static_cast<std::size_t>(x);
      const Score diag = up[ux - 1];
      const Score e = job.scoring->matrix.score(
          seq[static_cast<std::size_t>(i)], seq[static_cast<std::size_t>(j)]);
      row[ux] = std::max(Score{0}, e + std::max({max_x, max_y[ux], diag}));
      if (job.overrides != nullptr && job.overrides->contains(i, j))
        row[ux] = 0;
      max_x = std::max(diag - open, max_x) - ext;
      max_y[ux] = std::max(diag - open, max_y[ux]) - ext;
    }
  }
  return h;
}

const TracebackFill& portable_fill() {
  for (const TracebackFill& fill : traceback_fills())
    if (fill.isa == Isa::kPortable) return fill;
  throw std::logic_error("no portable traceback fill");
}

/// Every available fill against the scalar matrix, cell by cell, and its
/// traceback (when the rectangle has a positive end) against the portable
/// fill's. Returns the number of fills checked.
int check_fills(const seq::Sequence& s, int r, const Scoring& scoring,
                const OverrideTriangle* tri = nullptr) {
  const GroupJob job = testing::make_job(s, r, scoring, tri);
  const auto expected = scalar_matrix(job);
  const int cols = s.length() - r;
  const bool traced = find_best_end({expected.back().begin() + 1,
                                     expected.back().end()})
                          .score > 0;
  const Traceback reference =
      traced ? traceback_best(job, portable_fill()) : Traceback{};
  int checked = 0;
  for (const TracebackFill& fill : traceback_fills()) {
    if (!fill.available()) continue;
    ++checked;
    const std::string label = std::string(isa_name(fill.isa)) + " r=" +
                              std::to_string(r) + " m=" +
                              std::to_string(s.length());
    const TracebackMatrix mat = fill.fill(job);
    EXPECT_EQ(mat.rows(), r) << label;
    EXPECT_EQ(mat.cols(), cols) << label;
    int wrong = 0;
    for (int y = 0; y <= r; ++y)
      for (int x = 0; x <= cols; ++x)
        if (mat.at(y, x) != expected[static_cast<std::size_t>(y)]
                                    [static_cast<std::size_t>(x)] &&
            wrong++ < 3)
          ADD_FAILURE() << label << ": H(" << y << "," << x << ") = "
                        << mat.at(y, x) << ", scalar "
                        << expected[static_cast<std::size_t>(y)]
                                   [static_cast<std::size_t>(x)];
    if (!traced) continue;
    const Traceback tb = traceback_best(job, fill);
    EXPECT_EQ(tb.score, reference.score) << label;
    EXPECT_EQ(tb.end_x, reference.end_x) << label;
    EXPECT_EQ(tb.pairs, reference.pairs) << label;
  }
  return checked;
}

TEST(TracebackFill, DefaultIsTheLastAvailableFill) {
  const TracebackFill* last = nullptr;
  for (const TracebackFill& fill : traceback_fills())
    if (fill.available()) last = &fill;
  ASSERT_NE(last, nullptr);
  EXPECT_EQ(&default_traceback_fill(), last);
  EXPECT_EQ(traceback_fills().front().isa, Isa::kPortable);
}

TEST(TracebackFill, NarrowAndRaggedRectangles) {
  // cols = 1 (r = m - 1), cols below every lane count, cols not a multiple
  // of any lane count, and r = 1 (one row).
  const Scoring scoring = Scoring::paper_example();
  const auto g = seq::synthetic_dna_tandem(61, 7, 6, 12);
  const int m = g.sequence.length();
  for (const int r : {m - 1, m - 2, m - 3, m - 5, m - 7, m - 9, m - 13, 1, 2,
                      m / 2})
    EXPECT_GE(check_fills(g.sequence, r, scoring), 1) << "r=" << r;
}

TEST(TracebackFill, OverrideBitsStraddlingAWordInsideOneVector) {
  // Row i's bit of column x is r - i - 2 + x: with r - i - 1 = 62 the first
  // vector of row i covers bits 62.. and crosses into the row's second
  // word. Set bits on both sides of the boundary, plus random overrides
  // over every row (m = 150: two or three words a row).
  const Scoring scoring = Scoring::paper_example();
  const auto g = seq::synthetic_dna_tandem(150, 10, 12, 5);
  const int m = g.sequence.length();
  const int r = 70;
  const int i = 7;
  OverrideTriangle tri(m);
  for (const int b : {61, 62, 63, 64, 65, 66}) tri.set(i, i + 1 + b);
  EXPECT_GE(check_fills(g.sequence, r, scoring, &tri), 1);
  util::Rng rng(77);
  testing::random_overrides(m, 4 * m, rng, &tri);
  for (const int rr : {1, 3, r, m / 2, m - 40, m - 2, m - 1})
    check_fills(g.sequence, rr, scoring, &tri);
}

TEST(TracebackFill, CoOptimalPathsKeepTheGapPreference) {
  // Tandem copies with indels give many equal-scoring paths; the walk's
  // move preference must pick the same one on every fill.
  const Scoring scoring = Scoring::paper_example();
  for (int seed = 0; seed < 6; ++seed) {
    seq::RepeatSpec spec;
    spec.unit_length = 9;
    spec.copies = 10;
    spec.conservation = 0.9;
    spec.indel_rate = 0.1;
    spec.tandem = true;
    const auto g = seq::make_repeat_sequence(seq::Alphabet::dna(), 120, spec,
                                             300 + seed);
    check_fills(g.sequence, g.sequence.length() / 2, scoring);
    check_fills(g.sequence, 45, scoring);
  }
}

TEST(TracebackFill, ScoresPastTheI16Ceiling) {
  // All-A DNA under match +40: rectangle m/2 scores 40 * 850 = 34000.
  const seq::Sequence s = seq::Sequence::from_string(
      "polyA", std::string(1700, 'A'), Alphabet::dna());
  const Scoring scoring{seq::ScoreMatrix::dna(40, -1), seq::GapPenalty{2, 1}};
  EXPECT_GE(check_fills(s, 850, scoring), 1);
  const Traceback tb =
      traceback_best(testing::make_job(s, 850, scoring));
  EXPECT_EQ(tb.score, 34000);
}

TEST(Traceback, ScoreReproducibleFromPairs) {
  util::Rng rng(808);
  const Scoring scoring = Scoring::protein_default();
  for (int iter = 0; iter < 12; ++iter) {
    const auto g = seq::synthetic_titin(200, 9000 + iter);
    const auto s = g.sequence.subsequence(
        0, 60 + static_cast<int>(rng.below(100)));
    const int m = s.length();
    const int r = m / 4 + static_cast<int>(rng.below(static_cast<std::uint64_t>(m / 2)));
    const Traceback tb = traceback_best(testing::make_job(s, r, scoring));
    ASSERT_GT(tb.score, 0);
    core::TopAlignment top;
    top.r = tb.r;
    top.score = tb.score;
    top.end_x = tb.end_x;
    top.pairs = tb.pairs;
    EXPECT_EQ(core::score_from_pairs(top, s, scoring), tb.score);
    // Ends in the bottom row.
    EXPECT_EQ(tb.pairs.back().first, r - 1);
    EXPECT_EQ(tb.pairs.back().second, r + tb.end_x - 1);
  }
}

TEST(Traceback, MatchesScoreOnlyKernel) {
  // The full-matrix recompute must find exactly the score-only kernel's best
  // valid end.
  const Scoring scoring = Scoring::paper_example();
  const auto engine = make_engine(EngineKind::kScalar);
  for (int iter = 0; iter < 10; ++iter) {
    const auto g = seq::synthetic_dna_tandem(120, 8, 6, 500 + iter);
    const int r = 40 + iter;
    const auto row = engine->align_one(testing::make_job(g.sequence, r, scoring));
    const BestEnd end = find_best_end(row);
    if (end.score <= 0) continue;
    const Traceback tb = traceback_best(testing::make_job(g.sequence, r, scoring));
    EXPECT_EQ(tb.score, end.score);
    EXPECT_EQ(tb.end_x, end.end_x);
  }
}

TEST(Traceback, NeverUsesOverriddenPairs) {
  util::Rng rng(909);
  const Scoring scoring = Scoring::paper_example();
  for (int iter = 0; iter < 10; ++iter) {
    const auto g = seq::synthetic_dna_tandem(100, 6, 8, 700 + iter);
    const int m = g.sequence.length();
    OverrideTriangle tri(m);
    const auto overridden = testing::random_overrides(m, 3 * m, rng, &tri);
    const int r = m / 2;
    const auto engine = make_engine(EngineKind::kScalar);
    const auto row =
        engine->align_one(testing::make_job(g.sequence, r, scoring, &tri));
    if (find_best_end(row).score <= 0) continue;
    const Traceback tb =
        traceback_best(testing::make_job(g.sequence, r, scoring, &tri));
    for (const auto& p : tb.pairs)
      EXPECT_FALSE(overridden.contains(p))
          << "pair (" << p.first << "," << p.second << ") is overridden";
  }
}

TEST(Traceback, ThrowsWithoutPositiveValidEnd) {
  const auto s = seq::Sequence::from_string("x", "AAAATTTT", Alphabet::dna());
  // Prefix AAAA vs suffix TTTT: no positive local score anywhere.
  const Scoring scoring = Scoring::paper_example();
  EXPECT_THROW(traceback_best(testing::make_job(s, 4, scoring)),
               std::logic_error);
}

TEST(Traceback, GapPreferenceIsDeterministic) {
  // Two equal-scoring paths: the walk prefers diagonal, then the shortest
  // horizontal gap. Run twice and expect identical pairs.
  const auto g = seq::synthetic_dna_tandem(90, 9, 6, 31);
  const Scoring scoring = Scoring::paper_example();
  const Traceback a = traceback_best(testing::make_job(g.sequence, 45, scoring));
  const Traceback b = traceback_best(testing::make_job(g.sequence, 45, scoring));
  EXPECT_EQ(a.pairs, b.pairs);
  EXPECT_EQ(a.end_x, b.end_x);
}

}  // namespace
}  // namespace repro::align
