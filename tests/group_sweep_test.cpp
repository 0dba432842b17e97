// core::GroupSweep, the one sweep step of every driver: member scores must
// equal the brute-force reference whichever source supplies the originals
// (an archive, a caller's rows, or the paired plain sweep), the rows it
// reports restored must be the engine's, and recomputing an original must
// leave the last sweep's rows alone.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "align/bottom_row_store.hpp"
#include "align/engine.hpp"
#include "align/override_triangle.hpp"
#include "align/traceback.hpp"
#include "core/group_sweep.hpp"
#include "seq/generator.hpp"
#include "seq/scoring.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

namespace repro {
namespace {

using align::Score;
using core::GroupSweep;

std::vector<Score> copy(std::span<const Score> row) {
  return {row.begin(), row.end()};
}

class GroupSweepTest : public ::testing::TestWithParam<align::EngineKind> {};

TEST_P(GroupSweepTest, ScoresMatchTheReferenceForEveryOriginalSource) {
  const int m = 120;
  const auto g = seq::synthetic_titin(m, 31);
  const seq::Scoring scoring = seq::Scoring::protein_default();
  const auto engine = align::make_engine(GetParam());
  const int lanes = engine->lanes();
  const int r0 = 60 - lanes / 2;
  GroupSweep sweep(g.sequence, scoring, *engine, 0);

  // Version 0: the rows are their own originals; archive them.
  align::BottomRowStore archive(m);
  sweep.sweep(r0, lanes, nullptr, /*paired_plain=*/false);
  const std::vector<Score> first(sweep.scores().begin(), sweep.scores().end());
  for (int k = 0; k < lanes; ++k) {
    const int r = r0 + k;
    const auto reference = testing::reference_bottom_row(g.sequence, r, scoring);
    EXPECT_EQ(copy(sweep.row(k)), reference) << "r=" << r;
    EXPECT_EQ(first[static_cast<std::size_t>(k)],
              align::find_best_end(reference).score);
    archive.store(r, sweep.row(k));
  }

  util::Rng rng(5);
  align::OverrideTriangle triangle(m);
  const std::set<std::pair<int, int>> pairs =
      testing::random_overrides(m, 400, rng, &triangle);
  std::vector<Score> expected;
  for (int k = 0; k < lanes; ++k) {
    const int r = r0 + k;
    expected.push_back(
        align::find_best_end(
            testing::reference_bottom_row(g.sequence, r, scoring, pairs),
            testing::reference_bottom_row(g.sequence, r, scoring))
            .score);
  }

  sweep.sweep(r0, lanes, &triangle, /*paired_plain=*/false);
  EXPECT_THROW(sweep.scores(), std::logic_error);
  const auto from_archive =
      copy(sweep.scores([&archive](int r) { return archive.row(r); }));
  EXPECT_EQ(from_archive, expected);

  sweep.sweep(r0, lanes, &triangle, /*paired_plain=*/true);
  EXPECT_EQ(copy(sweep.scores()), expected);
}

TEST_P(GroupSweepTest, RecomputedOriginalLeavesTheSweepRows) {
  const int m = 100;
  const auto g = seq::synthetic_titin(m, 32);
  const seq::Scoring scoring = seq::Scoring::protein_default();
  const auto engine = align::make_engine(GetParam());
  const int lanes = engine->lanes();
  const int r0 = 40;
  util::Rng rng(6);
  align::OverrideTriangle triangle(m);
  testing::random_overrides(m, 300, rng, &triangle);
  GroupSweep sweep(g.sequence, scoring, *engine, 0);

  sweep.sweep(r0, lanes, &triangle, /*paired_plain=*/true);
  std::vector<std::vector<Score>> rows;
  for (int k = 0; k < lanes; ++k) rows.push_back(copy(sweep.row(k)));
  const std::vector<Score> scores = copy(sweep.scores());

  const int r = r0 + lanes + 3;
  EXPECT_EQ(copy(sweep.recompute_original(r, 1, 0)),
            testing::reference_bottom_row(g.sequence, r, scoring));
  for (int k = 0; k < lanes; ++k)
    EXPECT_EQ(copy(sweep.row(k)), rows[static_cast<std::size_t>(k)]);
  // The plain rows now belong to split r, not to the sweep's group.
  EXPECT_THROW(sweep.scores(), std::logic_error);
  sweep.sweep(r0, lanes, &triangle, /*paired_plain=*/true);
  EXPECT_EQ(copy(sweep.scores()), scores);
}

TEST_P(GroupSweepTest, RestoredRowsAreTheEnginesAndCheckpointsEmitOnTheGrid) {
  const int m = 140;
  const auto g = seq::synthetic_titin(m, 33);
  const seq::Scoring scoring = seq::Scoring::protein_default();
  const auto engine = align::make_engine(GetParam());
  ASSERT_TRUE(engine->supports_checkpoints());
  const int lanes = engine->lanes();
  const int r0 = 80;
  GroupSweep sweep(g.sequence, scoring, *engine, /*checkpoints_per_sweep=*/4);

  EXPECT_EQ(sweep.sweep(r0, lanes, nullptr, false), 0);
  const align::CheckpointSink& sink = sweep.checkpoints().sink;
  ASSERT_GT(sink.count, 1);
  EXPECT_EQ(sink.stride, (r0 + lanes - 1 + 3) / 4);
  EXPECT_EQ(sink.rows[static_cast<std::size_t>(sink.count - 1)].row, r0 - 1);
  std::vector<std::vector<Score>> scratch;
  for (int k = 0; k < lanes; ++k) scratch.push_back(copy(sweep.row(k)));

  // Resume from the deepest staged row (copied out: the sweep re-stages).
  align::CheckpointRow deepest = sink.rows[static_cast<std::size_t>(sink.count - 1)];
  align::CheckpointView view;
  view.row = deepest.row;
  view.lanes = sink.lanes;
  view.elem_size = sink.elem_size;
  view.h = deepest.h.data();
  view.max_y = deepest.max_y.data();
  view.bytes = deepest.h.size();
  sweep.checkpoints().resume = view;
  EXPECT_EQ(sweep.sweep(r0, lanes, nullptr, false), r0 - 1);
  EXPECT_FALSE(sweep.checkpoints().resume.has_value());  // consumed
  for (int k = 0; k < lanes; ++k)
    EXPECT_EQ(copy(sweep.row(k)), scratch[static_cast<std::size_t>(k)]);
}

std::vector<align::EngineKind> kinds() {
  std::vector<align::EngineKind> out = {align::EngineKind::kScalar};
  out.push_back(align::best_engine(align::Precision::kAdaptive).kind);
  return out;
}

INSTANTIATE_TEST_SUITE_P(Engines, GroupSweepTest, ::testing::ValuesIn(kinds()),
                         [](const auto& info) {
                           return std::string(info.param ==
                                                      align::EngineKind::kScalar
                                                  ? "scalar"
                                                  : "adaptive");
                         });

TEST(GroupSweep, DroppedResumeRestoresNoRows) {
  // An adaptive engine running a group at u8 drops an i16-layout resume;
  // the sweep reports the engine's count, not the offered row.
  const int m = 160;
  const auto g = seq::synthetic_titin(m, 7);
  const seq::Scoring scoring = seq::Scoring::protein_default();
  const auto engine =
      align::make_engine(align::best_engine(align::Precision::kAdaptive).kind);
  const int lanes = engine->lanes();
  const int r0 = 90;
  const auto elems = static_cast<std::size_t>((m - r0) * lanes);
  const std::vector<std::int16_t> h(elems, 0);
  const std::vector<std::int16_t> max_y(elems, align::kNegInf16);
  align::CheckpointView view;
  view.row = 40;
  view.lanes = lanes;
  view.elem_size = 2;
  view.h = reinterpret_cast<const std::byte*>(h.data());
  view.max_y = reinterpret_cast<const std::byte*>(max_y.data());
  view.bytes = elems * sizeof(std::int16_t);
  GroupSweep sweep(g.sequence, scoring, *engine, 0);
  sweep.checkpoints().resume = view;
  EXPECT_EQ(sweep.sweep(r0, lanes, nullptr, false), 0);
  EXPECT_EQ(engine->precision_stats().escalations, 0u);
  EXPECT_EQ(engine->cells_skipped(), 0u);
}

}  // namespace
}  // namespace repro
