// Checkpoint-resume realignment: resumed sweeps must be bit-identical to
// from-scratch sweeps (kernel level), the finder with the cache enabled must
// produce exactly the tops of a cache-disabled run (both memory modes, every
// engine), and the cache itself must honor its validity model and budget.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include "align/checkpoint_cache.hpp"
#include "align/engine.hpp"
#include "align/override_triangle.hpp"
#include "align/query_profile.hpp"
#include "align/simd_kernel.hpp"
#include "core/top_alignment_finder.hpp"
#include "core/verify.hpp"
#include "parallel/parallel_finder.hpp"
#include "seq/generator.hpp"
#include "seq/scoring.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

namespace repro {
namespace {

using align::CheckpointCache;
using align::CheckpointRow;
using align::CheckpointSink;
using align::CheckpointView;
using align::PairDirtyIndex;
using align::Score;
using core::FinderOptions;
using testing::align_group;

// ---------------------------------------------------------------------------
// PairDirtyIndex

TEST(PairDirtyIndex, EmptyHasNoDirtyRows) {
  const PairDirtyIndex idx;
  EXPECT_TRUE(idx.empty());
  EXPECT_EQ(idx.min_dirty_row(1), PairDirtyIndex::kNoDirtyRow);
  EXPECT_EQ(idx.min_dirty_row(100), PairDirtyIndex::kNoDirtyRow);
}

TEST(PairDirtyIndex, MatchesBruteForceOnRandomPairLists) {
  util::Rng rng(77);
  for (int trial = 0; trial < 50; ++trial) {
    const int m = 20 + static_cast<int>(rng.below(60));
    std::vector<std::pair<int, int>> pairs;
    const int n = 1 + static_cast<int>(rng.below(12));
    for (int t = 0; t < n; ++t) {
      const int j = 1 + static_cast<int>(rng.below(m - 1));
      const int i = static_cast<int>(rng.below(j));
      pairs.emplace_back(i, j);
    }
    const PairDirtyIndex idx{std::span<const std::pair<int, int>>(pairs)};
    for (int r0 = 1; r0 < m; ++r0) {
      int expect = PairDirtyIndex::kNoDirtyRow;
      for (const auto& [i, j] : pairs)
        if (j >= r0) expect = std::min(expect, i + 1);
      EXPECT_EQ(idx.min_dirty_row(r0), expect)
          << "trial " << trial << " r0=" << r0;
    }
  }
}

// ---------------------------------------------------------------------------
// CheckpointCache semantics

CheckpointSink make_sink(int stride, int top_row, std::size_t buf_bytes,
                         std::byte fill) {
  CheckpointSink sink;
  sink.stride = stride;
  sink.top_row = top_row;
  sink.lanes = 1;
  sink.elem_size = 4;
  sink.prepare(1, top_row, buf_bytes);
  for (int t = 0; t < sink.count; ++t) {
    auto& cr = sink.rows[static_cast<std::size_t>(t)];
    std::fill(cr.h.begin(), cr.h.end(), fill);
    std::fill(cr.max_y.begin(), cr.max_y.end(), fill);
  }
  return sink;
}

TEST(CheckpointCacheTest, FindReturnsDeepestRowWithinValidityLimits) {
  CheckpointCache cache(1 << 20);
  auto sink = make_sink(4, 9, 16, std::byte{0x5a});  // rows 4, 8, 9
  cache.store(5, /*plain_class=*/true, 10, sink);

  CheckpointRow copy;
  const auto plain = cache.find(5, /*plain_sweep=*/true, 0, copy);
  ASSERT_TRUE(plain.has_value());
  EXPECT_EQ(plain->row, 9);  // plain sweeps ignore the limit
  EXPECT_EQ(plain->lanes, 1);
  EXPECT_EQ(plain->elem_size, 4);
  EXPECT_EQ(plain->bytes, 16u);

  const auto clamped = cache.find(5, /*plain_sweep=*/false, 7, copy);
  ASSERT_TRUE(clamped.has_value());
  EXPECT_EQ(clamped->row, 4);  // deepest plain row <= the clean limit

  EXPECT_FALSE(cache.find(5, /*plain_sweep=*/false, 2, copy).has_value());
  EXPECT_FALSE(cache.find(7, /*plain_sweep=*/true, 0, copy).has_value());
  EXPECT_EQ(cache.stats().hits, 2u);
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(CheckpointCacheTest, InvalidateDropsOverriddenRowsButKeepsPlain) {
  CheckpointCache cache(1 << 20);
  auto plain_sink = make_sink(4, 9, 16, std::byte{1});
  cache.store(5, /*plain_class=*/true, 10, plain_sink);
  auto over_sink = make_sink(4, 9, 16, std::byte{2});
  cache.store(5, /*plain_class=*/false, 10, over_sink);

  // A pair at (i=5, j=6) dirties DP rows >= 6 of every group with r0 <= 6.
  const std::vector<std::pair<int, int>> pairs{{5, 6}};
  cache.invalidate(PairDirtyIndex{std::span<const std::pair<int, int>>(pairs)});
  EXPECT_EQ(cache.stats().invalidated_rows, 2u);  // overridden rows 8 and 9

  CheckpointRow copy;
  const auto over = cache.find(5, /*plain_sweep=*/false,
                               std::numeric_limits<int>::max(), copy);
  ASSERT_TRUE(over.has_value());
  EXPECT_EQ(over->row, 9);  // plain row 9 beats surviving overridden row 4
  const auto plain = cache.find(5, /*plain_sweep=*/true, 0, copy);
  ASSERT_TRUE(plain.has_value());
  EXPECT_EQ(plain->row, 9);  // plain entry untouched by invalidation
}

TEST(CheckpointCacheTest, TinyBudgetEvictsLowestPriorityEntry) {
  // Budget below a single row: every store evicts something, lowest priority
  // (the group's best score) first.
  CheckpointCache cache(1);
  auto a = make_sink(4, 9, 16, std::byte{1});
  cache.store(3, true, /*priority=*/50, a);
  EXPECT_EQ(cache.stats().evictions, 1u);  // only entry: evicted immediately
  EXPECT_EQ(cache.bytes(), 0u);

  CheckpointCache cache2(40);  // fits one 32-byte row, not two
  auto low = make_sink(4, 4, 16, std::byte{1});
  cache2.store(3, true, /*priority=*/10, low);
  auto high = make_sink(4, 4, 16, std::byte{2});
  cache2.store(9, true, /*priority=*/90, high);
  EXPECT_EQ(cache2.stats().evictions, 1u);
  CheckpointRow copy;
  EXPECT_FALSE(cache2.find(3, true, 0, copy).has_value());  // low priority
  EXPECT_TRUE(cache2.find(9, true, 0, copy).has_value());
}

TEST(CheckpointCacheTest, SameRowStoreRecyclesBytes) {
  CheckpointCache cache(1 << 20);
  auto sink = make_sink(4, 9, 16, std::byte{1});
  cache.store(5, true, 10, sink);
  const std::size_t bytes_once = cache.bytes();
  auto again = make_sink(4, 9, 16, std::byte{2});
  cache.store(5, true, 11, again);
  EXPECT_EQ(cache.bytes(), bytes_once);  // same grid: no growth
  CheckpointRow copy;
  const auto view = cache.find(5, true, 0, copy);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->h[0], std::byte{2});  // newest sweep's state won
}

TEST(CheckpointCacheTest, ResumeCopyOutlivesEvictionAndInvalidation) {
  // Workers read their resume rows unlocked while other workers store and
  // invalidate: the bytes find() hands out must not live in the cache.
  CheckpointCache cache(40);  // fits one 32-byte row, not two
  const auto intact = [](const CheckpointView& v, std::byte fill) {
    for (std::size_t t = 0; t < v.bytes; ++t)
      if (v.h[t] != fill || v.max_y[t] != fill) return false;
    return true;
  };
  auto low = make_sink(4, 4, 16, std::byte{7});
  cache.store(3, /*plain_class=*/false, /*priority=*/10, low);
  CheckpointRow low_copy;
  const auto low_view = cache.find(3, /*plain_sweep=*/false,
                                   std::numeric_limits<int>::max(), low_copy);
  ASSERT_TRUE(low_view.has_value());

  auto high = make_sink(4, 4, 16, std::byte{9});
  cache.store(9, /*plain_class=*/false, /*priority=*/90, high);
  EXPECT_EQ(cache.stats().evictions, 1u);  // group 3's entry is gone
  EXPECT_TRUE(intact(*low_view, std::byte{7}));

  CheckpointRow high_copy;
  const auto high_view = cache.find(9, /*plain_sweep=*/false,
                                    std::numeric_limits<int>::max(), high_copy);
  ASSERT_TRUE(high_view.has_value());
  // A pair at (i=1, j=10) dirties DP rows >= 2 of group 9: its row 4 goes.
  const std::vector<std::pair<int, int>> pairs{{1, 10}};
  cache.invalidate(PairDirtyIndex{std::span<const std::pair<int, int>>(pairs)});
  EXPECT_EQ(cache.stats().invalidated_rows, 1u);
  EXPECT_EQ(cache.bytes(), 0u);
  EXPECT_TRUE(intact(*high_view, std::byte{9}));
  EXPECT_TRUE(intact(*low_view, std::byte{7}));
}

TEST(CheckpointCacheTest, OverriddenEntryTakesTheNewestLayout) {
  // Workers' adaptive engines escalate independently, so one overridden
  // group may be stored at u8 by one worker and at i16 by another. A plain
  // group escalates alike everywhere, so its layout never changes.
  CheckpointCache cache(1 << 20);
  auto wide = make_sink(4, 9, 16, std::byte{1});  // elem_size 4
  cache.store(5, /*plain_class=*/false, 10, wide);
  auto narrow = make_sink(4, 4, 8, std::byte{2});
  narrow.elem_size = 2;
  cache.store(5, /*plain_class=*/false, 10, narrow);
  EXPECT_EQ(cache.bytes(), 16u);  // rows 4, 8 and 9 of the old layout dropped
  CheckpointRow copy;
  const auto view = cache.find(5, /*plain_sweep=*/false,
                               std::numeric_limits<int>::max(), copy);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->row, 4);
  EXPECT_EQ(view->elem_size, 2);

  auto plain_wide = make_sink(4, 9, 16, std::byte{3});
  cache.store(5, /*plain_class=*/true, 10, plain_wide);
  auto plain_narrow = make_sink(4, 4, 8, std::byte{4});
  plain_narrow.elem_size = 2;
  EXPECT_THROW(cache.store(5, /*plain_class=*/true, 10, plain_narrow),
               std::logic_error);
}

// ---------------------------------------------------------------------------
// Kernel-level resume equivalence (randomized triangle-growth fuzz)

/// Every engine this host runs that honours checkpoints (general-gap does
/// not) and whose precision fits sequences up to length `max_m` under
/// `scoring`. Adaptive engines fit everything: past the u8 headroom they
/// escalate to i16 and must still honor every checkpoint contract.
std::vector<align::EngineKind> checkpoint_kinds(int max_m,
                                                const seq::Scoring& scoring) {
  std::vector<align::EngineKind> kinds;
  for (const align::EngineSpec& spec : align::engine_table())
    if (spec.available() &&
        align::precision_fits(spec.precision, max_m, scoring) &&
        spec.make(0)->supports_checkpoints())
      kinds.push_back(spec.kind);
  return kinds;
}

/// The u8 engines among checkpoint_kinds: they only accept inputs inside
/// their biased saturation headroom, so they get in-range DNA workloads.
std::vector<align::EngineKind> u8_checkpoint_kinds(
    int max_m, const seq::Scoring& scoring) {
  std::vector<align::EngineKind> kinds;
  for (const auto kind : checkpoint_kinds(max_m, scoring))
    if (align::engine_precision(kind) == align::Precision::kI8)
      kinds.push_back(kind);
  return kinds;
}

CheckpointView view_of(const CheckpointSink& sink, int index) {
  const CheckpointRow& cr = sink.rows[static_cast<std::size_t>(index)];
  CheckpointView view;
  view.row = cr.row;
  view.lanes = sink.lanes;
  view.elem_size = sink.elem_size;
  view.h = cr.h.data();
  view.max_y = cr.max_y.data();
  view.bytes = cr.h.size();
  return view;
}

/// Sweeps one group of `s` from scratch while emitting checkpoints on a
/// `stride` grid, then resumes from each one (empty triangle, so every depth
/// is valid) and demands the scratch bottom rows exactly.
void expect_resume_from_every_depth(align::Engine& engine,
                                    const seq::Sequence& s,
                                    const seq::Scoring& scoring, int r0,
                                    int stride) {
  const int count = engine.lanes();
  CheckpointSink sink;
  sink.stride = stride;
  sink.top_row = r0 - 1;
  const auto scratch =
      align_group(engine, s, scoring, nullptr, r0, count, nullptr, &sink);
  ASSERT_GT(sink.count, 1) << engine.name();
  for (int t = 0; t < sink.count; ++t) {
    const CheckpointView view = view_of(sink, t);
    const auto resumed =
        align_group(engine, s, scoring, nullptr, r0, count, &view, nullptr);
    EXPECT_EQ(resumed, scratch)
        << engine.name() << " resumed from row " << view.row;
  }
}

TEST(CheckpointKernel, ResumeFromEveryDepthMatchesScratch) {
  const auto g = seq::synthetic_titin(160, 7);
  const seq::Scoring scoring = seq::Scoring::protein_default();
  for (const auto kind : checkpoint_kinds(160, scoring)) {
    const auto engine = align::make_engine(kind);
    expect_resume_from_every_depth(*engine, g.sequence, scoring, 90, 11);
  }
}

/// Rounds of random triangle growth; each round realigns from scratch and
/// resumed from the deepest still-clean checkpoint of the previous round.
void expect_triangle_growth_resume_equals_scratch(align::Engine& engine) {
  const seq::Scoring protein = seq::Scoring::protein_default();
  const seq::Scoring dna = seq::Scoring::paper_example();
  for (int seed = 0; seed < 6; ++seed) {
    util::Rng rng(900 + static_cast<std::uint64_t>(seed));
    const bool use_dna = rng.chance(0.5);
    const int m = 100 + static_cast<int>(rng.below(50));
    const seq::Sequence s =
        use_dna ? seq::synthetic_dna_tandem(m, 9, 5,
                                            100 + static_cast<std::uint64_t>(seed))
                      .sequence
                : seq::synthetic_titin(m, 200 + static_cast<std::uint64_t>(seed))
                      .sequence;
    const seq::Scoring& scoring = use_dna ? dna : protein;
    const int count = engine.lanes();
    const int r0 =
        2 + static_cast<int>(rng.below(
                static_cast<std::uint64_t>(std::max(1, m - count - 3))));
    align::OverrideTriangle triangle(m);

    CheckpointSink staged;  // plays the cache: last scratch sweep's rows
    staged.stride = 1 + static_cast<int>(rng.below(9));
    staged.top_row = r0 - 1;
    align_group(engine, s, scoring, &triangle, r0, count, nullptr, &staged);

    for (int round = 0; round < 4; ++round) {
      // Grow the triangle with random pairs reaching this group (j >= r0).
      std::vector<std::pair<int, int>> pairs;
      const int n = 1 + static_cast<int>(rng.below(3));
      for (int t = 0; t < n; ++t) {
        const int j =
            r0 + static_cast<int>(rng.below(static_cast<std::uint64_t>(m - r0)));
        const int i = static_cast<int>(rng.below(static_cast<std::uint64_t>(j)));
        pairs.emplace_back(i, j);
        triangle.set(i, j);
      }
      const PairDirtyIndex dirty{
          std::span<const std::pair<int, int>>(pairs)};
      staged.drop_from(dirty.min_dirty_row(r0));  // invalidate stale rows

      CheckpointSink fresh;
      fresh.stride = staged.stride;
      fresh.top_row = r0 - 1;
      const auto scratch = align_group(engine, s, scoring, &triangle, r0,
                                       count, nullptr, &fresh);
      if (staged.count > 0) {
        const CheckpointView view = view_of(staged, staged.count - 1);
        const auto resumed = align_group(engine, s, scoring, &triangle, r0,
                                         count, &view, nullptr);
        EXPECT_EQ(resumed, scratch)
            << engine.name() << " seed " << seed << " round " << round
            << " resumed from row " << view.row;
      }
      staged = std::move(fresh);
    }
  }
}

TEST(CheckpointKernel, TriangleGrowthFuzzResumedEqualsScratch) {
  // Sequences of up to 149 residues, protein or DNA.
  for (const auto kind :
       checkpoint_kinds(149, seq::Scoring::protein_default())) {
    const auto engine = align::make_engine(kind);
    expect_triangle_growth_resume_equals_scratch(*engine);
  }
}

// The same contracts for every adaptive engine the host can run (auto only
// reaches the widest), plus a group that escalates under fine striping: its
// aborted u8 attempt must leave no u8 rows behind, only the i16 re-run's.
using AdaptiveCheckpoint = testing::AdaptiveRowTest;

TEST_P(AdaptiveCheckpoint, ResumeFromEveryDepthMatchesScratch) {
  const auto g = seq::synthetic_titin(160, 7);
  expect_resume_from_every_depth(*engine(), g.sequence,
                                 seq::Scoring::protein_default(), 90, 11);
}

TEST_P(AdaptiveCheckpoint, TriangleGrowthFuzzResumedEqualsScratch) {
  expect_triangle_growth_resume_equals_scratch(*engine());
}

TEST_P(AdaptiveCheckpoint, EscalatedGroupKeepsOnlyI16Checkpoints) {
  // All-A DNA, m = 254: only split 127 passes the u8 ceiling (254 > 252),
  // and only in its last column, so the u8 attempt aborts at its last stripe
  // boundary after staging every u8 row.
  const seq::Sequence s = seq::Sequence::from_string(
      "homopoly", std::string(254, 'A'), seq::Alphabet::dna());
  const seq::Scoring scoring = seq::Scoring::paper_example();
  const auto striped = engine(10);
  const int r0 = 127 - striped->lanes() / 2;
  expect_resume_from_every_depth(*striped, s, scoring, r0, 9);
  CheckpointSink sink;
  sink.stride = 9;
  sink.top_row = r0 - 1;
  const auto fresh = engine(10);
  align_group(*fresh, s, scoring, nullptr, r0, fresh->lanes(), nullptr, &sink);
  EXPECT_EQ(fresh->precision_stats().escalations, 1u);
  EXPECT_EQ(sink.elem_size, 2);
  EXPECT_EQ(sink.count, (r0 - 1) / 9 + ((r0 - 1) % 9 != 0 ? 1 : 0));
}

TEST_P(AdaptiveCheckpoint, OtherLayoutResumeIsDroppedAndCountsNoRows) {
  // A shared cache offers an i16-layout resume for a group another worker
  // escalated. An engine running the group at u8 drops it and sweeps from
  // row 1, so no row counts as restored and every row's lane-cells count as
  // computed.
  const int m = 160;
  const auto g = seq::synthetic_titin(m, 7);
  const seq::Scoring scoring = seq::Scoring::protein_default();
  const int r0 = 90;
  const auto fresh = engine();
  const int lanes = fresh->lanes();
  const auto scratch =
      align_group(*fresh, g.sequence, scoring, nullptr, r0, lanes);
  ASSERT_EQ(fresh->precision_stats().escalations, 0u);

  const auto elems = static_cast<std::size_t>((m - r0) * lanes);
  const std::vector<std::int16_t> h(elems, 0);
  const std::vector<std::int16_t> max_y(elems, align::kNegInf16);
  CheckpointView view;
  view.row = 40;
  view.lanes = lanes;
  view.elem_size = 2;
  view.h = reinterpret_cast<const std::byte*>(h.data());
  view.max_y = reinterpret_cast<const std::byte*>(max_y.data());
  view.bytes = elems * sizeof(std::int16_t);
  const auto eng = engine();
  EXPECT_EQ(align_group(*eng, g.sequence, scoring, nullptr, r0, lanes, &view),
            scratch);
  EXPECT_EQ(eng->precision_stats().i16_sweeps, 0u);
  EXPECT_EQ(eng->cells_skipped(), 0u);
  EXPECT_EQ(eng->cells_computed(), fresh->cells_computed());
}

INSTANTIATE_TEST_SUITE_P(PerIsa, AdaptiveCheckpoint,
                         ::testing::ValuesIn(testing::all_adaptive_rows()),
                         testing::adaptive_row_param_name);

TEST(CheckpointKernel, WideVectorResumesAcrossStripes) {
  // A resumed, striped sweep parks each stripe's entry diagonal in its own
  // scratch slot. With 32 i32 lanes one vector is 128 bytes, twice a cache
  // line: slots sized by the cache line alone would overlap, and every
  // stripe past the first would resume from its neighbour's diagonal.
  using Ops = align::detail::VecOps<Score, 32, align::Isa::kPortable>;
  const auto g = seq::synthetic_titin(160, 7);
  const seq::Scoring scoring = seq::Scoring::protein_default();
  align::PrecisionStats stats;
  align::QueryProfileT<Score> profile;
  profile.ensure(g.sequence.codes(), scoring, stats);
  align::detail::SimdScratchT<Ops> scratch;
  const int r0 = 90;
  const auto sweep_group = [&](const CheckpointView* resume,
                               CheckpointSink* sink) {
    align::GroupJob job;
    job.seq = g.sequence.codes();
    job.scoring = &scoring;
    job.r0 = r0;
    job.count = Ops::kLanes;
    job.resume = resume;
    job.sink = sink;
    std::vector<std::vector<Score>> rows(Ops::kLanes);
    std::vector<std::span<Score>> outs;
    for (int k = 0; k < Ops::kLanes; ++k) {
      rows[static_cast<std::size_t>(k)].resize(
          static_cast<std::size_t>(g.sequence.length() - (r0 + k)));
      outs.emplace_back(rows[static_cast<std::size_t>(k)]);
    }
    align::detail::run_simd_group<Ops>(job, outs, 7, scratch, profile);
    return rows;
  };
  CheckpointSink sink;
  sink.stride = 13;
  sink.top_row = r0 - 1;
  const auto scratch_rows = sweep_group(nullptr, &sink);
  ASSERT_GT(sink.count, 1);
  for (int t = 0; t < sink.count; ++t) {
    const CheckpointView view = view_of(sink, t);
    EXPECT_EQ(sweep_group(&view, nullptr), scratch_rows)
        << "resumed from row " << view.row;
  }
}

TEST(CheckpointKernel, U8ResumeFromEveryDepthMatchesScratch) {
  // Same contract as above for the saturating u8 engines, on a DNA workload
  // that fits their biased headroom (bound = m <= 252 for paper_example).
  const auto g = seq::synthetic_dna_tandem(200, 9, 5, 77);
  const seq::Scoring scoring = seq::Scoring::paper_example();
  ASSERT_TRUE(align::precision_fits(align::Precision::kI8,
                                    g.sequence.length(), scoring));
  for (const auto kind : u8_checkpoint_kinds(200, scoring)) {
    const auto engine = align::make_engine(kind);
    const int count = engine->lanes();
    const int r0 = 110;
    CheckpointSink sink;
    sink.stride = 7;
    sink.top_row = r0 - 1;
    const auto scratch =
        align_group(*engine, g.sequence, scoring, nullptr, r0, count, nullptr,
                    &sink);
    ASSERT_GT(sink.count, 1) << engine->name();
    EXPECT_EQ(sink.elem_size, 1) << engine->name();
    for (int t = 0; t < sink.count; ++t) {
      const CheckpointView view = view_of(sink, t);
      const auto resumed = align_group(*engine, g.sequence, scoring, nullptr,
                                       r0, count, &view, nullptr);
      EXPECT_EQ(resumed, scratch)
          << engine->name() << " resumed from row " << view.row;
    }
  }
}

TEST(CheckpointKernel, U8TriangleGrowthFuzzResumedEqualsScratch) {
  // Randomized triangle growth for the u8 engines (DNA only, in-range);
  // override growth only lowers DP values, so clean u8 sweeps stay clean.
  const seq::Scoring dna = seq::Scoring::paper_example();
  for (const auto kind : u8_checkpoint_kinds(149, dna)) {
    const auto engine = align::make_engine(kind);
    for (int seed = 0; seed < 4; ++seed) {
      util::Rng rng(3100 + static_cast<std::uint64_t>(seed));
      const int m = 100 + static_cast<int>(rng.below(50));
      const seq::Sequence s =
          seq::synthetic_dna_tandem(m, 9, 5,
                                    600 + static_cast<std::uint64_t>(seed))
              .sequence;
      const int count = engine->lanes();
      const int r0 =
          2 + static_cast<int>(rng.below(
                  static_cast<std::uint64_t>(std::max(1, m - count - 3))));
      align::OverrideTriangle triangle(m);

      CheckpointSink staged;
      staged.stride = 1 + static_cast<int>(rng.below(9));
      staged.top_row = r0 - 1;
      align_group(*engine, s, dna, &triangle, r0, count, nullptr, &staged);

      for (int round = 0; round < 4; ++round) {
        std::vector<std::pair<int, int>> pairs;
        const int n = 1 + static_cast<int>(rng.below(3));
        for (int t = 0; t < n; ++t) {
          const int j =
              r0 + static_cast<int>(rng.below(static_cast<std::uint64_t>(m - r0)));
          const int i = static_cast<int>(rng.below(static_cast<std::uint64_t>(j)));
          pairs.emplace_back(i, j);
          triangle.set(i, j);
        }
        const PairDirtyIndex dirty{
            std::span<const std::pair<int, int>>(pairs)};
        staged.drop_from(dirty.min_dirty_row(r0));

        CheckpointSink fresh;
        fresh.stride = staged.stride;
        fresh.top_row = r0 - 1;
        const auto scratch =
            align_group(*engine, s, dna, &triangle, r0, count, nullptr,
                        &fresh);
        if (staged.count > 0) {
          const CheckpointView view = view_of(staged, staged.count - 1);
          const auto resumed =
              align_group(*engine, s, dna, &triangle, r0, count, &view,
                          nullptr);
          EXPECT_EQ(resumed, scratch)
              << engine->name() << " seed " << seed << " round " << round
              << " resumed from row " << view.row;
        }
        staged = std::move(fresh);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Finder-level equivalence: cache on vs off, both memory modes, all engines

TEST(CheckpointFinder, CacheOnMatchesCacheOffAcrossEnginesAndMemoryModes) {
  const auto g = seq::synthetic_titin(260, 22);
  const seq::Scoring scoring = seq::Scoring::protein_default();
  for (const auto kind : checkpoint_kinds(260, scoring)) {
    for (const auto memory :
         {core::MemoryMode::kArchiveRows, core::MemoryMode::kRecomputeRows}) {
      FinderOptions off;
      off.num_top_alignments = 8;
      off.memory = memory;
      off.checkpoint_mem = 0;
      FinderOptions on = off;
      on.checkpoint_mem = CheckpointCache::kDefaultBudget;
      const auto e1 = align::make_engine(kind);
      const auto e2 = align::make_engine(kind);
      const auto a = find_top_alignments(g.sequence, scoring, off, *e1);
      const auto b = find_top_alignments(g.sequence, scoring, on, *e2);
      std::string diff;
      EXPECT_TRUE(core::same_tops(a.tops, b.tops, &diff))
          << e1->name() << " memory mode "
          << (memory == core::MemoryMode::kArchiveRows ? "archive" : "recompute")
          << ": " << diff;
      if (b.stats.realignments > 0) {  // every realignment sweep did a lookup
        EXPECT_GT(b.stats.ckpt_hits + b.stats.ckpt_misses, 0u)
            << e1->name();
      }
      EXPECT_EQ(a.stats.ckpt_hits, 0u);
      EXPECT_EQ(a.stats.rows_skipped, 0u);
    }
  }
}

TEST(CheckpointFinder, ResumeActuallySkipsRowsOnRepeatDenseInput) {
  const auto g = seq::synthetic_titin(300, 31);
  FinderOptions opt;
  opt.num_top_alignments = 10;
  const auto engine = align::make_engine(align::EngineKind::kScalar);
  const auto res =
      find_top_alignments(g.sequence, seq::Scoring::protein_default(), opt,
                          *engine);
  EXPECT_GT(res.stats.ckpt_hits, 0u);
  EXPECT_GT(res.stats.rows_skipped, 0u);
  EXPECT_GT(res.stats.rows_swept, res.stats.rows_skipped);
  EXPECT_GT(engine->cells_skipped(), 0u);
}

TEST(CheckpointFinder, OneRowBudgetStillProducesIdenticalTops) {
  // A budget below a single checkpoint row forces an eviction on every
  // store; results must not change, and the eviction counter must show it.
  const auto g = seq::synthetic_titin(220, 13);
  FinderOptions off;
  off.num_top_alignments = 8;
  off.checkpoint_mem = 0;
  FinderOptions tiny = off;
  tiny.checkpoint_mem = 1;
  const auto e1 = align::make_engine(align::EngineKind::kSimd8Generic);
  const auto e2 = align::make_engine(align::EngineKind::kSimd8Generic);
  const auto a = find_top_alignments(g.sequence,
                                     seq::Scoring::protein_default(), off, *e1);
  const auto b = find_top_alignments(g.sequence,
                                     seq::Scoring::protein_default(), tiny, *e2);
  std::string diff;
  EXPECT_TRUE(core::same_tops(a.tops, b.tops, &diff)) << diff;
  EXPECT_GT(b.stats.ckpt_evictions, 0u);
  EXPECT_EQ(b.stats.ckpt_hits, 0u);  // nothing survives a 1-byte budget
}

TEST(CheckpointFinder, LowMemoryUntouchedLaneSkipIsExactAndCounted) {
  // Interspersed repeats leave many rectangles untouched between
  // acceptances; in low-memory mode those groups are version-bumped without
  // any sweep, and the tops still match the checkpoint-off run.
  seq::RepeatSpec spec;
  spec.unit_length = 16;
  spec.copies = 5;
  spec.conservation = 0.6;
  spec.indel_rate = 0.02;
  spec.tandem = false;
  const auto g =
      seq::make_repeat_sequence(seq::Alphabet::protein(), 240, spec, 61);
  const seq::Scoring scoring = seq::Scoring::protein_default();
  FinderOptions off;
  off.num_top_alignments = 8;
  off.memory = core::MemoryMode::kRecomputeRows;
  off.checkpoint_mem = 0;
  FinderOptions on = off;
  on.checkpoint_mem = CheckpointCache::kDefaultBudget;
  const auto e1 = align::make_engine(align::EngineKind::kScalar);
  const auto e2 = align::make_engine(align::EngineKind::kScalar);
  const auto a = find_top_alignments(g.sequence, scoring, off, *e1);
  const auto b = find_top_alignments(g.sequence, scoring, on, *e2);
  std::string diff;
  EXPECT_TRUE(core::same_tops(a.tops, b.tops, &diff)) << diff;
  EXPECT_GT(b.stats.skipped_realignments, 0u);
  EXPECT_LT(b.stats.realignments, a.stats.realignments);
}

TEST(CheckpointFinder, ExhaustivePolicyAgreesWithCacheOn) {
  const auto g = seq::synthetic_titin(200, 5);
  FinderOptions best;
  best.num_top_alignments = 6;
  FinderOptions sweep_opt = best;
  sweep_opt.policy = core::RescanPolicy::kExhaustiveSweep;
  const auto e1 = align::make_engine(align::EngineKind::kScalar);
  const auto e2 = align::make_engine(align::EngineKind::kScalar);
  const auto a = find_top_alignments(g.sequence,
                                     seq::Scoring::protein_default(), best, *e1);
  const auto b = find_top_alignments(
      g.sequence, seq::Scoring::protein_default(), sweep_opt, *e2);
  std::string diff;
  EXPECT_TRUE(core::same_tops(a.tops, b.tops, &diff)) << diff;
}

TEST(CheckpointFinder, SharedCacheMatchesOneWorkerAcrossThreadsBudgetsAndModes) {
  // Every worker resumes from the one shared cache. The tiny budgets make
  // other workers evict entries (and acceptances drop rows) while a sweep
  // reads its resume row; the conserved input escalates groups to i16 on
  // some workers' engines but not on others'.
  seq::RepeatSpec spec;
  spec.unit_length = 24;
  spec.copies = 8;
  spec.conservation = 0.95;
  spec.indel_rate = 0.0;
  spec.tandem = true;
  const seq::GeneratedSequence inputs[] = {
      seq::synthetic_titin(260, 17),
      seq::make_repeat_sequence(seq::Alphabet::protein(), 240, spec, 17)};
  const seq::Scoring scoring = seq::Scoring::protein_default();
  for (const auto& g : inputs) {
    for (const std::size_t budget :
         {std::size_t{1}, std::size_t{1} << 20, CheckpointCache::kDefaultBudget}) {
      for (const auto memory :
           {core::MemoryMode::kArchiveRows, core::MemoryMode::kRecomputeRows}) {
        parallel::ParallelOptions popt;
        popt.finder.num_top_alignments = 8;
        popt.finder.checkpoint_mem = budget;
        popt.finder.memory = memory;
        popt.threads = 1;
        const auto factory = align::engine_factory(align::EngineKind::kSimdAuto);
        const auto reference = parallel::find_top_alignments_parallel(
            g.sequence, scoring, popt, factory);
        if (&g == &inputs[1]) {
          EXPECT_GT(reference.stats.precision_escalations, 0u);
        }
        for (const int threads : {2, 3, 4, 8}) {
          SCOPED_TRACE(::testing::Message()
                       << "m=" << g.sequence.length() << " budget=" << budget
                       << " memory="
                       << (memory == core::MemoryMode::kArchiveRows
                               ? "archive"
                               : "recompute")
                       << " threads=" << threads);
          popt.threads = threads;
          const auto par = parallel::find_top_alignments_parallel(
              g.sequence, scoring, popt, factory);
          std::string diff;
          EXPECT_TRUE(core::same_tops(reference.tops, par.tops, &diff)) << diff;
        }
      }
    }
  }
}

}  // namespace
}  // namespace repro
