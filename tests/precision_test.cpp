// Adaptive-precision SIMD: headroom boundaries (bias-aware, the
// check_i16_headroom regression), saturation certification at the exact u8
// ceiling, transparent i8 -> i16 escalation matching the scalar oracle on
// every adaptive engine the host runs, the early exit of saturating u8
// sweeps, and query-profile reuse across runs and parallel partitions.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "align/engine.hpp"
#include "align/query_profile.hpp"
#include "align/simd_kernel.hpp"
#include "core/top_alignment_finder.hpp"
#include "core/verify.hpp"
#include "parallel/parallel_finder.hpp"
#include "seq/generator.hpp"
#include "seq/scoring.hpp"
#include "seq/sequence.hpp"
#include "test_support.hpp"
#include "util/aligned.hpp"

namespace repro {
namespace {

using align::EngineKind;
using align::Precision;
using core::FinderOptions;

seq::Sequence homopolymer(int m) {
  // All-A DNA: the split at r0 = m/2 scores exactly match * (m/2), so the
  // kernel peak hits the static headroom bound with equality.
  return seq::Sequence::from_string("homopoly", std::string(
                                        static_cast<std::size_t>(m), 'A'),
                                    seq::Alphabet::dna());
}

std::vector<EngineKind> adaptive_kinds() {
  return {EngineKind::kSimdAutoGeneric, EngineKind::kSimdAuto};
}

std::vector<EngineKind> explicit_u8_kinds() {
  std::vector<EngineKind> kinds{EngineKind::kSimd8x8Generic};
#if REPRO_HAVE_SSE2
  kinds.push_back(EngineKind::kSimd16x8);
#endif
  if (align::avx2_available()) kinds.push_back(EngineKind::kSimd32x8);
  return kinds;
}

// ---------------------------------------------------------------------------
// Static headroom: precision_fits / check_headroom boundaries

TEST(PrecisionHeadroom, I16BoundaryIsExact) {
  // paper_example (match +2): bound = 2 * (m/2) = m for even m. The i16
  // ceiling is 32766 — a peak of 32767 is indistinguishable from a clamped
  // lane, so 32767 must already be rejected.
  const seq::Scoring dna = seq::Scoring::paper_example();
  EXPECT_TRUE(align::precision_fits(Precision::kI16, 32766, dna));
  EXPECT_TRUE(align::precision_fits(Precision::kI16, 32767, dna));  // bound 32766
  EXPECT_FALSE(align::precision_fits(Precision::kI16, 32768, dna));
  EXPECT_NO_THROW(align::check_headroom(EngineKind::kSimd8Generic, 32766, dna));
  EXPECT_THROW(align::check_headroom(EngineKind::kSimd8Generic, 32768, dna),
               std::logic_error);
}

TEST(PrecisionHeadroom, I8BoundaryAccountsForBias) {
  // The u8 ceiling is 255 - bias - max_score, NOT 255 - max_score: with a
  // deeply negative mismatch the bias eats most of the range. This is the
  // regression for the old check that ignored the bias entirely.
  const seq::Scoring biased{seq::ScoreMatrix::uniform(seq::Alphabet::dna(),
                                                      3, -100),
                            seq::GapPenalty{2, 1}};
  // bias 100, max 3 -> ceiling 152; bound = 3 * (m/2).
  EXPECT_TRUE(align::precision_fits(Precision::kI8, 100, biased));   // 150
  EXPECT_FALSE(align::precision_fits(Precision::kI8, 104, biased));  // 156
  EXPECT_THROW(align::check_headroom(EngineKind::kSimd8x8Generic, 104, biased),
               std::logic_error);

  const seq::Scoring dna = seq::Scoring::paper_example();  // ceiling 252
  EXPECT_TRUE(align::precision_fits(Precision::kI8, 252, dna));
  EXPECT_FALSE(align::precision_fits(Precision::kI8, 254, dna));
}

TEST(PrecisionHeadroom, I8RejectsUnbiasableScoringOutright) {
  // bias + max > 255: no u8 profile exists at any length.
  const seq::Scoring wild{seq::ScoreMatrix::uniform(seq::Alphabet::dna(),
                                                    2, -300),
                          seq::GapPenalty{2, 1}};
  EXPECT_FALSE(align::precision_fits(Precision::kI8, 4, wild));
  // Gap penalties past a u8 also disqualify the precision.
  const seq::Scoring wide_gap{seq::ScoreMatrix::dna(2, -1),
                              seq::GapPenalty{300, 1}};
  EXPECT_FALSE(align::precision_fits(Precision::kI8, 4, wide_gap));
}

TEST(PrecisionHeadroom, AdaptiveAndI32AreNeverRejected) {
  const seq::Scoring protein = seq::Scoring::protein_default();
  EXPECT_NO_THROW(align::check_headroom(EngineKind::kSimdAuto, 100000, protein));
  EXPECT_NO_THROW(
      align::check_headroom(EngineKind::kSimd4x32Generic, 100000, protein));
  EXPECT_TRUE(align::precision_fits(Precision::kAdaptive, 100000, protein));
  EXPECT_TRUE(align::precision_fits(Precision::kI32, 100000, protein));
}

// ---------------------------------------------------------------------------
// Kernel saturation certification at the exact u8 ceiling

TEST(PrecisionSaturation, HomopolymerAtCeilingStaysCleanAndMatchesScalar) {
  // m = 252: peak == 252 == ceiling, certified clean — the conservative
  // certificate must not false-positive at equality.
  const seq::Sequence s = homopolymer(252);
  const seq::Scoring dna = seq::Scoring::paper_example();
  ASSERT_TRUE(align::precision_fits(Precision::kI8, s.length(), dna));
  FinderOptions opt;
  opt.num_top_alignments = 2;
  const auto scalar = align::make_engine(EngineKind::kScalar);
  const auto reference = find_top_alignments(s, dna, opt, *scalar);
  for (const auto kind : explicit_u8_kinds()) {
    const auto engine = align::make_engine(kind);
    const auto res = find_top_alignments(s, dna, opt, *engine);
    std::string diff;
    EXPECT_TRUE(core::same_tops(reference.tops, res.tops, &diff))
        << engine->name() << ": " << diff;
    EXPECT_GT(engine->precision_stats().i8_sweeps, 0u) << engine->name();
    EXPECT_EQ(engine->precision_stats().escalations, 0u) << engine->name();
  }
}

TEST(PrecisionSaturation, PastCeilingExplicitU8ThrowsAdaptiveEscalates) {
  // m = 254: the middle split reaches 254 > ceiling 252. An explicit u8
  // engine must refuse (uncertifiable sweep); the adaptive engines must
  // escalate that group to i16 and still match the scalar oracle exactly.
  const seq::Sequence s = homopolymer(254);
  const seq::Scoring dna = seq::Scoring::paper_example();
  ASSERT_FALSE(align::precision_fits(Precision::kI8, s.length(), dna));
  FinderOptions opt;
  opt.num_top_alignments = 2;
  for (const auto kind : explicit_u8_kinds()) {
    const auto engine = align::make_engine(kind);
    EXPECT_THROW(find_top_alignments(s, dna, opt, *engine), std::logic_error)
        << engine->name();
  }
  const auto scalar = align::make_engine(EngineKind::kScalar);
  const auto reference = find_top_alignments(s, dna, opt, *scalar);
  for (const auto kind : adaptive_kinds()) {
    const auto engine = align::make_engine(kind);
    const auto res = find_top_alignments(s, dna, opt, *engine);
    std::string diff;
    EXPECT_TRUE(core::same_tops(reference.tops, res.tops, &diff))
        << engine->name() << ": " << diff;
    EXPECT_GT(engine->precision_stats().escalations, 0u) << engine->name();
    EXPECT_GT(engine->precision_stats().i16_sweeps, 0u) << engine->name();
  }
}

// ---------------------------------------------------------------------------
// Adaptive escalation on realistic workloads

// Highly conserved protein repeats: alignments run across several copies,
// so blosum62 scores blow past the biased u8 ceiling (255 - 4 - 11 = 240).
seq::GeneratedSequence saturating_protein(std::uint64_t seed) {
  seq::RepeatSpec spec;
  spec.unit_length = 24;
  spec.copies = 8;
  spec.conservation = 0.95;
  spec.indel_rate = 0.0;
  spec.tandem = true;
  return seq::make_repeat_sequence(seq::Alphabet::protein(), 240, spec, seed);
}

TEST(PrecisionAdaptive, EscalatesOnProteinAndMatchesScalar) {
  // The adaptive engines must demonstrably escalate on a saturating
  // workload and still be lossless.
  const auto g = saturating_protein(22);
  const seq::Scoring protein = seq::Scoring::protein_default();
  FinderOptions opt;
  opt.num_top_alignments = 6;
  const auto scalar = align::make_engine(EngineKind::kScalar);
  const auto reference = find_top_alignments(g.sequence, protein, opt, *scalar);
  for (const auto kind : adaptive_kinds()) {
    const auto engine = align::make_engine(kind);
    const auto res = find_top_alignments(g.sequence, protein, opt, *engine);
    std::string diff;
    EXPECT_TRUE(core::same_tops(reference.tops, res.tops, &diff))
        << engine->name() << ": " << diff;
    const auto stats = engine->precision_stats();
    EXPECT_GT(stats.escalations, 0u) << engine->name();
    EXPECT_GT(stats.i16_sweeps, 0u) << engine->name();
    // The finder surfaces the engine's counters in its own stats.
    EXPECT_EQ(res.stats.precision_escalations, stats.escalations)
        << engine->name();
    EXPECT_EQ(res.stats.i16_sweeps, stats.i16_sweeps) << engine->name();
  }
}

TEST(PrecisionAdaptive, StaysI8InRangeAndReusesProfile) {
  // In-range DNA: no sweep may escalate, and the query profile is built
  // exactly once per (sequence, scoring) — later sweeps and a whole second
  // run on the same engine hit the cache.
  const auto s = seq::random_sequence(seq::Alphabet::dna(), 120, 24);
  const seq::Scoring dna = seq::Scoring::paper_example();
  FinderOptions opt;
  opt.num_top_alignments = 5;
  for (const auto kind : adaptive_kinds()) {
    const auto engine = align::make_engine(kind);
    const auto res = find_top_alignments(s, dna, opt, *engine);
    const auto stats = engine->precision_stats();
    EXPECT_EQ(stats.escalations, 0u) << engine->name();
    EXPECT_EQ(stats.i16_sweeps, 0u) << engine->name();
    EXPECT_GT(stats.i8_sweeps, 0u) << engine->name();
    EXPECT_EQ(stats.profile_builds, 1u) << engine->name();
    EXPECT_GT(stats.profile_hits, 0u) << engine->name();
    EXPECT_EQ(res.stats.i8_sweeps, stats.i8_sweeps) << engine->name();

    const auto again = find_top_alignments(s, dna, opt, *engine);
    std::string diff;
    EXPECT_TRUE(core::same_tops(res.tops, again.tops, &diff))
        << engine->name() << ": " << diff;
    EXPECT_EQ(engine->precision_stats().profile_builds, 1u)
        << engine->name() << ": second run must reuse the cached profile";
  }
}

TEST(PrecisionAdaptive, ParallelAutoMatchesSequentialAndSumsStats) {
  const auto g = saturating_protein(17);
  const seq::Scoring protein = seq::Scoring::protein_default();
  FinderOptions opt;
  opt.num_top_alignments = 8;
  const auto seq_engine = align::make_engine(EngineKind::kSimdAuto);
  const auto reference = find_top_alignments(g.sequence, protein, opt, *seq_engine);

  parallel::ParallelOptions popt;
  popt.threads = 3;
  popt.finder.num_top_alignments = 8;
  const auto par = parallel::find_top_alignments_parallel(
      g.sequence, protein, popt, align::engine_factory(EngineKind::kSimdAuto));
  std::string diff;
  EXPECT_TRUE(core::same_tops(reference.tops, par.tops, &diff)) << diff;
  // Worker engines are fresh per partition; their precision counters are
  // summed into the parallel result.
  EXPECT_GT(par.stats.i8_sweeps + par.stats.i16_sweeps, 0u);
  EXPECT_GT(par.stats.precision_escalations, 0u);
}

// ---------------------------------------------------------------------------
// Every adaptive engine the host runs (make_engine(kSimdAuto) reaches only
// the widest one): lossless escalation and in-range u8 sweeps

using AdaptivePrecision = testing::AdaptiveIsaTest;

TEST_P(AdaptivePrecision, PastCeilingEscalatesAndMatchesScalar) {
  const seq::Sequence s = homopolymer(254);
  const seq::Scoring dna = seq::Scoring::paper_example();
  FinderOptions opt;
  opt.num_top_alignments = 2;
  const auto scalar = align::make_engine(EngineKind::kScalar);
  const auto reference = find_top_alignments(s, dna, opt, *scalar);
  const auto e = engine();
  const auto res = find_top_alignments(s, dna, opt, *e);
  std::string diff;
  EXPECT_TRUE(core::same_tops(reference.tops, res.tops, &diff)) << diff;
  EXPECT_GT(e->precision_stats().escalations, 0u);
}

TEST_P(AdaptivePrecision, EscalatesOnProteinAndMatchesScalar) {
  const auto g = saturating_protein(22);
  const seq::Scoring protein = seq::Scoring::protein_default();
  FinderOptions opt;
  opt.num_top_alignments = 6;
  const auto scalar = align::make_engine(EngineKind::kScalar);
  const auto reference = find_top_alignments(g.sequence, protein, opt, *scalar);
  const auto e = engine();
  const auto res = find_top_alignments(g.sequence, protein, opt, *e);
  std::string diff;
  EXPECT_TRUE(core::same_tops(reference.tops, res.tops, &diff)) << diff;
  const auto stats = e->precision_stats();
  EXPECT_GT(stats.escalations, 0u);
  EXPECT_EQ(res.stats.precision_escalations, stats.escalations);
  EXPECT_EQ(res.stats.i8_sweeps, stats.i8_sweeps);
  EXPECT_EQ(res.stats.i16_sweeps, stats.i16_sweeps);
}

TEST_P(AdaptivePrecision, StaysI8InRange) {
  const auto s = seq::random_sequence(seq::Alphabet::dna(), 120, 24);
  FinderOptions opt;
  opt.num_top_alignments = 5;
  const auto scalar = align::make_engine(EngineKind::kScalar);
  const seq::Scoring dna = seq::Scoring::paper_example();
  const auto reference = find_top_alignments(s, dna, opt, *scalar);
  const auto e = engine();
  const auto res = find_top_alignments(s, dna, opt, *e);
  std::string diff;
  EXPECT_TRUE(core::same_tops(reference.tops, res.tops, &diff)) << diff;
  EXPECT_EQ(e->precision_stats().escalations, 0u);
  EXPECT_EQ(e->precision_stats().i16_sweeps, 0u);
}

TEST_P(AdaptivePrecision, GroupSaturatingInLastStripeEscalatesOnce) {
  // Split 127 of an all-A m = 254 passes the u8 ceiling (254 > 252) only in
  // its last column; under 10-column stripes the u8 attempt must still be
  // caught at its final stripe boundary, and the re-run must equal scalar.
  const seq::Sequence s = homopolymer(254);
  const seq::Scoring dna = seq::Scoring::paper_example();
  const auto e = engine(10);
  const int r0 = 127 - e->lanes() / 2;
  const auto rows =
      testing::align_group(*e, s, dna, nullptr, r0, e->lanes());
  const auto scalar = align::make_engine(EngineKind::kScalar);
  for (int k = 0; k < e->lanes(); ++k)
    EXPECT_EQ(rows[static_cast<std::size_t>(k)],
              scalar->align_one(testing::make_job(s, r0 + k, dna)))
        << "lane " << k;
  EXPECT_EQ(e->precision_stats().i8_sweeps, 1u);
  EXPECT_EQ(e->precision_stats().escalations, 1u);
  EXPECT_EQ(e->precision_stats().i16_sweeps, 1u);
}

INSTANTIATE_TEST_SUITE_P(PerIsa, AdaptivePrecision,
                         ::testing::ValuesIn(testing::all_adaptive_isas()),
                         testing::adaptive_isa_param_name);

// ---------------------------------------------------------------------------
// Early exit of saturating u8 sweeps (kernel protocol, portable lanes)

class SaturatingSweep : public ::testing::Test {
 protected:
  using Ops8 = align::detail::GenericOps8<8>;
  using Ops16 = align::detail::GenericOps<8>;
  static constexpr int kLanes = 8;
  static constexpr int kStripe = 10;
  static constexpr align::Score kUnwritten = -7;

  // All-A DNA under match +40: the u8 ceiling is 255 - 1 - 40 = 214, which
  // split r reaches at diagonal cell (6, 6) whenever r >= 6 — inside the
  // first 10-column stripe.
  SaturatingSweep()
      : s_(homopolymer(100)),
        scoring_{seq::ScoreMatrix::dna(40, -1), seq::GapPenalty{2, 1}} {
    rows_.assign(kLanes, {});
    for (int k = 0; k < kLanes; ++k) {
      rows_[static_cast<std::size_t>(k)].assign(
          static_cast<std::size_t>(s_.length() - (kR0 + k)), kUnwritten);
      outs_.emplace_back(rows_[static_cast<std::size_t>(k)]);
    }
    job_.seq = s_.codes();
    job_.scoring = &scoring_;
    job_.r0 = kR0;
    job_.count = kLanes;
    job_.sink = &sink_;
    sink_.stride = 7;
    sink_.top_row = kR0 - 1;
  }

  /// The u8 attempt, reporting saturation instead of throwing.
  bool sweep_u8() {
    profile8_.ensure(job_.seq, scoring_, stats_);
    bool saturated = false;
    align::detail::run_simd_group<Ops8>(job_, outs_, kStripe, scratch8_,
                                        profile8_, &saturated);
    return saturated;
  }

  static constexpr int kR0 = 40;
  seq::Sequence s_;
  seq::Scoring scoring_;
  align::GroupJob job_;
  align::CheckpointSink sink_;
  std::vector<std::vector<align::Score>> rows_;
  std::vector<std::span<align::Score>> outs_;
  align::PrecisionStats stats_;
  align::QueryProfileT<std::uint8_t> profile8_;
  align::detail::SimdScratchT<Ops8> scratch8_;
};

TEST_F(SaturatingSweep, StopsAtFirstStripePastTheLimitWithEmptySink) {
  ASSERT_TRUE(sweep_u8());
  EXPECT_EQ(sink_.count, 0);  // no uncertified row may reach the cache
  // Stripe 0 wrote each lane's first bottom-row columns; the sweep stopped
  // there, so no later stripe wrote anything.
  for (int k = 0; k < kLanes; ++k) {
    const auto& row = rows_[static_cast<std::size_t>(k)];
    for (std::size_t x = static_cast<std::size_t>(kStripe - k); x < row.size();
         ++x)
      ASSERT_EQ(row[x], kUnwritten) << "lane " << k << " column " << x;
  }
}

TEST_F(SaturatingSweep, I16RerunAfterAbortMatchesScalar) {
  ASSERT_TRUE(sweep_u8());
  align::QueryProfileT<std::int16_t> profile16;
  profile16.ensure(job_.seq, scoring_, stats_);
  align::detail::SimdScratchT<Ops16> scratch16;
  bool saturated = true;
  align::detail::run_simd_group<Ops16>(job_, outs_, kStripe, scratch16,
                                       profile16, &saturated);
  EXPECT_FALSE(saturated);
  EXPECT_EQ(sink_.elem_size, 2);
  EXPECT_GT(sink_.count, 0);
  const auto scalar = align::make_engine(EngineKind::kScalar);
  for (int k = 0; k < kLanes; ++k)
    EXPECT_EQ(rows_[static_cast<std::size_t>(k)],
              scalar->align_one(testing::make_job(s_, kR0 + k, scoring_)))
        << "lane " << k;
}

TEST_F(SaturatingSweep, ThrowingProtocolStillNamesTheSaturatedSplit) {
  // Without a report flag the sweep runs to the end and throws, naming the
  // first saturated lane's split.
  profile8_.ensure(job_.seq, scoring_, stats_);
  try {
    align::detail::run_simd_group<Ops8>(job_, outs_, kStripe, scratch8_,
                                        profile8_);
    FAIL() << "saturating u8 sweep did not throw";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("split r=40"), std::string::npos)
        << e.what();
  }
}

// ---------------------------------------------------------------------------
// Query-profile content keying and scratch alignment contract

TEST(PrecisionProfile, ContentKeyedCacheDetectsEveryIngredientChange) {
  align::PrecisionStats stats;
  align::QueryProfileT<std::uint8_t> profile;
  const auto s1 = seq::random_sequence(seq::Alphabet::dna(), 40, 7);
  const auto s2 = seq::random_sequence(seq::Alphabet::dna(), 40, 8);
  const seq::Scoring a = seq::Scoring::paper_example();
  seq::Scoring b = a;
  b.gap.extend += 1;

  EXPECT_TRUE(profile.ensure(s1.codes(), a, stats));   // build
  EXPECT_FALSE(profile.ensure(s1.codes(), a, stats));  // hit
  EXPECT_TRUE(profile.ensure(s2.codes(), a, stats));   // sequence changed
  EXPECT_TRUE(profile.ensure(s2.codes(), b, stats));   // gap changed
  EXPECT_FALSE(profile.ensure(s2.codes(), b, stats));
  EXPECT_EQ(stats.profile_builds, 3u);
  EXPECT_EQ(stats.profile_hits, 2u);
  EXPECT_TRUE(profile.feasible());
  EXPECT_EQ(profile.bias(), 1);
  EXPECT_EQ(profile.max_score(), 2);
}

TEST(PrecisionProfile, InfeasibleScoringIsMarkedNotCrashed) {
  // A scoring whose bias + max exceeds the u8 range still builds (for the
  // content key) but reports infeasible, so callers fall back to i16.
  align::PrecisionStats stats;
  align::QueryProfileT<std::uint8_t> profile;
  const auto s = seq::random_sequence(seq::Alphabet::dna(), 40, 7);
  const seq::Scoring wild{seq::ScoreMatrix::uniform(seq::Alphabet::dna(),
                                                    2, -300),
                          seq::GapPenalty{2, 1}};
  EXPECT_TRUE(profile.ensure(s.codes(), wild, stats));
  EXPECT_FALSE(profile.feasible());
}

TEST(PrecisionProfile, AlignedAllocatorSatisfiesAvx2Loads) {
  // The scratch rows are loaded with up to 64-byte (AVX-512) vectors; the
  // shared allocator must hand out storage that satisfies them.
  std::vector<std::uint8_t, util::AlignedAllocator<std::uint8_t>> v(100);
  EXPECT_TRUE(util::is_vector_aligned(v.data()));
  std::vector<std::int16_t, util::AlignedAllocator<std::int16_t>> w(100);
  EXPECT_TRUE(util::is_vector_aligned(w.data()));
}

}  // namespace
}  // namespace repro
