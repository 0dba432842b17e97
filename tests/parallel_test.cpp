// Shared-memory finder (§4.2): identical results for every thread count and
// determinism across repeats.
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "core/top_alignment_finder.hpp"
#include "core/verify.hpp"
#include "parallel/parallel_finder.hpp"
#include "seq/generator.hpp"

namespace repro::parallel {
namespace {

using core::FinderOptions;
using seq::Scoring;

class ParallelFinderTest : public ::testing::TestWithParam<int> {};

TEST_P(ParallelFinderTest, MatchesSequentialForAnyThreadCount) {
  const int threads = GetParam();
  const auto g = seq::synthetic_titin(280, 55);
  FinderOptions opt;
  opt.num_top_alignments = 8;

  const auto scalar = align::make_engine(align::EngineKind::kScalar);
  const auto reference =
      core::find_top_alignments(g.sequence, Scoring::protein_default(), opt, *scalar);

  ParallelOptions popt;
  popt.threads = threads;
  popt.finder = opt;
  const auto res = find_top_alignments_parallel(
      g.sequence, Scoring::protein_default(), popt,
      align::engine_factory(align::EngineKind::kScalar));
  std::string diff;
  EXPECT_TRUE(core::same_tops(reference.tops, res.tops, &diff))
      << threads << " threads: " << diff;
  core::validate_tops(res.tops, g.sequence, Scoring::protein_default());
}

TEST_P(ParallelFinderTest, SimdEnginesMatchToo) {
  const int threads = GetParam();
  const auto g = seq::synthetic_dna_tandem(200, 15, 8, 66);
  FinderOptions opt;
  opt.num_top_alignments = 6;
  const auto scalar = align::make_engine(align::EngineKind::kScalar);
  const auto reference = core::find_top_alignments(
      g.sequence, Scoring::paper_example(), opt, *scalar);

  ParallelOptions popt;
  popt.threads = threads;
  popt.finder = opt;
  const auto res = find_top_alignments_parallel(
      g.sequence, Scoring::paper_example(), popt,
      align::engine_factory(align::EngineKind::kSimd8Generic));
  std::string diff;
  EXPECT_TRUE(core::same_tops(reference.tops, res.tops, &diff))
      << threads << " threads: " << diff;
}

INSTANTIATE_TEST_SUITE_P(Threads, ParallelFinderTest,
                         ::testing::Values(1, 2, 3, 4, 8));

TEST(ParallelFinder, DeterministicAcrossRepeats) {
  const auto g = seq::synthetic_titin(240, 77);
  FinderOptions opt;
  opt.num_top_alignments = 6;
  ParallelOptions popt;
  popt.threads = 4;
  popt.finder = opt;
  const auto factory = align::engine_factory(align::EngineKind::kScalar);
  const auto first = find_top_alignments_parallel(
      g.sequence, Scoring::protein_default(), popt, factory);
  for (int repeat = 0; repeat < 3; ++repeat) {
    const auto res = find_top_alignments_parallel(
        g.sequence, Scoring::protein_default(), popt, factory);
    std::string diff;
    EXPECT_TRUE(core::same_tops(first.tops, res.tops, &diff)) << diff;
  }
}

TEST(ParallelFinder, MinScoreStopsEarly) {
  const auto s = seq::random_sequence(seq::Alphabet::dna(), 100, 5);
  ParallelOptions popt;
  popt.threads = 3;
  popt.finder.num_top_alignments = 500;
  popt.finder.min_score = 12;
  const auto res = find_top_alignments_parallel(
      s, Scoring::paper_example(), popt,
      align::engine_factory(align::EngineKind::kScalar));
  EXPECT_LT(res.tops.size(), 500u);
  for (const auto& top : res.tops) EXPECT_GE(top.score, 12);
}

TEST(ParallelFinder, WorkerEnginePropagatesFailure) {
  // Saturating i16 engines throw; the parallel finder must surface it.
  const auto s = seq::Sequence::from_string(
      "sat", std::string(1400, 'A'), seq::Alphabet::dna());
  ParallelOptions popt;
  popt.threads = 2;
  popt.finder.num_top_alignments = 2;
  const Scoring hot{seq::ScoreMatrix::dna(100, -1), seq::GapPenalty{2, 1}};
  EXPECT_THROW(find_top_alignments_parallel(
                   s, hot, popt,
                   align::engine_factory(align::EngineKind::kSimd8Generic)),
               std::logic_error);
}

// Same-tops matrix: every FinderOptions mode runs at every thread count and
// reproduces the single-engine run with the same traceback mode (linear-space
// runs are deterministic but may mark different co-optimal pairs than
// full-matrix ones).
using ModeCase = std::tuple<int, core::MemoryMode, core::TracebackMode,
                            core::RescanPolicy, bool>;

std::vector<seq::Sequence> matrix_inputs() {
  seq::RepeatSpec conserved;
  conserved.unit_length = 30;
  conserved.copies = 6;
  conserved.conservation = 0.9;
  return {seq::synthetic_titin(220, 31).sequence,
          seq::make_repeat_sequence(seq::Alphabet::protein(), 220, conserved,
                                    32)
              .sequence};
}

class ModeMatrixTest : public ::testing::TestWithParam<ModeCase> {};

TEST_P(ModeMatrixTest, SameTopsAsSingleEngineRun) {
  const auto [threads, memory, traceback, policy, checkpoints] = GetParam();
  const Scoring scoring = Scoring::protein_default();
  const auto kind = align::EngineKind::kSimdAutoGeneric;
  for (const auto& s : matrix_inputs()) {
    FinderOptions ref_opt;
    ref_opt.num_top_alignments = 6;
    ref_opt.traceback = traceback;
    const auto engine = align::make_engine(kind);
    const auto reference =
        core::find_top_alignments(s, scoring, ref_opt, *engine);

    ParallelOptions popt;
    popt.threads = threads;
    popt.finder = ref_opt;
    popt.finder.memory = memory;
    popt.finder.policy = policy;
    if (!checkpoints) popt.finder.checkpoint_mem = 0;
    const auto res = find_top_alignments_parallel(s, scoring, popt,
                                                  align::engine_factory(kind));
    std::string diff;
    EXPECT_TRUE(core::same_tops(reference.tops, res.tops, &diff))
        << s.name() << ": " << diff;
    core::validate_tops(res.tops, s, scoring);
  }
}

std::string mode_case_name(const ::testing::TestParamInfo<ModeCase>& info) {
  const auto [threads, memory, traceback, policy, checkpoints] = info.param;
  return "t" + std::to_string(threads) +
         (memory == core::MemoryMode::kArchiveRows ? "_archive"
                                                   : "_recompute") +
         (traceback == core::TracebackMode::kFullMatrix ? "_full" : "_linear") +
         (policy == core::RescanPolicy::kBestFirst ? "_bestfirst"
                                                   : "_exhaustive") +
         (checkpoints ? "_ckpt" : "_nockpt");
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, ModeMatrixTest,
    ::testing::Combine(
        ::testing::Values(1, 2, 3, 4),
        ::testing::Values(core::MemoryMode::kArchiveRows,
                          core::MemoryMode::kRecomputeRows),
        ::testing::Values(core::TracebackMode::kFullMatrix,
                          core::TracebackMode::kLinearSpace),
        ::testing::Values(core::RescanPolicy::kBestFirst,
                          core::RescanPolicy::kExhaustiveSweep),
        ::testing::Bool()),
    mode_case_name);

// The single-engine entry is the one-worker case of the same scheduler, so
// every deterministic counter matches a threads = 1 run.
TEST(ParallelFinder, OneThreadCountersEqualSingleEngineRun) {
  const Scoring scoring = Scoring::protein_default();
  const auto kind = align::EngineKind::kSimdAuto;
  for (const auto& s : matrix_inputs()) {
    for (const auto memory : {core::MemoryMode::kArchiveRows,
                              core::MemoryMode::kRecomputeRows}) {
      FinderOptions opt;
      opt.num_top_alignments = 8;
      opt.memory = memory;
      const auto engine = align::make_engine(kind);
      const auto a = core::find_top_alignments(s, scoring, opt, *engine);
      ParallelOptions popt;
      popt.threads = 1;
      popt.finder = opt;
      const auto b = find_top_alignments_parallel(s, scoring, popt,
                                                  align::engine_factory(kind));
      std::string diff;
      EXPECT_TRUE(core::same_tops(a.tops, b.tops, &diff)) << diff;
      EXPECT_EQ(a.stats.cells, b.stats.cells);
      EXPECT_EQ(a.stats.realignments, b.stats.realignments);
      EXPECT_EQ(a.stats.speculative, b.stats.speculative);
      EXPECT_EQ(a.stats.skipped_realignments, b.stats.skipped_realignments);
      EXPECT_EQ(a.stats.rows_skipped, b.stats.rows_skipped);
      EXPECT_EQ(a.stats.ckpt_hits, b.stats.ckpt_hits);
      EXPECT_EQ(a.stats.i8_sweeps, b.stats.i8_sweeps);
      EXPECT_EQ(a.stats.i16_sweeps, b.stats.i16_sweeps);
      EXPECT_EQ(a.stats.queue_pops, b.stats.queue_pops);
      EXPECT_GT(a.stats.realignments, 0u);
    }
  }
}

TEST(ParallelFinder, StatsAccumulate) {
  const auto g = seq::synthetic_titin(220, 88);
  ParallelOptions popt;
  popt.threads = 4;
  popt.finder.num_top_alignments = 5;
  const auto res = find_top_alignments_parallel(
      g.sequence, Scoring::protein_default(), popt,
      align::engine_factory(align::EngineKind::kScalar));
  EXPECT_EQ(res.stats.first_alignments,
            static_cast<std::uint64_t>(g.sequence.length() - 1));
  EXPECT_EQ(res.stats.tracebacks, res.tops.size());
  EXPECT_GT(res.stats.cells, 0u);
}

}  // namespace
}  // namespace repro::parallel
