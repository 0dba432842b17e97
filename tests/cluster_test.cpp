// Message substrate and the distributed master/worker finder (§4.3).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>

#include "cluster/master_worker.hpp"
#include "cluster/mpisim.hpp"
#include "core/top_alignment_finder.hpp"
#include "core/verify.hpp"
#include "seq/generator.hpp"

namespace repro::cluster {
namespace {

using core::FinderOptions;
using seq::Scoring;

TEST(Comm, PointToPointFifo) {
  Comm comm(2);
  for (int k = 0; k < 5; ++k) comm.send(0, 1, {k, {k * 10}});
  for (int k = 0; k < 5; ++k) {
    const Message msg = comm.recv(1, 0);
    EXPECT_EQ(msg.tag, k);
    EXPECT_EQ(msg.data.at(0), k * 10);
  }
}

TEST(Comm, RecvFiltersBySource) {
  Comm comm(3);
  comm.send(2, 0, {7, {}});
  comm.send(1, 0, {5, {}});
  EXPECT_EQ(comm.recv(0, 1).tag, 5);  // skips rank 2's message
  EXPECT_EQ(comm.recv(0, 2).tag, 7);
}

TEST(Comm, RecvAnyAndProbe) {
  Comm comm(2);
  EXPECT_FALSE(comm.iprobe(1));
  comm.send(0, 1, {3, {1, 2}});
  EXPECT_TRUE(comm.iprobe(1));
  const auto [src, msg] = comm.recv_any(1);
  EXPECT_EQ(src, 0);
  EXPECT_EQ(msg.tag, 3);
  EXPECT_EQ(comm.messages_sent(), 1u);
  EXPECT_EQ(comm.words_sent(), 3u);
}

TEST(Comm, BlockingRecvWakesOnSend) {
  Comm comm(2);
  std::atomic<bool> got{false};
  run_ranks(comm, [&](int rank) {
    if (rank == 0) {
      comm.send(0, 1, {9, {}});
    } else {
      const Message msg = comm.recv(1, 0);
      got = msg.tag == 9;
    }
  });
  EXPECT_TRUE(got.load());
}

TEST(Comm, RecvTaggedSkipsOtherMessages) {
  Comm comm(2);
  comm.send(0, 1, {7, {1}});
  comm.send(0, 1, {9, {2}});
  comm.send(0, 1, {7, {3}});
  EXPECT_EQ(comm.recv_tagged(1, 0, 9).data.at(0), 2);
  // FIFO among remaining tag-7 messages.
  EXPECT_EQ(comm.recv_tagged(1, 0, 7).data.at(0), 1);
  EXPECT_EQ(comm.recv_tagged(1, 0, 7).data.at(0), 3);
}

TEST(Comm, BroadcastReachesEveryOtherRank) {
  Comm comm(4);
  comm.broadcast(1, {5, {42}});
  for (int rank : {0, 2, 3}) {
    const auto [src, msg] = comm.recv_any(rank);
    EXPECT_EQ(src, 1);
    EXPECT_EQ(msg.tag, 5);
    EXPECT_EQ(msg.data.at(0), 42);
  }
  EXPECT_FALSE(comm.iprobe(1));  // the sender gets nothing
}

TEST(Comm, BarrierSynchronisesRanks) {
  Comm comm(4);
  std::atomic<int> before{0};
  std::atomic<int> after{0};
  std::atomic<bool> violated{false};
  run_ranks(comm, [&](int rank) {
    before.fetch_add(1);
    comm.barrier(rank);
    // Every rank must have passed `before` by the time any rank is here.
    if (before.load() != 4) violated = true;
    after.fetch_add(1);
    comm.barrier(rank);
    if (after.load() != 4) violated = true;
  });
  EXPECT_FALSE(violated.load());
}

TEST(Comm, BarrierComposesWithPendingTraffic) {
  Comm comm(2);
  comm.send(0, 1, {3, {9}});  // queued application message
  run_ranks(comm, [&](int rank) { comm.barrier(rank); });
  // The barrier must not have consumed the application message.
  EXPECT_EQ(comm.recv(1, 0).data.at(0), 9);
}

TEST(Comm, SingleRankBarrierIsNoop) {
  Comm comm(1);
  comm.barrier(0);
  SUCCEED();
}

TEST(Comm, RunRanksPropagatesExceptions) {
  Comm comm(2);
  EXPECT_THROW(run_ranks(comm,
                         [&](int rank) {
                           if (rank == 1) throw std::runtime_error("rank died");
                           // rank 0 exits immediately
                         }),
               std::runtime_error);
}

class ClusterFinderTest : public ::testing::TestWithParam<int> {};

TEST_P(ClusterFinderTest, MatchesSequentialForAnyRankCount) {
  const int ranks = GetParam();
  const auto g = seq::synthetic_titin(260, 91);
  FinderOptions opt;
  opt.num_top_alignments = 7;

  const auto scalar = align::make_engine(align::EngineKind::kScalar);
  const auto reference = core::find_top_alignments(
      g.sequence, Scoring::protein_default(), opt, *scalar);

  ClusterOptions copt;
  copt.ranks = ranks;
  copt.finder = opt;
  ClusterRunInfo info;
  const auto res = find_top_alignments_cluster(
      g.sequence, Scoring::protein_default(), copt,
      align::engine_factory(align::EngineKind::kScalar), &info);
  std::string diff;
  EXPECT_TRUE(core::same_tops(reference.tops, res.tops, &diff))
      << ranks << " ranks: " << diff;
  core::validate_tops(res.tops, g.sequence, Scoring::protein_default());
  if (ranks > 1) {
    EXPECT_GT(info.messages, 0u);
  }
}

TEST_P(ClusterFinderTest, SimdWorkersMatchToo) {
  const int ranks = GetParam();
  const auto g = seq::synthetic_dna_tandem(180, 14, 7, 17);
  FinderOptions opt;
  opt.num_top_alignments = 5;
  const auto scalar = align::make_engine(align::EngineKind::kScalar);
  const auto reference = core::find_top_alignments(
      g.sequence, Scoring::paper_example(), opt, *scalar);

  ClusterOptions copt;
  copt.ranks = ranks;
  copt.finder = opt;
  const auto res = find_top_alignments_cluster(
      g.sequence, Scoring::paper_example(), copt,
      align::engine_factory(align::EngineKind::kSimd8Generic));
  std::string diff;
  EXPECT_TRUE(core::same_tops(reference.tops, res.tops, &diff))
      << ranks << " ranks: " << diff;
}

TEST_P(ClusterFinderTest, ExhaustiveSweepRealignsEveryRectangle) {
  // RescanPolicy::kExhaustiveSweep realigns all m-1 rectangles before each
  // acceptance after the first, on every rank count.
  const int ranks = GetParam();
  const auto g = seq::synthetic_titin(200, 95);
  FinderOptions opt;
  opt.num_top_alignments = 5;
  opt.policy = core::RescanPolicy::kExhaustiveSweep;
  const auto scalar = align::make_engine(align::EngineKind::kScalar);
  const auto reference = core::find_top_alignments(
      g.sequence, Scoring::protein_default(), opt, *scalar);

  ClusterOptions copt;
  copt.ranks = ranks;
  copt.finder = opt;
  const auto res = find_top_alignments_cluster(
      g.sequence, Scoring::protein_default(), copt,
      align::engine_factory(align::EngineKind::kScalar));
  std::string diff;
  EXPECT_TRUE(core::same_tops(reference.tops, res.tops, &diff))
      << ranks << " ranks: " << diff;
  ASSERT_EQ(res.tops.size(), 5u);
  EXPECT_EQ(res.stats.realignments, 4u * (g.sequence.length() - 1u))
      << ranks << " ranks";
}

INSTANTIATE_TEST_SUITE_P(Ranks, ClusterFinderTest, ::testing::Values(1, 2, 3, 5, 8));

/// Engine decorator that adds the engine's lane-cells to `tally` when the
/// finder destroys it.
class TalliedEngine final : public align::Engine {
 public:
  TalliedEngine(std::unique_ptr<align::Engine> inner, std::uint64_t& tally)
      : inner_(std::move(inner)), tally_(tally) {}
  ~TalliedEngine() override { tally_ += cells_computed(); }
  TalliedEngine(const TalliedEngine&) = delete;
  TalliedEngine& operator=(const TalliedEngine&) = delete;

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] int lanes() const override { return inner_->lanes(); }
  [[nodiscard]] bool supports_checkpoints() const override {
    return inner_->supports_checkpoints();
  }
  [[nodiscard]] align::PrecisionStats precision_stats() const override {
    return inner_->precision_stats();
  }

 protected:
  void do_align(const align::GroupJob& job,
                std::span<const std::span<align::Score>> out) override {
    inner_->align(job, out);
  }

 private:
  std::unique_ptr<align::Engine> inner_;
  std::uint64_t& tally_;
};

TEST(ClusterFinder, StatsComeFromTheWorkerEngines) {
  const auto g = seq::synthetic_titin(300, 96);
  ClusterOptions copt;
  copt.ranks = 3;
  copt.finder.num_top_alignments = 6;
  std::uint64_t tally = 0;
  const auto res = find_top_alignments_cluster(
      g.sequence, Scoring::protein_default(), copt, [&tally] {
        return std::make_unique<TalliedEngine>(
            align::make_engine(align::EngineKind::kSimdAuto), tally);
      });
  EXPECT_EQ(res.tops.size(), 6u);
  EXPECT_GT(res.stats.i8_sweeps, 0u);
  EXPECT_GT(tally, 0u);
  EXPECT_EQ(res.stats.cells, tally);
  // The master's acceptances are timed like the scheduler's.
  EXPECT_GT(res.stats.traceback_seconds, 0.0);
}

TEST(ClusterFinder, RowReplicasFlowWhenWorkersShareWork) {
  // With several workers, realignments frequently land on a worker that did
  // not compute the rectangle's first alignment, forcing replica fetches.
  const auto g = seq::synthetic_titin(300, 92);
  ClusterOptions copt;
  copt.ranks = 5;
  copt.finder.num_top_alignments = 8;
  ClusterRunInfo info;
  const auto res = find_top_alignments_cluster(
      g.sequence, Scoring::protein_default(), copt,
      align::engine_factory(align::EngineKind::kScalar), &info);
  EXPECT_EQ(res.tops.size(), 8u);
  EXPECT_GT(info.row_replicas_served, 0u);
  EXPECT_GT(info.payload_words, 0u);
}

TEST(ClusterFinder, DeterministicAcrossRepeats) {
  const auto g = seq::synthetic_dna_tandem(160, 10, 8, 44);
  ClusterOptions copt;
  copt.ranks = 4;
  copt.finder.num_top_alignments = 6;
  const auto factory = align::engine_factory(align::EngineKind::kScalar);
  const auto first = find_top_alignments_cluster(g.sequence,
                                                 Scoring::paper_example(),
                                                 copt, factory);
  for (int repeat = 0; repeat < 3; ++repeat) {
    const auto res = find_top_alignments_cluster(
        g.sequence, Scoring::paper_example(), copt, factory);
    std::string diff;
    EXPECT_TRUE(core::same_tops(first.tops, res.tops, &diff)) << diff;
  }
}

class PartitionedClusterTest : public ::testing::TestWithParam<int> {};

TEST_P(PartitionedClusterTest, PartitionedRowsMatchSequential) {
  // §4.3's alternative storage scheme: rows partitioned over worker ranks,
  // owners service peer requests. Results must stay identical.
  const int ranks = GetParam();
  const auto g = seq::synthetic_titin(240, 93);
  FinderOptions opt;
  opt.num_top_alignments = 7;
  const auto scalar = align::make_engine(align::EngineKind::kScalar);
  const auto reference = core::find_top_alignments(
      g.sequence, Scoring::protein_default(), opt, *scalar);

  ClusterOptions copt;
  copt.ranks = ranks;
  copt.row_storage = RowStorage::kPartitioned;
  copt.finder = opt;
  ClusterRunInfo info;
  const auto res = find_top_alignments_cluster(
      g.sequence, Scoring::protein_default(), copt,
      align::engine_factory(align::EngineKind::kScalar), &info);
  std::string diff;
  EXPECT_TRUE(core::same_tops(reference.tops, res.tops, &diff))
      << ranks << " ranks: " << diff;
  if (ranks > 2) {
    // With several workers, deposits must have crossed rank boundaries.
    EXPECT_GT(info.row_deposits, 0u);
    EXPECT_EQ(info.row_replicas_served, 0u);  // master serves nothing
  }
}

TEST_P(PartitionedClusterTest, PartitionedWithSimdWorkers) {
  const int ranks = GetParam();
  const auto g = seq::synthetic_dna_tandem(160, 12, 7, 55);
  FinderOptions opt;
  opt.num_top_alignments = 5;
  const auto scalar = align::make_engine(align::EngineKind::kScalar);
  const auto reference = core::find_top_alignments(
      g.sequence, Scoring::paper_example(), opt, *scalar);
  ClusterOptions copt;
  copt.ranks = ranks;
  copt.row_storage = RowStorage::kPartitioned;
  copt.finder = opt;
  const auto res = find_top_alignments_cluster(
      g.sequence, Scoring::paper_example(), copt,
      align::engine_factory(align::EngineKind::kSimd8Generic));
  std::string diff;
  EXPECT_TRUE(core::same_tops(reference.tops, res.tops, &diff))
      << ranks << " ranks: " << diff;
}

INSTANTIATE_TEST_SUITE_P(Ranks, PartitionedClusterTest,
                         ::testing::Values(2, 3, 5, 8));

TEST(ClusterFinder, PartitionedDeterministicAcrossRepeats) {
  const auto g = seq::synthetic_titin(220, 94);
  ClusterOptions copt;
  copt.ranks = 5;
  copt.row_storage = RowStorage::kPartitioned;
  copt.finder.num_top_alignments = 6;
  const auto factory = align::engine_factory(align::EngineKind::kScalar);
  const auto first = find_top_alignments_cluster(
      g.sequence, Scoring::protein_default(), copt, factory);
  for (int repeat = 0; repeat < 3; ++repeat) {
    const auto res = find_top_alignments_cluster(
        g.sequence, Scoring::protein_default(), copt, factory);
    std::string diff;
    EXPECT_TRUE(core::same_tops(first.tops, res.tops, &diff)) << diff;
  }
}

TEST(ClusterFinder, MinScoreStopsEarly) {
  const auto s = seq::random_sequence(seq::Alphabet::dna(), 90, 6);
  ClusterOptions copt;
  copt.ranks = 3;
  copt.finder.num_top_alignments = 400;
  copt.finder.min_score = 12;
  const auto res = find_top_alignments_cluster(
      s, Scoring::paper_example(), copt,
      align::engine_factory(align::EngineKind::kScalar));
  EXPECT_LT(res.tops.size(), 400u);
  for (const auto& top : res.tops) EXPECT_GE(top.score, 12);
}

}  // namespace
}  // namespace repro::cluster
