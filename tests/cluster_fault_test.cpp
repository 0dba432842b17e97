// Fault tolerance of the distributed finder: deterministic fault plans,
// closed-channel semantics, and the chaos matrix — under every seeded
// schedule of drops/delays/duplicates/crashes that leaves the master and at
// least one worker alive, the cluster finder must accept top alignments
// identical to the sequential finder's.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <tuple>

#include "cluster/fault.hpp"
#include "cluster/master_worker.hpp"
#include "cluster/mpisim.hpp"
#include "core/top_alignment_finder.hpp"
#include "core/verify.hpp"
#include "seq/generator.hpp"

namespace repro::cluster {
namespace {

using core::FinderOptions;
using seq::Scoring;

// ---------------------------------------------------------------------------
// FaultPlan: spec grammar, seeding, invariants.

TEST(FaultPlan, ParsesSpecGrammar) {
  const auto plan = FaultPlan::parse(
      "drop:from=1,to=0,op=3; delay:from=0,to=2,op=0,ticks=64;"
      "dup:from=2,to=0,op=5; crash:rank=3,op=40");
  ASSERT_EQ(plan.events.size(), 4u);
  EXPECT_EQ(plan.events[0].kind, FaultKind::kDrop);
  EXPECT_EQ(plan.events[0].from, 1);
  EXPECT_EQ(plan.events[0].to, 0);
  EXPECT_EQ(plan.events[0].op, 3u);
  EXPECT_EQ(plan.events[1].kind, FaultKind::kDelay);
  EXPECT_EQ(plan.events[1].ticks, 64u);
  EXPECT_EQ(plan.events[2].kind, FaultKind::kDuplicate);
  EXPECT_EQ(plan.events[3].kind, FaultKind::kCrash);
  EXPECT_EQ(plan.events[3].from, 3);
  EXPECT_TRUE(plan.schedules_crash());
  EXPECT_EQ(plan.crashed_ranks(), std::vector<int>{3});
  EXPECT_TRUE(plan.has_delays());
}

TEST(FaultPlan, ToStringRoundTrips) {
  const char* spec =
      "drop:from=1,to=0,op=3;delay:from=0,to=2,op=0,ticks=64;"
      "dup:from=2,to=0,op=5;crash:rank=3,op=40";
  EXPECT_EQ(FaultPlan::parse(spec).to_string(), spec);
  EXPECT_EQ(FaultPlan::parse(FaultPlan::parse(spec).to_string()).to_string(),
            spec);
}

TEST(FaultPlan, RejectsMalformedSpecs) {
  EXPECT_THROW(FaultPlan::parse("nonsense"), std::runtime_error);
  EXPECT_THROW(FaultPlan::parse("explode:from=0,to=1,op=2"), std::runtime_error);
  EXPECT_THROW(FaultPlan::parse("drop:from=1"), std::runtime_error);
  EXPECT_THROW(FaultPlan::parse("drop:from=1,to=0,op=x"), std::runtime_error);
  EXPECT_THROW(FaultPlan::parse("delay:from=0,to=1,op=2"), std::runtime_error);
  EXPECT_THROW(FaultPlan::parse("drop:from=0,to=1,op=1,ticks=4"),
               std::runtime_error);
  EXPECT_THROW(FaultPlan::parse("crash:rank=1,to=0,op=4"), std::runtime_error);
  EXPECT_THROW(FaultPlan::parse("drop:from=0,to=1,op=2,why=5"),
               std::runtime_error);
}

TEST(FaultPlan, SeededPlansAreDeterministic) {
  for (std::uint64_t seed : {1u, 7u, 99u}) {
    const auto a = FaultPlan::from_seed(seed, 4);
    const auto b = FaultPlan::from_seed(seed, 4);
    EXPECT_EQ(a.to_string(), b.to_string()) << "seed " << seed;
    EXPECT_FALSE(a.empty());
  }
  EXPECT_NE(FaultPlan::from_seed(1, 4).to_string(),
            FaultPlan::from_seed(2, 4).to_string());
}

TEST(FaultPlan, SeededPlansRespectRecoveryRegime) {
  // Never crash the master; always leave at least one worker alive; never
  // crash at all with a single worker.
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    for (int ranks : {2, 3, 8}) {
      const auto crashed = FaultPlan::from_seed(seed, ranks).crashed_ranks();
      for (int c : crashed) {
        EXPECT_GT(c, 0) << "seed " << seed;
        EXPECT_LT(c, ranks) << "seed " << seed;
      }
      EXPECT_LT(static_cast<int>(crashed.size()), ranks - 1)
          << "seed " << seed << " ranks " << ranks;
    }
  }
}

// ---------------------------------------------------------------------------
// Comm under injection: per-event semantics and closed-channel behavior.

TEST(CommFault, DropsScheduledMessage) {
  Comm comm(2, FaultPlan::parse("drop:from=0,to=1,op=1"));
  for (int k = 0; k < 3; ++k) comm.send(0, 1, {k, {}});
  EXPECT_EQ(comm.recv(1, 0).tag, 0);
  EXPECT_EQ(comm.recv(1, 0).tag, 2);  // op 1 vanished
  EXPECT_EQ(comm.fault_stats().drops, 1u);
  EXPECT_EQ(comm.messages_sent(), 3u);  // attempts are still counted
}

TEST(CommFault, DuplicateDeliveredBackToBack) {
  Comm comm(2, FaultPlan::parse("dup:from=0,to=1,op=0"));
  comm.send(0, 1, {5, {42}});
  comm.send(0, 1, {6, {}});
  EXPECT_EQ(comm.recv(1, 0).tag, 5);
  EXPECT_EQ(comm.recv(1, 0).tag, 5);
  EXPECT_EQ(comm.recv(1, 0).tag, 6);
  EXPECT_EQ(comm.fault_stats().duplicates, 1u);
}

TEST(CommFault, DelayPreservesChannelFifo) {
  // Message 0 is held; message 1 must queue behind it, not overtake.
  Comm comm(2, FaultPlan::parse("delay:from=0,to=1,op=0,ticks=8"));
  comm.send(0, 1, {0, {}});
  comm.send(0, 1, {1, {}});
  EXPECT_EQ(comm.recv(1, 0).tag, 0);
  EXPECT_EQ(comm.recv(1, 0).tag, 1);
  EXPECT_EQ(comm.fault_stats().delays, 1u);
}

TEST(CommFault, CrashFiresAtScheduledOp) {
  Comm comm(2, FaultPlan::parse("crash:rank=1,op=2"));
  std::atomic<int> sends_completed{0};
  run_ranks(comm, [&](int rank) {
    if (rank == 1) {
      comm.send(1, 0, {1, {}});
      ++sends_completed;
      comm.send(1, 0, {2, {}});  // op 2: dies here
      ++sends_completed;
    }
  });
  EXPECT_EQ(sends_completed.load(), 1);
  EXPECT_TRUE(comm.closed(1));
  EXPECT_EQ(comm.fault_stats().crashes, 1u);
  EXPECT_EQ(comm.alive_ranks(), 0);  // rank 0 exited too (normally)
}

TEST(CommFault, RecvOnClosedSourceThrows) {
  Comm comm(2);
  comm.close(0);
  EXPECT_THROW(comm.recv(1, 0), ChannelClosed);
  EXPECT_THROW(comm.recv_tagged(1, 0, 7), ChannelClosed);
  EXPECT_THROW(comm.recv_any(1), ChannelClosed);
}

TEST(CommFault, QueuedMessagesDrainBeforeClosedThrows) {
  Comm comm(2);
  comm.send(0, 1, {4, {11}});
  comm.close(0);
  EXPECT_EQ(comm.recv(1, 0).data.at(0), 11);  // already-sent data survives
  EXPECT_THROW(comm.recv(1, 0), ChannelClosed);
}

TEST(CommFault, SendToClosedRankIsDiscarded) {
  Comm comm(2);
  comm.close(1);
  comm.send(0, 1, {3, {}});  // must not throw; the peer can never receive
  EXPECT_EQ(comm.messages_sent(), 1u);
  EXPECT_EQ(comm.alive_ranks(), 1);
}

TEST(CommFault, RecvAnyForTimesOut) {
  Comm comm(2);
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(comm.recv_any_for(1, std::chrono::milliseconds(30)).has_value());
  EXPECT_GE(std::chrono::steady_clock::now() - t0,
            std::chrono::milliseconds(25));
  comm.send(0, 1, {2, {}});
  const auto got = comm.recv_any_for(1, std::chrono::milliseconds(1000));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->second.tag, 2);
}

// Regression: this exact shape deadlocked before closed-channel signaling —
// rank 0 exits without sending, rank 1 blocks in recv forever. It must now
// fail fast (well within the 5 s watchdog) with ChannelClosed, which
// run_ranks surfaces as the run's error.
TEST(CommFault, RecvAfterPeerExitFailsFastNotDeadlock) {
  struct Probe {
    std::atomic<bool> finished{false};
    std::atomic<bool> channel_closed_thrown{false};
  };
  auto probe = std::make_shared<Probe>();
  std::thread runner([probe] {
    Comm comm(2);
    try {
      run_ranks(comm, [&](int rank) {
        if (rank == 1) comm.recv(1, 0);  // rank 0 exits immediately
      });
    } catch (const ChannelClosed&) {
      probe->channel_closed_thrown = true;
    }
    probe->finished = true;
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!probe->finished.load() &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  if (!probe->finished.load()) {
    runner.detach();  // leak the wedged thread; the probe keeps state alive
    FAIL() << "recv after peer exit still deadlocks";
  }
  runner.join();
  EXPECT_TRUE(probe->channel_closed_thrown.load());
}

// ---------------------------------------------------------------------------
// Cluster finder under chaos.

/// Aggressive recovery tuning so 50-seed sweeps stay fast; safe because
/// result dedup makes spurious timeouts cost only repeated work.
FaultToleranceOptions test_ft() {
  FaultToleranceOptions ft;
  ft.task_timeout_ms = 60;
  ft.row_timeout_ms = 30;
  ft.hello_timeout_ms = 40;
  ft.max_backoff_ms = 400;
  ft.poll_ms = 5;
  return ft;
}

core::FinderResult run_faulted(const seq::Sequence& s, const Scoring& scoring,
                               int ranks, RowStorage storage, FaultPlan plan,
                               int tops, ClusterRunInfo* info = nullptr) {
  ClusterOptions copt;
  copt.ranks = ranks;
  copt.row_storage = storage;
  copt.finder.num_top_alignments = tops;
  copt.fault_plan = std::move(plan);
  copt.ft = test_ft();
  return find_top_alignments_cluster(
      s, scoring, copt, align::engine_factory(align::EngineKind::kScalar),
      info);
}

class ChaosMatrixTest
    : public ::testing::TestWithParam<std::tuple<RowStorage, int>> {};

TEST_P(ChaosMatrixTest, SeededSchedulesMatchSequential) {
  const auto [storage, ranks] = GetParam();
  const auto g = seq::synthetic_titin(140, 91);
  FinderOptions opt;
  opt.num_top_alignments = 4;
  const auto scalar = align::make_engine(align::EngineKind::kScalar);
  const auto reference = core::find_top_alignments(
      g.sequence, Scoring::protein_default(), opt, *scalar);

  std::uint64_t total_injected = 0;
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    ClusterRunInfo info;
    const auto res = run_faulted(g.sequence, Scoring::protein_default(), ranks,
                                 storage, FaultPlan::from_seed(seed, ranks),
                                 opt.num_top_alignments, &info);
    std::string diff;
    ASSERT_TRUE(core::same_tops(reference.tops, res.tops, &diff))
        << "seed " << seed << ", ranks " << ranks << ", storage "
        << (storage == RowStorage::kPartitioned ? "partitioned" : "replica")
        << ": " << diff;
    total_injected += info.faults_injected;
    EXPECT_EQ(info.fault_stats.injected(), info.faults_injected);
  }
  // Across 50 seeded schedules real faults must actually have fired — a
  // suite that injects nothing proves nothing.
  EXPECT_GT(total_injected, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    StorageByRanks, ChaosMatrixTest,
    ::testing::Combine(::testing::Values(RowStorage::kMasterReplica,
                                         RowStorage::kPartitioned),
                       ::testing::Values(2, 3, 4, 8)),
    [](const auto& info) {
      const RowStorage storage = std::get<0>(info.param);
      return std::string(storage == RowStorage::kPartitioned ? "Partitioned"
                                                             : "Replica") +
             std::to_string(std::get<1>(info.param));
    });

TEST(ChaosLowMemory, LinearSpaceSeededSchedulesMatchSequential) {
  // Low-memory mode with the linear-space traceback: no rank keeps rows, so
  // every realignment sweeps its originals alongside and every acceptance
  // fetches the head's original from a worker that rebuilds it — through
  // the same drops, delays, duplicates and crashes as the archive modes.
  const auto g = seq::synthetic_titin(140, 91);
  FinderOptions opt;
  opt.num_top_alignments = 4;
  opt.memory = core::MemoryMode::kRecomputeRows;
  opt.traceback = core::TracebackMode::kLinearSpace;
  const auto scalar = align::make_engine(align::EngineKind::kScalar);
  const auto reference = core::find_top_alignments(
      g.sequence, Scoring::protein_default(), opt, *scalar);

  const int ranks = 4;
  std::uint64_t total_injected = 0;
  std::uint64_t total_rebuilds = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    ClusterOptions copt;
    copt.ranks = ranks;
    copt.finder = opt;
    copt.fault_plan = FaultPlan::from_seed(seed, ranks);
    copt.ft = test_ft();
    ClusterRunInfo info;
    const auto res = find_top_alignments_cluster(
        g.sequence, Scoring::protein_default(), copt,
        align::engine_factory(align::EngineKind::kScalar), &info);
    std::string diff;
    ASSERT_TRUE(core::same_tops(reference.tops, res.tops, &diff))
        << "seed " << seed << ": " << diff;
    EXPECT_EQ(info.row_deposits, 0u) << "seed " << seed;
    total_injected += info.faults_injected;
    total_rebuilds += info.row_rebuilds;
  }
  EXPECT_GT(total_injected, 0u);
  EXPECT_GT(total_rebuilds, 0u);
}

// ---------------------------------------------------------------------------
// Targeted schedules: the specific failure windows called out in the issue.

struct ChaosFixture {
  seq::GeneratedSequence g = seq::synthetic_titin(140, 91);
  FinderOptions opt;
  core::FinderResult reference;

  ChaosFixture() {
    opt.num_top_alignments = 4;
    const auto scalar = align::make_engine(align::EngineKind::kScalar);
    reference = core::find_top_alignments(g.sequence,
                                          Scoring::protein_default(), opt,
                                          *scalar);
  }

  void expect_identical(const core::FinderResult& res,
                        const std::string& label) const {
    std::string diff;
    EXPECT_TRUE(core::same_tops(reference.tops, res.tops, &diff))
        << label << ": " << diff;
  }
};

TEST(ChaosTargeted, CrashBeforeFirstTask) {
  // Worker 1 dies on its very first comm op (the hello send): the master
  // must detect the closed channel and finish the run on worker 2 alone.
  ChaosFixture fx;
  ClusterRunInfo info;
  const auto res =
      run_faulted(fx.g.sequence, Scoring::protein_default(), 3,
                  RowStorage::kMasterReplica, FaultPlan::parse("crash:rank=1,op=1"),
                  fx.opt.num_top_alignments, &info);
  fx.expect_identical(res, "crash before first task");
  EXPECT_EQ(info.workers_lost, 1u);
  EXPECT_EQ(info.fault_stats.crashes, 1u);
}

TEST(ChaosTargeted, CrashMidBroadcastWindow) {
  // A worker dies deep in the run, with assignments and update broadcasts
  // in flight: its task must be reassigned and the survivors resynced.
  ChaosFixture fx;
  ClusterRunInfo info;
  const auto res =
      run_faulted(fx.g.sequence, Scoring::protein_default(), 4,
                  RowStorage::kMasterReplica, FaultPlan::parse("crash:rank=2,op=30"),
                  fx.opt.num_top_alignments, &info);
  fx.expect_identical(res, "crash mid broadcast");
  EXPECT_EQ(info.workers_lost, 1u);
}

TEST(ChaosTargeted, CrashDuringPartitionedRowFetch) {
  // Partitioned mode: every deposit worker 1 makes is dropped, and it dies
  // mid-v0 — so every row it computed is simply gone. Consumers (including
  // the master's traceback fetches) must re-route to the survivor, which
  // rebuilds the lost rows from scratch.
  ChaosFixture fx;
  FaultPlan plan = FaultPlan::parse("crash:rank=1,op=150");
  for (std::uint64_t op = 0; op < 80; ++op)
    plan.events.push_back({FaultKind::kDrop, 1, 2, op, 0});
  ClusterRunInfo info;
  const auto res =
      run_faulted(fx.g.sequence, Scoring::protein_default(), 3,
                  RowStorage::kPartitioned, std::move(plan),
                  fx.opt.num_top_alignments, &info);
  fx.expect_identical(res, "crash during partitioned row fetch");
  EXPECT_EQ(info.workers_lost, 1u);
  EXPECT_GT(info.row_rebuilds, 0u);
}

TEST(ChaosTargeted, AllMessagesDelayed) {
  // Every channel jittered on every early op: nothing is lost, everything
  // is late. FIFO-per-channel must hold and the result must not change.
  ChaosFixture fx;
  FaultPlan plan;
  for (int from = 0; from < 3; ++from)
    for (int to = 0; to < 3; ++to) {
      if (from == to) continue;
      for (std::uint64_t op = 0; op < 120; ++op)
        plan.events.push_back(
            {FaultKind::kDelay, from, to, op, 2 + (op % 7)});
    }
  ClusterRunInfo info;
  const auto res =
      run_faulted(fx.g.sequence, Scoring::protein_default(), 3,
                  RowStorage::kMasterReplica, std::move(plan),
                  fx.opt.num_top_alignments, &info);
  fx.expect_identical(res, "all messages delayed");
  EXPECT_GT(info.fault_stats.delays, 0u);
  EXPECT_EQ(info.workers_lost, 0u);
}

TEST(ChaosTargeted, MostWorkersCrashStaggered) {
  // Six of seven workers die at staggered points; the lone survivor must
  // absorb every reassignment and still reproduce the sequential result.
  ChaosFixture fx;
  FaultPlan plan = FaultPlan::parse(
      "crash:rank=2,op=10;crash:rank=3,op=20;crash:rank=4,op=30;"
      "crash:rank=5,op=40;crash:rank=6,op=50;crash:rank=7,op=60");
  ClusterRunInfo info;
  const auto res =
      run_faulted(fx.g.sequence, Scoring::protein_default(), 8,
                  RowStorage::kMasterReplica, std::move(plan),
                  fx.opt.num_top_alignments, &info);
  fx.expect_identical(res, "staggered mass crash");
  EXPECT_EQ(info.workers_lost, 6u);
  core::validate_tops(res.tops, fx.g.sequence, Scoring::protein_default());
}

TEST(ChaosTargeted, RecoveryCountersSurfaceInRunInfo) {
  // Heavy drop schedule on the master->worker assign channel: recovery must
  // go through the timeout/requeue machinery and say so in the counters.
  ChaosFixture fx;
  FaultPlan plan;
  for (std::uint64_t op = 0; op < 6; ++op)
    plan.events.push_back({FaultKind::kDrop, 0, 1, op, 0});
  ClusterRunInfo info;
  const auto res =
      run_faulted(fx.g.sequence, Scoring::protein_default(), 3,
                  RowStorage::kMasterReplica, std::move(plan),
                  fx.opt.num_top_alignments, &info);
  fx.expect_identical(res, "assign drops");
  EXPECT_GT(info.faults_injected, 0u);
  EXPECT_GT(info.heartbeat_misses + info.retries + info.stale_results, 0u);
}

TEST(ChaosTargeted, PlanCrashingMasterIsRejected) {
  ChaosFixture fx;
  EXPECT_THROW(run_faulted(fx.g.sequence, Scoring::protein_default(), 3,
                           RowStorage::kMasterReplica,
                           FaultPlan::parse("crash:rank=0,op=5"),
                           fx.opt.num_top_alignments),
               std::logic_error);
}

TEST(ChaosTargeted, PlanKillingAllWorkersIsRejected) {
  ChaosFixture fx;
  EXPECT_THROW(run_faulted(fx.g.sequence, Scoring::protein_default(), 3,
                           RowStorage::kMasterReplica,
                           FaultPlan::parse("crash:rank=1,op=5;crash:rank=2,op=9"),
                           fx.opt.num_top_alignments),
               std::logic_error);
}

// ---------------------------------------------------------------------------
// Partitioned-storage edge cases (previously untested).

TEST(PartitionedEdge, SingleWorkerOwnsAllShardsFaultFree) {
  // ranks == 2: one worker owns every row shard, so every row request it
  // makes is against itself and no deposit ever crosses a rank boundary.
  ChaosFixture fx;
  ClusterRunInfo info;
  const auto res = run_faulted(fx.g.sequence, Scoring::protein_default(), 2,
                               RowStorage::kPartitioned, FaultPlan{},
                               fx.opt.num_top_alignments, &info);
  fx.expect_identical(res, "single-worker partitioned");
  EXPECT_EQ(info.row_deposits, 0u);         // owner-services-own-request only
  EXPECT_EQ(info.row_replicas_served, 0u);  // master serves nothing
  EXPECT_EQ(info.faults_injected, 0u);
}

TEST(PartitionedEdge, SingleWorkerOwnsAllShardsUnderFaults) {
  // Same topology under 20 seeded schedules (no crashes are ever generated
  // for a single worker — the recovery regime needs a survivor).
  ChaosFixture fx;
  for (std::uint64_t seed = 100; seed < 120; ++seed) {
    const auto plan = FaultPlan::from_seed(seed, 2);
    EXPECT_FALSE(plan.schedules_crash()) << "seed " << seed;
    ClusterRunInfo info;
    const auto res = run_faulted(fx.g.sequence, Scoring::protein_default(), 2,
                                 RowStorage::kPartitioned, plan,
                                 fx.opt.num_top_alignments, &info);
    std::string diff;
    ASSERT_TRUE(core::same_tops(fx.reference.tops, res.tops, &diff))
        << "seed " << seed << ": " << diff;
    EXPECT_EQ(info.row_deposits, 0u);
  }
}

TEST(PartitionedEdge, OwnerServicesOwnRequestsAcrossRanks) {
  // With three workers each owner both serves peers and consumes its own
  // shards; deposits must cross ranks while self-owned rows stay local.
  ChaosFixture fx;
  ClusterRunInfo info;
  const auto res = run_faulted(fx.g.sequence, Scoring::protein_default(), 4,
                               RowStorage::kPartitioned, FaultPlan{},
                               fx.opt.num_top_alignments, &info);
  fx.expect_identical(res, "multi-owner partitioned");
  EXPECT_GT(info.row_deposits, 0u);
  EXPECT_EQ(info.row_replicas_served, 0u);
}

}  // namespace
}  // namespace repro::cluster
