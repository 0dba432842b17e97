// Observability layer: registry slots, snapshot/reset semantics, the
// perf-record JSON schema, and the end-to-end wiring through the finder.
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "align/engine.hpp"
#include "cluster/master_worker.hpp"
#include "core/top_alignment_finder.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/stats.hpp"
#include "parallel/parallel_finder.hpp"
#include "seq/generator.hpp"
#include "util/json.hpp"

namespace repro::obs {
namespace {

TEST(Counter, AddAndReset) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  if constexpr (kEnabled) {
    EXPECT_EQ(c.value(), 42u);
  } else {
    EXPECT_EQ(c.value(), 0u);  // disabled builds report zero, never garbage
  }
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(TimeAccum, AccumulatesSeconds) {
  TimeAccum t;
  t.add_seconds(0.25);
  t.add_seconds(0.5);
  if constexpr (kEnabled) {
    EXPECT_NEAR(t.seconds(), 0.75, 1e-6);
  } else {
    EXPECT_EQ(t.seconds(), 0.0);
  }
}

TEST(RegistryTest, CounterSlotsAreFindOrCreateAndStable) {
  Registry reg;
  Counter& a = reg.counter("x");
  Counter& b = reg.counter("x");
  EXPECT_EQ(&a, &b);
  a.add(3);
  // reset() zeroes values but must keep the slot reference valid — hot
  // paths cache the reference in a function-local static.
  reg.reset();
  EXPECT_EQ(a.value(), 0u);
  a.add(5);
  EXPECT_EQ(&reg.counter("x"), &a);
  if constexpr (kEnabled) {
    EXPECT_EQ(reg.snapshot().counters.at("x"), 5u);
  }
}

TEST(RegistryTest, SnapshotCapturesEverySlotKind) {
  Registry reg;
  reg.counter("cells").add(100);
  reg.timer("compute").add_seconds(1.5);
  reg.set_gauge("efficiency_pct", 95.0);
  reg.set_gauge("efficiency_pct", 96.1);  // last write wins
  reg.record_span("run", 0.0, 2.0);

  const auto snap = reg.snapshot();
  if constexpr (kEnabled) {
    EXPECT_EQ(snap.counters.at("cells"), 100u);
    EXPECT_NEAR(snap.timers_sec.at("compute"), 1.5, 1e-6);
    EXPECT_DOUBLE_EQ(snap.gauges.at("efficiency_pct"), 96.1);
    ASSERT_EQ(snap.spans.size(), 1u);
    EXPECT_EQ(snap.spans[0].name, "run");
    EXPECT_DOUBLE_EQ(snap.spans[0].duration_sec, 2.0);
  } else {
    EXPECT_EQ(snap.counters.at("cells"), 0u);
  }
  EXPECT_EQ(snap.spans_dropped, 0u);
}

TEST(RegistryTest, ResetClearsGaugesAndSpans) {
  Registry reg;
  reg.set_gauge("g", 1.0);
  reg.record_span("s", 0.0, 1.0);
  reg.reset();
  const auto snap = reg.snapshot();
  EXPECT_TRUE(snap.gauges.empty());
  EXPECT_TRUE(snap.spans.empty());
}

TEST(RegistryTest, SpanLogIsBounded) {
  Registry reg;
  for (std::size_t i = 0; i < Registry::kMaxSpans + 10; ++i)
    reg.record_span("s", 0.0, 0.0);
  const auto snap = reg.snapshot();
  EXPECT_LE(snap.spans.size(), Registry::kMaxSpans);
  if constexpr (kEnabled) {
    EXPECT_EQ(snap.spans_dropped, 10u);
  }
}

TEST(RegistryTest, ConcurrentAddsAreLossless) {
  if constexpr (!kEnabled) GTEST_SKIP() << "REPRO_OBS=OFF build";
  Registry reg;
  Counter& c = reg.counter("shared");
  std::vector<std::thread> threads;
  constexpr int kThreads = 4, kAdds = 10000;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&c] {
      for (int i = 0; i < kAdds; ++i) c.add();
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kAdds);
}

TEST(RegistryTest, WriteJsonShape) {
  Registry reg;
  reg.counter("cells").add(7);
  reg.timer("sec").add_seconds(0.5);
  reg.set_gauge("pct", 50.0);
  reg.record_span("phase", 0.25, 1.0);
  util::JsonWriter json;
  reg.write_json(json);
  const std::string doc = json.str();
  EXPECT_NE(doc.find("\"counters\":{"), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"timers_sec\":{"), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"gauges\":{"), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"spans\":["), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"spans_dropped\":"), std::string::npos) << doc;
  if constexpr (kEnabled) {
    EXPECT_NE(doc.find("\"cells\":7"), std::string::npos) << doc;
    EXPECT_NE(doc.find("\"name\":\"phase\""), std::string::npos) << doc;
  }
}

TEST(ScopedTimerTest, AddsElapsedTime) {
  TimeAccum t;
  { ScopedTimer timer(t); }
  if constexpr (kEnabled) {
    EXPECT_GE(t.seconds(), 0.0);
  }
}

TEST(ScopedSpanTest, RecordsOnDestruction) {
  Registry reg;
  { ScopedSpan span(reg, "scope"); }
  const auto snap = reg.snapshot();
  if constexpr (kEnabled) {
    ASSERT_EQ(snap.spans.size(), 1u);
    EXPECT_EQ(snap.spans[0].name, "scope");
    EXPECT_GE(snap.spans[0].duration_sec, 0.0);
  } else {
    EXPECT_TRUE(snap.spans.empty());
  }
}

TEST(MetricsReportTest, SchemaShape) {
  MetricsReport report("unit_test");
  report.param("engine", "scalar");
  report.param("m", 1200);
  report.param("fast", true);
  report.metric("cells_per_sec", 1.5e9);
  report.counter("cells", 42);
  const std::string doc = report.to_json();
  EXPECT_NE(doc.find("\"schema\":\"repro-metrics-v1\""), std::string::npos)
      << doc;
  EXPECT_NE(doc.find("\"name\":\"unit_test\""), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"engine\":\"scalar\""), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"m\":1200"), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"fast\":true"), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"cells\":42"), std::string::npos) << doc;
  // No registry requested: the key must be absent entirely.
  EXPECT_EQ(doc.find("\"registry\""), std::string::npos) << doc;
}

TEST(MetricsReportTest, EmbedsRegistrySnapshot) {
  Registry reg;
  reg.counter("finder.cells").add(9);
  MetricsReport report("with_registry");
  report.include_registry(reg);
  const std::string doc = report.to_json();
  EXPECT_NE(doc.find("\"registry\":{"), std::string::npos) << doc;
  if constexpr (kEnabled) {
    EXPECT_NE(doc.find("\"finder.cells\":9"), std::string::npos) << doc;
  }
}

// End-to-end: a sequential finder run populates the global registry with
// the paper-claim counters (§3 skip rate inputs, cell counts, spans).
TEST(Integration, FinderRunPopulatesGlobalRegistry) {
  if constexpr (!kEnabled) GTEST_SKIP() << "REPRO_OBS=OFF build";
  Registry::global().reset();
  const auto g = seq::synthetic_titin(200, 11);
  core::FinderOptions opt;
  opt.num_top_alignments = 5;
  const auto engine = align::make_engine(align::EngineKind::kScalar);
  const auto res = core::find_top_alignments(
      g.sequence, seq::Scoring::protein_default(), opt, *engine);
  ASSERT_FALSE(res.tops.empty());

  const auto snap = Registry::global().snapshot();
  EXPECT_EQ(snap.counters.at("finder.cells"), res.stats.cells);
  EXPECT_EQ(snap.counters.at("finder.first_alignments"),
            res.stats.first_alignments);
  EXPECT_EQ(snap.counters.at("finder.tracebacks"), res.stats.tracebacks);
  // The engines publish nothing themselves: their tallies reach the
  // registry once, as the run's own counters.
  for (const auto& [name, value] : snap.counters)
    EXPECT_NE(name.rfind("align.", 0), 0u) << name << " = " << value;
  EXPECT_GT(snap.counters.at("finder.queue.pushes"), 0u);
  // The acceptances' wall time, published once from the run's stats.
  EXPECT_GT(res.stats.traceback_seconds, 0.0);
  EXPECT_NEAR(snap.timers_sec.at("finder.traceback_seconds"),
              res.stats.traceback_seconds, 1e-6);
  std::set<std::string> span_names;
  for (const auto& span : snap.spans) span_names.insert(span.name);
  EXPECT_TRUE(span_names.count("finder.run")) << "finder.run span missing";
}

// Every number of a run's stats lists reaches the registry once, as the
// value the run returned.
template <class Record, std::size_t N>
void expect_registry_holds(const Stat<Record> (&list)[N], const Record& record,
                           const std::string& prefix) {
  const auto snap = Registry::global().snapshot();
  for (const Stat<Record>& s : list) {
    const std::string key = prefix + std::string(s.name);
    if (s.count != nullptr) {
      ASSERT_TRUE(snap.counters.count(key)) << key;
      EXPECT_EQ(snap.counters.at(key), record.*s.count) << key;
    } else {
      ASSERT_TRUE(snap.timers_sec.count(key)) << key;
      EXPECT_NEAR(snap.timers_sec.at(key), record.*s.seconds, 1e-6) << key;
    }
  }
  for (const auto& [name, value] : snap.counters)
    EXPECT_NE(name.rfind("align.", 0), 0u) << name << " = " << value;
}

class RegistryStatsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if constexpr (!kEnabled) GTEST_SKIP() << "REPRO_OBS=OFF build";
    Registry::global().reset();
    opt_.num_top_alignments = 6;
  }

  const seq::GeneratedSequence g_ = seq::synthetic_titin(240, 19);
  const seq::Scoring scoring_ = seq::Scoring::protein_default();
  core::FinderOptions opt_;
};

TEST_F(RegistryStatsTest, OneThread) {
  const auto engine = align::make_best_engine();
  const auto res =
      core::find_top_alignments(g_.sequence, scoring_, opt_, *engine);
  EXPECT_GT(res.stats.group_alignments, 0u);
  EXPECT_GT(res.stats.profile_builds, 0u);
  expect_registry_holds(core::kFinderStats, res.stats, "finder.");
}

TEST_F(RegistryStatsTest, ThreeThreads) {
  parallel::ParallelOptions popt;
  popt.threads = 3;
  popt.finder = opt_;
  const auto res = parallel::find_top_alignments_parallel(
      g_.sequence, scoring_, popt,
      align::engine_factory(align::EngineKind::kSimdAuto));
  expect_registry_holds(core::kFinderStats, res.stats, "parallel.");
}

TEST_F(RegistryStatsTest, ThreeRanks) {
  cluster::ClusterOptions copt;
  copt.ranks = 3;
  copt.finder = opt_;
  cluster::ClusterRunInfo info;
  const auto res = cluster::find_top_alignments_cluster(
      g_.sequence, scoring_, copt,
      align::engine_factory(align::EngineKind::kSimdAuto), &info);
  EXPECT_GT(info.messages, 0u);
  expect_registry_holds(core::kFinderStats, res.stats, "cluster.");
  expect_registry_holds(cluster::kClusterRunStats, info, "cluster.");
}

// The gauges beside a prefix's counters describe the same runs: every run
// published under it, not only the last. Two runs, the checkpoint cache on
// and then off, so the second run alone would give different ratios.
TEST(Integration, GaugesAreRatiosOfTheirCounters) {
  if constexpr (!kEnabled) GTEST_SKIP() << "REPRO_OBS=OFF build";
  Registry::global().reset();
  const auto g = seq::synthetic_titin(260, 22);
  const auto scoring = seq::Scoring::protein_default();
  const auto engine = align::make_best_engine();
  core::FinderOptions opt;
  opt.num_top_alignments = 8;
  core::FinderStats sum;
  std::uint64_t exhaustive = 0;  // (tops - 1)(m - 1) per run
  for (const std::size_t budget : {core::FinderOptions{}.checkpoint_mem,
                                   std::size_t{0}}) {
    opt.checkpoint_mem = budget;
    const auto res =
        core::find_top_alignments(g.sequence, scoring, opt, *engine);
    add(core::kFinderStats, sum, res.stats);
    exhaustive += (res.tops.size() - 1) * (260 - 1);
  }
  ASSERT_GT(sum.rows_skipped, 0u);  // the cached run resumed rows

  const auto snap = Registry::global().snapshot();
  const auto count = [&snap](const char* name) {
    return static_cast<double>(snap.counters.at(std::string("finder.") + name));
  };
  const auto gauge = [&snap](const char* name) {
    return snap.gauges.at(std::string("finder.") + name);
  };
  EXPECT_DOUBLE_EQ(
      gauge("ckpt_rows_skipped_pct"),
      100.0 * count("ckpt_rows_skipped") / count("ckpt_rows_swept"));
  EXPECT_DOUBLE_EQ(gauge("ckpt_hit_rate_pct"),
                   100.0 * count("ckpt_hits") /
                       (count("ckpt_hits") + count("ckpt_misses")));
  EXPECT_DOUBLE_EQ(gauge("realignments_avoided_pct"),
                   100.0 - 100.0 * count("realignments") /
                               count("exhaustive_realignments"));
  EXPECT_DOUBLE_EQ(gauge("cells_per_sec"),
                   count("cells") / snap.timers_sec.at("finder.seconds"));
  // The registry's sums are the runs' sums.
  EXPECT_EQ(count("ckpt_rows_skipped"), static_cast<double>(sum.rows_skipped));
  EXPECT_EQ(count("exhaustive_realignments"), static_cast<double>(exhaustive));
}

}  // namespace
}  // namespace repro::obs
