// Observability layer: registry slots, snapshot/reset semantics, the
// perf-record JSON schema, and the end-to-end wiring through the finder.
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "align/engine.hpp"
#include "core/top_alignment_finder.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
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
  // The engine's own accounting must agree with the finder's.
  EXPECT_EQ(snap.counters.at("align.lane_cells"), res.stats.cells);
  EXPECT_GT(snap.counters.at("finder.queue.pushes"), 0u);
  // The acceptances' wall time, published once from the run's stats.
  EXPECT_GT(res.stats.traceback_seconds, 0.0);
  EXPECT_NEAR(snap.timers_sec.at("finder.traceback_seconds"),
              res.stats.traceback_seconds, 1e-6);
  std::set<std::string> span_names;
  for (const auto& span : snap.spans) span_names.insert(span.name);
  EXPECT_TRUE(span_names.count("finder.run")) << "finder.run span missing";
}

}  // namespace
}  // namespace repro::obs
