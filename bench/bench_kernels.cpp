// Kernel microbenchmarks (google-benchmark): sustained cell rates of every
// alignment engine, override-triangle probes, queue operations, and the
// full-matrix traceback. These are the primitives behind every table in the
// paper; bench_table*.cpp report the paper-shaped numbers.
//
// With --json <path> the binary instead runs the adaptive-precision
// ablation (u8 vs i16 cell rates per ISA, a same-tops matrix over every
// engine/precision combo, and the escalation behavior on a saturating
// workload) and writes a repro-metrics-v1 record.
#include <benchmark/benchmark.h>

#include <map>
#include <string>

#include "align/engine.hpp"
#include "align/override_triangle.hpp"
#include "align/traceback.hpp"
#include "bench_common.hpp"
#include "core/task_queue.hpp"
#include "core/top_alignment_finder.hpp"
#include "core/verify.hpp"
#include "seq/generator.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using namespace repro;

const seq::Scoring& scoring() {
  static const seq::Scoring s = seq::Scoring::protein_default();
  return s;
}

const seq::Sequence& titin(int m) {
  static std::map<int, seq::Sequence> cache;
  auto it = cache.find(m);
  if (it == cache.end())
    it = cache.emplace(m, seq::synthetic_titin(m, 2003).sequence).first;
  return it->second;
}

// u8 microbench workload: random protein under blosum62 (gap open 10) has
// negative score drift, so actual split peaks stay ~O(log m) — around 60 at
// m = 6000, far inside the biased u8 ceiling of 240 — at any benchable
// length. (Random DNA under the paper's cheap gap model open 2 / extend 1
// drifts *positive* and saturates u8 past m ~ 600, so it is unusable here;
// the static headroom bound is a worst case the adaptive engine guards
// against, explicit u8 engines only need the *actual* peaks in range.)
const seq::Sequence& random_protein(int m) {
  static std::map<int, seq::Sequence> cache;
  auto it = cache.find(m);
  if (it == cache.end())
    it = cache.emplace(m,
                       seq::random_sequence(seq::Alphabet::protein(), m, 11))
             .first;
  return it->second;
}

const seq::Scoring& dna_scoring() {
  static const seq::Scoring s = seq::Scoring::paper_example();
  return s;
}

void run_engine_bench_on(benchmark::State& state, align::EngineKind kind,
                         const seq::Sequence& s, const seq::Scoring& sc) {
  const int m = s.length();
  const auto engine = align::make_engine(kind);
  const int r0 = m / 2;
  const int count = engine->lanes();
  std::vector<std::vector<align::Score>> store(static_cast<std::size_t>(count));
  std::vector<std::span<align::Score>> outs(static_cast<std::size_t>(count));
  for (int k = 0; k < count; ++k) {
    store[static_cast<std::size_t>(k)].resize(static_cast<std::size_t>(m - (r0 + k)));
    outs[static_cast<std::size_t>(k)] = store[static_cast<std::size_t>(k)];
  }
  align::GroupJob job;
  job.seq = s.codes();
  job.scoring = &sc;
  job.r0 = r0;
  job.count = count;
  for (auto _ : state) {
    engine->align(job, outs);
    benchmark::DoNotOptimize(store[0].data());
  }
  state.counters["cells/s"] = benchmark::Counter(
      static_cast<double>(engine->cells_computed()), benchmark::Counter::kIsRate);
}

// One cell-rate bench per engine this host runs, BM_<engine name>/<m>. The
// u8 engines sweep the random-protein workload (see random_protein); the
// others sweep titin (the adaptive engines escalate transparently there).
// The O(n)-per-cell general-gap kernel has its own small bench below.
void register_engine_benches() {
  for (const align::EngineSpec& spec : align::engine_table()) {
    if (!spec.available() || spec.kind == align::EngineKind::kGeneralGap)
      continue;
    const bool u8 = spec.precision == align::Precision::kI8;
    benchmark::RegisterBenchmark(
        ("BM_" + std::string(spec.name)).c_str(),
        [kind = spec.kind, u8](benchmark::State& state) {
          const int m = static_cast<int>(state.range(0));
          run_engine_bench_on(state, kind, u8 ? random_protein(m) : titin(m),
                              scoring());
        })
        ->Arg(1000)
        ->Arg(3000);
  }
}

// Checkpoint-resume kernel cost: a sweep resumed from a saved (H, MaxY) row
// state at 50 % / 90 % of the group's depth versus the same sweep from
// scratch (depth 0). The per-sweep rate ("sweeps/s") shows the resume win;
// cells/s stays flat because resumed rows are discounted from the counter.
void run_resume_bench(benchmark::State& state, align::EngineKind kind) {
  const int m = static_cast<int>(state.range(0));
  const int pct = static_cast<int>(state.range(1));
  const auto& s = titin(m);
  const auto engine = align::make_engine(kind);
  const int r0 = m / 2;
  const int count = engine->lanes();
  std::vector<std::vector<align::Score>> store(static_cast<std::size_t>(count));
  std::vector<std::span<align::Score>> outs(static_cast<std::size_t>(count));
  for (int k = 0; k < count; ++k) {
    store[static_cast<std::size_t>(k)].resize(static_cast<std::size_t>(m - (r0 + k)));
    outs[static_cast<std::size_t>(k)] = store[static_cast<std::size_t>(k)];
  }
  align::GroupJob job;
  job.seq = s.codes();
  job.scoring = &scoring();
  job.r0 = r0;
  job.count = count;
  align::CheckpointSink sink;
  align::CheckpointView view;
  if (pct > 0) {
    const int row = std::max(1, (r0 - 1) * pct / 100);
    sink.stride = row;  // emits rows row, 2*row, ... plus r0-1
    sink.top_row = r0 - 1;
    job.sink = &sink;
    engine->align(job, outs);
    job.sink = nullptr;
    for (int t = 0; t < sink.count; ++t) {
      const align::CheckpointRow& cr = sink.rows[static_cast<std::size_t>(t)];
      if (cr.row != row) continue;
      view.row = cr.row;
      view.lanes = sink.lanes;
      view.elem_size = sink.elem_size;
      view.h = cr.h.data();
      view.max_y = cr.max_y.data();
      view.bytes = cr.h.size();
      job.resume = &view;
    }
  }
  for (auto _ : state) {
    engine->align(job, outs);
    benchmark::DoNotOptimize(store[0].data());
  }
  state.counters["sweeps/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
  state.counters["cells/s"] = benchmark::Counter(
      static_cast<double>(engine->cells_computed()), benchmark::Counter::kIsRate);
}
void BM_ScalarResume(benchmark::State& state) {
  run_resume_bench(state, align::EngineKind::kScalar);
}
void BM_Simd8GenericResume(benchmark::State& state) {
  run_resume_bench(state, align::EngineKind::kSimd8Generic);
}
BENCHMARK(BM_ScalarResume)
    ->Args({2000, 0})
    ->Args({2000, 50})
    ->Args({2000, 90});
BENCHMARK(BM_Simd8GenericResume)
    ->Args({2000, 0})
    ->Args({2000, 50})
    ->Args({2000, 90});

void BM_GeneralGapCell(benchmark::State& state) {
  // The old algorithm's O(n)/cell kernel on a small rectangle.
  const int m = static_cast<int>(state.range(0));
  const auto& s = titin(std::max(m, 200));
  const auto sub = s.subsequence(0, m);
  const auto engine = align::make_engine(align::EngineKind::kGeneralGap);
  align::GroupJob job;
  job.seq = sub.codes();
  job.scoring = &scoring();
  job.r0 = m / 2;
  job.count = 1;
  std::vector<align::Score> row(static_cast<std::size_t>(m - m / 2));
  std::span<align::Score> out(row);
  for (auto _ : state) {
    engine->align(job, std::span<const std::span<align::Score>>(&out, 1));
    benchmark::DoNotOptimize(row.data());
  }
  state.counters["cells/s"] = benchmark::Counter(
      static_cast<double>(engine->cells_computed()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GeneralGapCell)->Arg(200)->Arg(400);

void BM_OverrideContains(benchmark::State& state) {
  const int m = 4000;
  align::OverrideTriangle tri(m);
  util::Rng rng(5);
  for (int k = 0; k < 20000; ++k) {
    const int i = static_cast<int>(rng.below(m - 1));
    const int j = i + 1 + static_cast<int>(rng.below(static_cast<std::uint64_t>(m - 1 - i)));
    tri.set(i, j);
  }
  int i = 0;
  std::uint64_t acc = 0;
  for (auto _ : state) {
    const int a = i % (m - 1);
    acc += tri.contains(a, a + 1 + (i * 7) % (m - 1 - a)) ? 1 : 0;
    ++i;
  }
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_OverrideContains);

void BM_QueuePushPop(benchmark::State& state) {
  const auto groups = core::make_groups(8000, 8);
  for (auto _ : state) {
    core::GroupQueue queue;
    for (std::size_t gi = 0; gi < groups.size(); ++gi)
      queue.push(static_cast<int>(gi), groups[gi].key());
    while (auto top = queue.pop_best()) benchmark::DoNotOptimize(*top);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(groups.size()));
}
BENCHMARK(BM_QueuePushPop);

// One traceback bench per matrix fill this host runs, BM_Traceback_<isa>/<m>
// (rectangle m/2 of titin, no overrides): the fill's cell rate, like the
// kernel rows'. traceback_best itself uses the fill of the default engine's
// ISA.
void register_traceback_benches() {
  for (const align::TracebackFill& fill : align::traceback_fills()) {
    if (!fill.available()) continue;
    benchmark::RegisterBenchmark(
        ("BM_Traceback_" + std::string(align::isa_name(fill.isa))).c_str(),
        [&fill](benchmark::State& state) {
          const int m = static_cast<int>(state.range(0));
          align::GroupJob job;
          job.seq = titin(m).codes();
          job.scoring = &scoring();
          job.r0 = m / 2;
          job.count = 1;
          for (auto _ : state) {
            const auto tb = align::traceback_best(job, fill);
            benchmark::DoNotOptimize(tb.score);
          }
          state.counters["cells/s"] = benchmark::Counter(
              static_cast<double>(state.iterations()) * (m / 2) * (m - m / 2),
              benchmark::Counter::kIsRate);
        })
        ->Arg(1000)
        ->Arg(2000);
  }
}

// ---------------------------------------------------------------------------
// Adaptive-precision ablation (--json path): u8 vs i16 kernel rates per ISA,
// a same-tops matrix over every engine/precision combo, and the escalation
// demonstration on a saturating workload.

double kernel_rate(align::EngineKind kind, const seq::Sequence& s,
                   const seq::Scoring& sc) {
  const auto engine = align::make_engine(kind);
  const int m = s.length();
  const int r0 = m / 2;
  const int count = engine->lanes();
  std::vector<std::vector<align::Score>> store(static_cast<std::size_t>(count));
  std::vector<std::span<align::Score>> outs(static_cast<std::size_t>(count));
  for (int k = 0; k < count; ++k) {
    store[static_cast<std::size_t>(k)].resize(
        static_cast<std::size_t>(m - (r0 + k)));
    outs[static_cast<std::size_t>(k)] = store[static_cast<std::size_t>(k)];
  }
  align::GroupJob job;
  job.seq = s.codes();
  job.scoring = &sc;
  job.r0 = r0;
  job.count = count;
  engine->align(job, outs);  // warm-up: builds the query profile
  engine->reset_counters();
  constexpr int kReps = 5;
  const double secs = bench::time_best_of(kReps, [&] { engine->align(job, outs); });
  const double cells = static_cast<double>(engine->cells_computed()) / kReps;
  return cells / std::max(secs, 1e-12);
}

int run_precision_ablation(int argc, char** argv) {
  util::Args args(argc, argv,
                  {{"m", "kernel-rate sequence length (random DNA)"},
                   {"tops", "top alignments for the same-tops matrix"},
                   {"json", bench::kJsonFlagHelp}});
  if (args.help_requested()) return 0;
  const int m = static_cast<int>(args.get_int("m", 1500));
  const int tops = static_cast<int>(args.get_int("tops", 6));

  obs::MetricsReport report("bench_kernels.precision");
  report.param("m", m);
  report.param("tops", tops);

  // --- u8 vs i16 cell rates, one row per available ISA pair. The
  // random-protein workload stays inside the u8 headroom at any length
  // (see random_protein).
  bench::header("u8 vs i16 kernel rates (random protein, m=" +
                std::to_string(m) + ")");
  const auto& rate_seq = random_protein(m);
  const auto& rate_sc = scoring();
  // Per ISA, its widest u8 engine against its widest i16 engine.
  using Widest = std::pair<const align::EngineSpec*, const align::EngineSpec*>;
  std::map<align::Isa, Widest> pairs;  // isa -> (u8, i16)
  std::uint64_t simd_rows = 0;  // compiled-in SIMD u8/i16 rows, any CPU
  for (const align::EngineSpec& spec : align::engine_table()) {
    if (spec.precision != align::Precision::kI8 &&
        spec.precision != align::Precision::kI16)
      continue;
    if (spec.isa != align::Isa::kPortable) ++simd_rows;
    if (!spec.available()) continue;
    const align::EngineSpec*& slot = spec.precision == align::Precision::kI8
                                         ? pairs[spec.isa].first
                                         : pairs[spec.isa].second;
    if (slot == nullptr || spec.lanes > slot->lanes) slot = &spec;
  }
  util::Table rate_table({"isa", "u8 cells/s", "i16 cells/s", "speedup"});
  rate_table.set_precision(2);
  double best_speedup = 0.0;
  std::uint64_t simd_pairs = 0;
  for (const auto& [isa_id, widest] : pairs) {
    const auto [u8, i16] = widest;
    if (u8 == nullptr || i16 == nullptr) continue;
    const std::string isa = align::isa_name(isa_id);
    const double r8 = kernel_rate(u8->kind, rate_seq, rate_sc);
    const double r16 = kernel_rate(i16->kind, rate_seq, rate_sc);
    const double speedup = r8 / std::max(r16, 1e-12);
    rate_table.add_row({isa, r8, r16, speedup});
    report.metric("i8_cells_per_sec_" + isa, r8);
    report.metric("i16_cells_per_sec_" + isa, r16);
    report.metric("i8_vs_i16_speedup_" + isa, speedup);
    // The SIMD pairs double the lane count, so their speedup is the claim;
    // the generic pair keeps 8 lanes either way and is reported for context.
    if (isa_id != align::Isa::kPortable) {
      best_speedup = std::max(best_speedup, speedup);
      ++simd_pairs;
    }
  }
  rate_table.print(std::cout);
  // A build without SIMD rows (the portable configuration) measures no
  // SIMD pair, so its best speedup is 0 by construction, not a regression.
  report.counter("simd_rate_rows", simd_rows);
  report.counter("simd_rate_pairs", simd_pairs);
  report.metric("i8_vs_i16_speedup_best", best_speedup);

  // --- Same-tops matrix: every constructible engine/precision combo versus
  // the scalar oracle, on an in-range DNA workload (u8 engines included)
  // and a saturating protein workload (adaptive engines escalate).
  bench::header("same-tops matrix vs scalar");
  core::FinderOptions opt;
  opt.num_top_alignments = tops;
  std::int64_t combos = 0;
  bool all_match = true;
  // Every engine this host runs whose precision fits the workload.
  const auto check_matrix = [&](const seq::Sequence& s, const seq::Scoring& sc,
                                const std::string& label) {
    const auto scalar = align::make_engine(align::EngineKind::kScalar);
    const auto reference = find_top_alignments(s, sc, opt, *scalar);
    for (const align::EngineSpec& spec : align::engine_table()) {
      if (spec.kind == align::EngineKind::kScalar || !spec.available() ||
          !align::precision_fits(spec.precision, s.length(), sc))
        continue;
      const auto engine = align::make_engine(spec.kind);
      const auto res = find_top_alignments(s, sc, opt, *engine);
      std::string diff;
      const bool ok = core::same_tops(reference.tops, res.tops, &diff);
      ++combos;
      all_match = all_match && ok;
      std::cout << "  " << label << " / " << engine->name()
                << (ok ? ": tops identical\n" : ": MISMATCH " + diff + "\n");
    }
  };
  check_matrix(seq::synthetic_dna_tandem(200, 9, 5, 21).sequence,
               dna_scoring(), "dna-in-range");

  seq::RepeatSpec spec;
  spec.unit_length = 24;
  spec.copies = 8;
  spec.conservation = 0.95;
  spec.indel_rate = 0.0;
  spec.tandem = true;
  const auto saturating =
      seq::make_repeat_sequence(seq::Alphabet::protein(), 240, spec, 22);
  check_matrix(saturating.sequence, scoring(), "protein-saturating");
  report.metric("same_tops", all_match ? 1.0 : 0.0);
  report.counter("combos_checked", static_cast<std::uint64_t>(combos));

  // --- Escalation demonstration: the adaptive engine on the saturating
  // workload must escalate (and, per the matrix above, still match scalar).
  const auto auto_engine = align::make_engine(align::EngineKind::kSimdAuto);
  const auto sat_res =
      find_top_alignments(saturating.sequence, scoring(), opt, *auto_engine);
  const auto prec = auto_engine->precision_stats();
  const double esc_rate =
      prec.i8_sweeps > 0 ? 100.0 * static_cast<double>(prec.escalations) /
                               static_cast<double>(prec.i8_sweeps)
                         : 0.0;
  bench::header("adaptive escalation (saturating protein repeats)");
  std::cout << "  engine " << auto_engine->name() << ": " << prec.i8_sweeps
            << " u8 sweeps, " << prec.escalations << " escalations ("
            << esc_rate << " %), " << prec.i16_sweeps << " i16 sweeps, "
            << sat_res.tops.size() << " tops\n";
  report.counter("i8_sweeps", prec.i8_sweeps);
  report.counter("i16_sweeps", prec.i16_sweeps);
  report.counter("escalations", prec.escalations);
  report.counter("profile_hits", prec.profile_hits);
  report.metric("escalation_rate_pct", esc_rate);

  bench::maybe_write_json(args, report);
  return all_match && prec.escalations > 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // --json selects the precision-ablation path; everything else is
  // google-benchmark's own CLI, exactly as BENCHMARK_MAIN() would run it.
  for (int i = 1; i < argc; ++i) {
    const std::string arg(argv[i]);
    if (arg == "--json" || arg.rfind("--json=", 0) == 0)
      return run_precision_ablation(argc, argv);
  }
  register_engine_benches();
  register_traceback_benches();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
