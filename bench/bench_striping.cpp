// Cache-awareness ablation (paper §4.1 / §5.1): vertical striping keeps the
// row state in L1.
//
// Paper claims: for the SSE kernel, striping is up to 6.5x and on average
// ~4x faster than the same kernel without striping; for the conventional
// kernel the gain is a marginal 16 %. (2003-era cache hierarchies; modern
// hardware prefetchers shrink the gap — the shape to check is
// striped <= unstriped, with the gap growing with matrix width.)
#include <iostream>

#include "bench_common.hpp"
#include "util/args.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

double run_group(repro::align::Engine& engine, const repro::seq::Sequence& s,
                 const repro::seq::Scoring& scoring, int r0, int reps) {
  using namespace repro;
  const int m = s.length();
  const int count = std::min(engine.lanes(), m - 1 - r0 + 1);
  std::vector<std::vector<align::Score>> store(static_cast<std::size_t>(count));
  std::vector<std::span<align::Score>> outs(static_cast<std::size_t>(count));
  for (int k = 0; k < count; ++k) {
    store[static_cast<std::size_t>(k)].resize(static_cast<std::size_t>(m - (r0 + k)));
    outs[static_cast<std::size_t>(k)] = store[static_cast<std::size_t>(k)];
  }
  align::GroupJob job;
  job.seq = s.codes();
  job.scoring = &scoring;
  job.r0 = r0;
  job.count = count;
  return bench::time_best_of(reps, [&] { engine.align(job, outs); });
}

}  // namespace

int main(int argc, char** argv) {
  using namespace repro;
  util::Args args(argc, argv,
                  {{"m", "sequence length"},
                   {"paper-scale", "use the paper's sequence length (34350)"},
                   {"reps", "timing repetitions"},
                   {"json", bench::kJsonFlagHelp}});
  if (args.help_requested()) return 0;
  int m = static_cast<int>(args.get_int("m", 8000));
  if (args.get_flag("paper-scale")) m = 34350;
  const int reps = static_cast<int>(args.get_int("reps", 3));

  bench::header("Cache-aware striping ablation (m=" + std::to_string(m) + ")");

  const auto g = seq::synthetic_titin(m, 2003);
  const seq::Scoring scoring = seq::Scoring::protein_default();

  // Scalar striping, then every intrinsic i16 kernel this host runs; each
  // kernel is timed with its default stripes and with striping disabled.
  std::vector<align::EngineKind> kinds{align::EngineKind::kScalarStriped};
  for (const align::EngineSpec& spec : align::engine_table())
    if (spec.precision == align::Precision::kI16 &&
        spec.isa != align::Isa::kPortable && spec.available())
      kinds.push_back(spec.kind);

  // Matrix shapes: wide-and-short rectangles stress the row state the most.
  const std::vector<int> splits{m / 8, m / 4, m / 2, 3 * m / 4};

  util::Table table({"kernel", "split r", "striped (s)", "no stripes (s)",
                     "speedup from striping"});
  table.set_precision(3);
  std::vector<double> ratios_simd, ratios_scalar;
  for (const auto kind : kinds) {
    const bool scalar = kind == align::EngineKind::kScalarStriped;
    for (const int r0 : splits) {
      const auto striped = align::make_engine(kind, /*stripe=*/0);
      const auto plain = align::make_engine(kind, /*stripe=*/-1);
      const double t_striped = run_group(*striped, g.sequence, scoring, r0, reps);
      const double t_plain = run_group(*plain, g.sequence, scoring, r0, reps);
      const double ratio = t_plain / t_striped;
      (scalar ? ratios_scalar : ratios_simd).push_back(ratio);
      table.add_row({scalar ? std::string("scalar") : striped->name(),
                     static_cast<long long>(r0), t_striped, t_plain, ratio});
    }
  }
  table.print(std::cout);

  obs::MetricsReport report("bench_striping");
  report.param("m", m);
  report.param("reps", reps);
  if (!ratios_simd.empty()) {
    const auto s = util::summarize(ratios_simd);
    std::cout << "\nSIMD striping speedup: min " << s.min << ", avg " << s.mean
              << ", max " << s.max << "   (paper: avg ~4x, up to 6.5x on a "
                 "Pentium III)\n";
    report.metric("simd_striping_speedup_avg", s.mean);
    report.metric("simd_striping_speedup_max", s.max);
  }
  if (!ratios_scalar.empty()) {
    const auto s = util::summarize(ratios_scalar);
    std::cout << "scalar striping speedup: avg " << s.mean
              << "   (paper: ~1.16x)\n";
    report.metric("scalar_striping_speedup_avg", s.mean);
  }
  std::cout << "note: 2003-era L1/L2 penalties were far larger; modern "
               "prefetchers shrink these gaps (see EXPERIMENTS.md).\n";
  bench::maybe_write_json(args, report);
  return 0;
}
