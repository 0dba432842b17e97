// Figure 8 reproduction: speed improvements for computing up to 100 top
// alignments as a function of processor count (paper §5.2).
//
// Paper (titin, m = 34350, DAS-2: 64 dual-P-III nodes, Myrinet, 4-lane SSE
// workers): near-perfect scaling for the first top alignment — 831x at 128
// CPUs vs the sequential non-SSE algorithm (123x vs single-CPU SSE, 96.1 %
// efficiency) — degrading to ~500x at 100 top alignments because only
// 3-10 % of rectangles need realignment between acceptances.
//
// Substitution (DESIGN.md): this host is one CPU, so the cluster is the
// VirtualCluster discrete-event simulator replaying the real distributed
// scheduler; compute cost is calibrated with this host's real kernels, and
// all scheduling decisions are driven by real alignment scores (memoised
// AlignmentOracle). Speed improvements are reported exactly like the paper:
// against the sequential new algorithm on the conventional instruction set.
#include <iostream>
#include <set>

#include "bench_common.hpp"
#include "cluster/virtual_cluster.hpp"
#include "util/args.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace repro;
  util::Args args(
      argc, argv,
      {{"m", "sequence length (paper: 34350)"},
       {"paper-scale", "use the paper's sequence length (very slow)"},
       {"tops", "comma-separated top-alignment counts"},
       {"procs", "comma-separated processor counts"},
       {"lanes", "SIMD lanes per worker CPU (paper: 4, P-III SSE)"},
       {"dual-cpu", "add the Sec. 5.2 dual-CPU memory-bus ablation"},
       {"json", bench::kJsonFlagHelp}});
  if (args.help_requested()) return 0;

  int m = static_cast<int>(args.get_int("m", 2500));
  if (args.get_flag("paper-scale")) m = 34350;
  const auto tops_list = args.get_int_list("tops", {1, 2, 5, 10, 25, 100});
  const auto procs = args.get_int_list("procs", {1, 2, 4, 8, 16, 32, 64, 96, 128});
  const int lanes = static_cast<int>(args.get_int("lanes", 4));

  const align::EngineSpec* worker = bench::i16_engine(lanes);
  if (worker == nullptr) {
    std::set<int> lane_counts;
    for (const align::EngineSpec& spec : align::engine_table())
      if (spec.precision == align::Precision::kI16 && spec.available())
        lane_counts.insert(spec.lanes);
    std::cerr << "no i16 engine on this host has " << lanes
              << " lanes; available lane counts:";
    for (const int l : lane_counts) std::cerr << ' ' << l;
    std::cerr << '\n';
    return 1;
  }

  bench::header("Figure 8 — speed improvement vs processors (titin-like, m=" +
                std::to_string(m) + ", " + std::to_string(lanes) +
                "-lane workers)");

  const auto g = seq::synthetic_titin(m, 2003);
  const seq::Scoring scoring = seq::Scoring::protein_default();

  // Calibrate the cost model with this host's real kernel rates.
  const auto scalar_probe = align::make_engine(align::EngineKind::kScalar);
  const auto worker_probe = align::make_engine(worker->kind);
  const int calib_m = std::min(m, 4000);
  const double scalar_rate =
      bench::measure_cells_per_sec(*scalar_probe, calib_m, scoring);
  const double simd_rate =
      bench::measure_cells_per_sec(*worker_probe, calib_m, scoring);
  std::cout << "calibration on this host: scalar "
            << scalar_rate / 1e6 << " Mcells/s, " << worker_probe->name()
            << " " << simd_rate / 1e6
            << " Mcells/s (lane-cells; paper: >1000 on a P4)\n";

  // One oracle per experiment sweep; its cache is shared by every processor
  // count (the acceptance sequence is deterministic).
  const auto oracle_engine = align::make_engine(worker->kind);
  cluster::AlignmentOracle oracle(g.sequence, scoring, *oracle_engine);

  auto model_for = [&](int p, double rate) {
    cluster::ClusterModel model;
    model.processors = p;
    model.cpus_per_node = 2;
    model.worker_cells_per_sec = rate;
    model.traceback_cells_per_sec = scalar_rate;
    return model;
  };

  std::vector<std::string> headers{"procs"};
  for (const auto t : tops_list) headers.push_back(std::to_string(t) + " top" + (t > 1 ? "s" : ""));
  util::Table table(std::move(headers));
  table.set_precision(1);

  // The paper's y-axis baseline: the sequential new algorithm on the
  // conventional (scalar) instruction set.
  std::vector<double> scalar_seq(tops_list.size());
  for (std::size_t ti = 0; ti < tops_list.size(); ++ti) {
    core::FinderOptions opt;
    opt.num_top_alignments = static_cast<int>(tops_list[ti]);
    scalar_seq[ti] =
        cluster::simulate_cluster(oracle, model_for(1, scalar_rate), opt)
            .makespan_sec;
  }

  double t128_one_top = 0.0;
  double simd1_one_top = 0.0;
  for (const auto p : procs) {
    std::vector<util::Table::Cell> row{static_cast<long long>(p)};
    for (std::size_t ti = 0; ti < tops_list.size(); ++ti) {
      core::FinderOptions opt;
      opt.num_top_alignments = static_cast<int>(tops_list[ti]);
      const auto sim = cluster::simulate_cluster(
          oracle, model_for(static_cast<int>(p), simd_rate), opt);
      row.emplace_back(scalar_seq[ti] / sim.makespan_sec);
      if (ti == 0 && p == 1) simd1_one_top = sim.makespan_sec;
      if (ti == 0 && p == procs.back()) t128_one_top = sim.makespan_sec;
    }
    table.add_row(std::move(row));
  }
  table.print(std::cout);

  obs::MetricsReport report("bench_fig8");
  report.param("m", m);
  report.param("lanes", lanes);
  report.param("max_procs", static_cast<std::int64_t>(procs.back()));
  report.metric("scalar_calib_cells_per_sec", scalar_rate);
  report.metric("simd_calib_cells_per_sec", simd_rate);
  if (simd1_one_top > 0 && t128_one_top > 0) {
    const double vs_simd = simd1_one_top / t128_one_top;
    const auto pmax = static_cast<double>(procs.back());
    std::cout << "\nat " << procs.back()
              << " processors, 1 top alignment:\n  improvement vs sequential "
                 "scalar: "
              << scalar_seq[0] / t128_one_top << " (paper: 831 at 128)\n"
              << "  speedup vs single-CPU SIMD worker: " << vs_simd
              << " (paper: 123), efficiency " << 100.0 * vs_simd / pmax
              << " % (paper: 96.1 %)\n";
    report.metric("improvement_vs_scalar_1top", scalar_seq[0] / t128_one_top);
    report.metric("speedup_vs_simd1_1top", vs_simd);
    report.metric("efficiency_pct_1top", 100.0 * vs_simd / pmax);
  }
  std::cout << "speculation: " << oracle.computed_alignments()
            << " group alignments computed across the whole sweep "
               "(cache-shared; paper: parallel runs computed up to 8.4 % "
               "more alignments than sequential)\n";

  if (args.get_flag("dual-cpu")) {
    bench::header("Sec. 5.2 dual-CPU ablation (memory-bus contention model)");
    core::FinderOptions opt;
    opt.num_top_alignments = 5;
    auto aware = model_for(9, simd_rate);
    auto unaware = model_for(9, simd_rate);
    unaware.second_cpu_efficiency = 0.625;  // 25 % gain from the 2nd CPU
    const double t_aware =
        cluster::simulate_cluster(oracle, aware, opt).makespan_sec;
    const double t_unaware =
        cluster::simulate_cluster(oracle, unaware, opt).makespan_sec;
    std::cout << "cache-aware kernel: " << t_aware
              << " s; non-cache-aware model: " << t_unaware
              << " s  (paper: 100 % vs 25 % second-CPU gain)\n";
  }
  report.counter("oracle_group_alignments", oracle.computed_alignments());
  bench::maybe_write_json(args, report);
  return 0;
}
