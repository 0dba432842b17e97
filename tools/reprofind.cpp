// reprofind — the command-line front end of reprolib (the analog of the
// original REPRO server: feed it a sequence, get repeats back).
//
//   reprofind find --fasta proteins.fa --tops 25 [--format json]
//   reprofind find --fasta reads.fa --alphabet dna --repeats
//   reprofind find --fasta proteins.fa --ranks 4 --fault-seed 7
//   reprofind generate --kind titin --length 3000 --out titin.fa
//   reprofind info
//
// `find` computes nonoverlapping top alignments (optionally in parallel) and
// delineates repeat regions; output formats: text (default), json, csv.
#include <fstream>
#include <iomanip>
#include <iostream>

#include "align/engine.hpp"
#include "align/traceback.hpp"
#include "cluster/master_worker.hpp"
#include "core/consensus.hpp"
#include "core/delineate.hpp"
#include "core/top_alignment_finder.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "parallel/parallel_finder.hpp"
#include "seq/fasta.hpp"
#include "seq/generator.hpp"
#include "util/args.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

namespace {

using namespace repro;

/// The engine a run uses: the --engine row, or for "best" the widest row of
/// the requested --precision (auto = adaptive).
align::EngineKind engine_kind_for(const std::string& engine,
                                  const std::string& precision) {
  if (engine != "best") return align::engine_spec(engine).kind;
  const std::pair<const char*, align::Precision> precisions[] = {
      {"auto", align::Precision::kAdaptive},
      {"i8", align::Precision::kI8},
      {"i16", align::Precision::kI16},
      {"i32", align::Precision::kI32}};
  for (const auto& [name, p] : precisions)
    if (precision == name) return align::best_engine(p).kind;
  REPRO_CHECK_MSG(false, "unknown precision '" << precision
                                               << "' (auto|i8|i16|i32)");
  return align::EngineKind::kSimdAuto;
}

seq::Scoring scoring_for(const seq::Alphabet& alphabet,
                         const std::string& matrix, int open, int extend) {
  seq::GapPenalty gap{open, extend};
  if (&alphabet == &seq::Alphabet::dna()) {
    REPRO_CHECK_MSG(matrix.empty() || matrix == "dna",
                    "DNA sequences use the built-in dna matrix");
    return {seq::ScoreMatrix::dna(2, -3), gap};
  }
  if (matrix == "blosum50") return {seq::ScoreMatrix::blosum50(), gap};
  if (matrix == "pam250") return {seq::ScoreMatrix::pam250(), gap};
  REPRO_CHECK_MSG(matrix.empty() || matrix == "blosum62",
                  "unknown matrix '" << matrix
                                     << "' (blosum62|blosum50|pam250)");
  return {seq::ScoreMatrix::blosum62(), gap};
}

void emit_text(const seq::Sequence& s, const core::FinderResult& res,
               const std::vector<core::RepeatRegion>& regions, bool show_alignments) {
  std::cout << ">" << s.name() << " (" << s.length() << " residues): "
            << res.tops.size() << " top alignments in " << res.stats.seconds
            << " s\n";
  util::Table table({"top", "r", "score", "prefix", "suffix", "pairs"});
  for (std::size_t t = 0; t < res.tops.size(); ++t) {
    const auto& top = res.tops[t];
    table.add_row({static_cast<long long>(t + 1), static_cast<long long>(top.r),
                   static_cast<long long>(top.score),
                   std::to_string(top.prefix_begin()) + ".." + std::to_string(top.prefix_end()),
                   std::to_string(top.suffix_begin()) + ".." + std::to_string(top.suffix_end()),
                   static_cast<long long>(top.pairs.size())});
  }
  if (table.rows() > 0) table.print(std::cout);
  if (show_alignments) {
    for (const auto& top : res.tops)
      std::cout << core::summary(top) << '\n' << core::render(top, s);
  }
  for (const auto& region : regions) {
    std::cout << "repeat region [" << region.begin << ", " << region.end
              << ") period " << region.period << " copies ~" << region.copies
              << " support " << region.support << '\n';
    const core::RepeatProfile profile = core::build_profile(s, region);
    if (profile.period > 0 && profile.period <= 120)
      std::cout << "  consensus @" << profile.begin << ": "
                << profile.consensus << "  (mean identity "
                << static_cast<int>(profile.mean_identity * 100 + 0.5)
                << " %)\n";
  }
}

void emit_json(const seq::Sequence& s, const core::FinderResult& res,
               const std::vector<core::RepeatRegion>& regions,
               util::JsonWriter& json) {
  json.begin_object();
  json.kv("name", s.name());
  json.kv("length", s.length());
  json.key("stats");
  json.begin_object();
  json.kv("seconds", res.stats.seconds);
  json.kv("cells", res.stats.cells);
  json.kv("first_alignments", res.stats.first_alignments);
  json.kv("realignments", res.stats.realignments);
  json.end_object();
  json.key("top_alignments");
  json.begin_array();
  for (const auto& top : res.tops) {
    json.begin_object();
    json.kv("r", top.r);
    json.kv("score", static_cast<std::int64_t>(top.score));
    json.kv("prefix_begin", top.prefix_begin());
    json.kv("prefix_end", top.prefix_end());
    json.kv("suffix_begin", top.suffix_begin());
    json.kv("suffix_end", top.suffix_end());
    json.kv("pairs", static_cast<std::int64_t>(top.pairs.size()));
    json.end_object();
  }
  json.end_array();
  json.key("repeat_regions");
  json.begin_array();
  for (const auto& region : regions) {
    json.begin_object();
    json.kv("begin", region.begin);
    json.kv("end", region.end);
    json.kv("period", region.period);
    json.kv("copies", region.copies);
    json.kv("support", region.support);
    const core::RepeatProfile profile = core::build_profile(s, region);
    if (profile.period > 0) {
      json.kv("consensus", profile.consensus);
      json.kv("phase_begin", profile.begin);
      json.kv("mean_identity", profile.mean_identity);
    }
    json.end_object();
  }
  json.end_array();
  json.end_object();
}

int cmd_find(int argc, char** argv) {
  util::Args args(argc, argv,
                  {{"fasta", "input FASTA file (required)"},
                   {"alphabet", "protein (default) | dna"},
                   {"matrix", "blosum62 (default) | blosum50 | pam250"},
                   {"gap-open", "gap open penalty (default 10)"},
                   {"gap-extend", "gap extension penalty (default 1)"},
                   {"tops", "top alignments per sequence (default 20)"},
                   {"min-score", "stop below this score (default 1)"},
                   {"engine",
                    "an engine `reprofind info` lists, or auto | best "
                    "(default; the widest adaptive engine)"},
                   {"precision",
                    "lane element width for the best engine: auto (default; "
                    "u8 with lossless i16 escalation) | i8 | i16 | i32 — "
                    "excludes --engine"},
                   {"threads",
                    "shared-memory workers (default 1 = sequential); "
                    "--low-memory and --linear-traceback work at any "
                    "thread count and rank count"},
                   {"ranks",
                    "simulated cluster ranks incl. master (default 1 = no "
                    "cluster; excludes --threads); takes --low-memory and "
                    "--linear-traceback like --threads"},
                   {"row-storage",
                    "cluster bottom-row placement: replica (default) | "
                    "partitioned; no effect under --low-memory, where no "
                    "rank keeps rows"},
                   {"fault-seed",
                    "inject a seeded fault schedule into the cluster run "
                    "(drops/delays/dups/crashes; recovery keeps output "
                    "identical)"},
                   {"fault-plan",
                    "explicit fault schedule, e.g. "
                    "'drop:from=1,to=0,op=3;crash:rank=2,op=40'"},
                   {"low-memory", "recompute bottom rows instead of archiving"},
                   {"checkpoint-mem",
                    "realignment checkpoint cache budget in MiB (default 256; "
                    "0 disables incremental realignment)"},
                   {"linear-traceback", "O(rows+cols)-memory traceback"},
                   {"repeats", "also delineate repeat regions"},
                   {"alignments", "print the gapped alignments (text format)"},
                   {"format", "text (default) | json | csv"},
                   {"metrics-json",
                    "write a repro-metrics-v1 perf record (run counters + "
                    "the obs registry) to this path"}});
  if (args.help_requested()) return 0;
  REPRO_CHECK_MSG(args.has("fasta"), "--fasta is required (see --help)");
  const std::string engine_name = args.get("engine", "best");
  REPRO_CHECK_MSG(engine_name == "best" || !args.has("precision"),
                  "--precision selects among the best engines of that width; "
                  "it cannot be combined with an explicit --engine");
  // Every run resolves, before any input is read, to one concrete kind: an
  // explicit --engine, the widest engine of the requested --precision, or
  // the adaptive default ("best" = auto: u8 lanes with transparent,
  // lossless i16 escalation).
  const align::EngineKind kind =
      engine_kind_for(engine_name, args.get("precision", "auto"));

  const bool dna = args.get("alphabet", "protein") == "dna";
  const auto& alphabet = dna ? seq::Alphabet::dna() : seq::Alphabet::protein();
  const auto records = seq::read_fasta_file(args.get("fasta", ""), alphabet);
  REPRO_CHECK_MSG(!records.empty(), "no FASTA records found");

  const seq::Scoring scoring =
      scoring_for(alphabet, args.get("matrix", ""),
                  static_cast<int>(args.get_int("gap-open", dna ? 5 : 10)),
                  static_cast<int>(args.get_int("gap-extend", dna ? 2 : 1)));

  core::FinderOptions opt;
  opt.num_top_alignments = static_cast<int>(args.get_int("tops", 20));
  opt.min_score = static_cast<align::Score>(args.get_int("min-score", 1));
  if (args.get_flag("low-memory")) opt.memory = core::MemoryMode::kRecomputeRows;
  const auto ckpt_mib = args.get_int("checkpoint-mem", 256);
  REPRO_CHECK_MSG(ckpt_mib >= 0, "--checkpoint-mem must be >= 0 (MiB)");
  opt.checkpoint_mem = static_cast<std::size_t>(ckpt_mib) << 20;
  if (args.get_flag("linear-traceback"))
    opt.traceback = core::TracebackMode::kLinearSpace;
  const int threads = static_cast<int>(args.get_int("threads", 1));
  const int ranks = static_cast<int>(args.get_int("ranks", 1));
  REPRO_CHECK_MSG(ranks >= 1, "--ranks must be >= 1");
  REPRO_CHECK_MSG(threads == 1 || ranks == 1,
                  "--threads and --ranks are mutually exclusive");
  const std::string row_storage_name = args.get("row-storage", "replica");
  REPRO_CHECK_MSG(
      row_storage_name == "replica" || row_storage_name == "partitioned",
      "--row-storage must be replica or partitioned");
  REPRO_CHECK_MSG(!(args.has("fault-seed") && args.has("fault-plan")),
                  "--fault-seed and --fault-plan are mutually exclusive");
  REPRO_CHECK_MSG(!(args.has("fault-seed") || args.has("fault-plan")) ||
                      ranks > 1,
                  "fault injection needs a cluster run (--ranks > 1)");
  cluster::ClusterOptions copt;
  copt.ranks = ranks;
  copt.row_storage = row_storage_name == "partitioned"
                         ? cluster::RowStorage::kPartitioned
                         : cluster::RowStorage::kMasterReplica;
  if (args.has("fault-seed"))
    copt.fault_plan = cluster::FaultPlan::from_seed(
        static_cast<std::uint64_t>(args.get_int("fault-seed", 0)), ranks);
  if (args.has("fault-plan"))
    copt.fault_plan = cluster::FaultPlan::parse(args.get("fault-plan", ""));
  const bool want_repeats = args.get_flag("repeats");
  const std::string format = args.get("format", "text");
  const std::string metrics_path = args.get("metrics-json", "");

  // An explicitly selected saturating precision (u8 or i16) may be unable to
  // represent this input's scores; fail upfront with the adaptive/32-bit
  // alternatives rather than deep inside a kernel. (Adaptive and i32 kinds
  // pass unconditionally; adaptive i16 escalation still detects actual
  // saturation per sweep.)
  for (const auto& record : records)
    align::check_headroom(kind, record.length(), scoring);

  core::FinderStats total_stats;
  std::uint64_t total_tops = 0;
  cluster::ClusterRunInfo cluster_total;

  util::JsonWriter json;
  if (format == "json") json.begin_array();
  if (format == "csv")
    std::cout << "sequence,top,r,score,prefix_begin,prefix_end,suffix_begin,"
                 "suffix_end,pairs\n";

  for (const auto& record : records) {
    core::FinderResult res;
    if (ranks > 1) {
      copt.finder = opt;
      const auto factory = align::engine_factory(kind);
      cluster::ClusterRunInfo info;
      res = cluster::find_top_alignments_cluster(record, scoring, copt, factory,
                                                 &info);
      cluster_total.messages += info.messages;
      cluster_total.payload_words += info.payload_words;
      cluster_total.row_replicas_served += info.row_replicas_served;
      cluster_total.row_deposits += info.row_deposits;
      cluster_total.faults_injected += info.faults_injected;
      cluster_total.retries += info.retries;
      cluster_total.reassignments += info.reassignments;
      cluster_total.heartbeat_misses += info.heartbeat_misses;
      cluster_total.stale_results += info.stale_results;
      cluster_total.row_rebuilds += info.row_rebuilds;
      cluster_total.sync_requests += info.sync_requests;
      cluster_total.workers_lost += info.workers_lost;
    } else if (threads > 1) {
      parallel::ParallelOptions popt;
      popt.threads = threads;
      popt.finder = opt;
      const auto factory = align::engine_factory(kind);
      res = parallel::find_top_alignments_parallel(record, scoring, popt, factory);
    } else {
      const auto engine = align::make_engine(kind);
      res = core::find_top_alignments(record, scoring, opt, *engine);
    }
    total_stats.first_alignments += res.stats.first_alignments;
    total_stats.realignments += res.stats.realignments;
    total_stats.speculative += res.stats.speculative;
    total_stats.tracebacks += res.stats.tracebacks;
    total_stats.queue_pops += res.stats.queue_pops;
    total_stats.cells += res.stats.cells;
    total_stats.ckpt_hits += res.stats.ckpt_hits;
    total_stats.ckpt_misses += res.stats.ckpt_misses;
    total_stats.ckpt_evictions += res.stats.ckpt_evictions;
    total_stats.rows_skipped += res.stats.rows_skipped;
    total_stats.rows_swept += res.stats.rows_swept;
    total_stats.skipped_realignments += res.stats.skipped_realignments;
    total_stats.i8_sweeps += res.stats.i8_sweeps;
    total_stats.i16_sweeps += res.stats.i16_sweeps;
    total_stats.precision_escalations += res.stats.precision_escalations;
    total_stats.profile_hits += res.stats.profile_hits;
    total_stats.realign_seconds += res.stats.realign_seconds;
    total_stats.seconds += res.stats.seconds;
    total_stats.idle_seconds += res.stats.idle_seconds;
    total_tops += res.tops.size();

    std::vector<core::RepeatRegion> regions;
    if (want_repeats) regions = core::delineate_repeats(record, res.tops);

    if (format == "json") {
      emit_json(record, res, regions, json);
    } else if (format == "csv") {
      for (std::size_t t = 0; t < res.tops.size(); ++t) {
        const auto& top = res.tops[t];
        std::cout << '"' << record.name() << "\"," << t + 1 << ',' << top.r
                  << ',' << top.score << ',' << top.prefix_begin() << ','
                  << top.prefix_end() << ',' << top.suffix_begin() << ','
                  << top.suffix_end() << ',' << top.pairs.size() << '\n';
      }
    } else {
      emit_text(record, res, regions, args.get_flag("alignments"));
    }
  }
  if (format == "json") {
    json.end_array();
    std::cout << json.str() << '\n';
  }

  if (!metrics_path.empty()) {
    obs::MetricsReport report("reprofind.find");
    report.param("fasta", args.get("fasta", ""));
    report.param("engine", engine_name);
    report.param("precision", args.get("precision", "auto"));
    report.param("threads", threads);
    if (ranks > 1) {
      report.param("ranks", ranks);
      report.param("row_storage", row_storage_name);
      if (!copt.fault_plan.empty())
        report.param("fault_plan", copt.fault_plan.to_string());
      report.counter("cluster_messages", cluster_total.messages);
      report.counter("cluster_payload_words", cluster_total.payload_words);
      report.counter("cluster_row_replicas_served",
                     cluster_total.row_replicas_served);
      report.counter("cluster_row_deposits", cluster_total.row_deposits);
      report.counter("cluster_faults_injected", cluster_total.faults_injected);
      report.counter("cluster_retries", cluster_total.retries);
      report.counter("cluster_reassignments", cluster_total.reassignments);
      report.counter("cluster_heartbeat_misses",
                     cluster_total.heartbeat_misses);
      report.counter("cluster_stale_results", cluster_total.stale_results);
      report.counter("cluster_row_rebuilds", cluster_total.row_rebuilds);
      report.counter("cluster_sync_requests", cluster_total.sync_requests);
      report.counter("cluster_workers_lost", cluster_total.workers_lost);
    }
    report.param("tops_requested", opt.num_top_alignments);
    report.param("sequences", static_cast<std::int64_t>(records.size()));
    report.metric("seconds", total_stats.seconds);
    if (total_stats.seconds > 0.0)
      report.metric("cells_per_sec", static_cast<double>(total_stats.cells) /
                                         total_stats.seconds);
    report.counter("cells", total_stats.cells);
    report.counter("first_alignments", total_stats.first_alignments);
    report.counter("realignments", total_stats.realignments);
    report.counter("speculative", total_stats.speculative);
    report.counter("tracebacks", total_stats.tracebacks);
    report.counter("queue_pops", total_stats.queue_pops);
    report.counter("tops_found", total_tops);
    report.counter("ckpt_hits", total_stats.ckpt_hits);
    report.counter("ckpt_misses", total_stats.ckpt_misses);
    report.counter("ckpt_evictions", total_stats.ckpt_evictions);
    report.counter("ckpt_rows_skipped", total_stats.rows_skipped);
    report.counter("ckpt_rows_swept", total_stats.rows_swept);
    report.counter("skipped_realignments", total_stats.skipped_realignments);
    report.counter("i8_sweeps", total_stats.i8_sweeps);
    report.counter("i16_sweeps", total_stats.i16_sweeps);
    report.counter("precision_escalations", total_stats.precision_escalations);
    report.counter("profile_hits", total_stats.profile_hits);
    report.metric("realign_seconds", total_stats.realign_seconds);
    if (total_stats.rows_swept > 0)
      report.metric("ckpt_rows_skipped_pct",
                    100.0 * static_cast<double>(total_stats.rows_skipped) /
                        static_cast<double>(total_stats.rows_swept));
    report.include_registry(obs::Registry::global());
    report.write_file(metrics_path);
  }
  return 0;
}

int cmd_generate(int argc, char** argv) {
  util::Args args(argc, argv,
                  {{"kind", "titin (default) | dna"},
                   {"length", "sequence length (default 2000)"},
                   {"unit", "repeat unit length (dna kind; default 18)"},
                   {"copies", "repeat copies (dna kind; default 10)"},
                   {"seed", "generator seed (default 2003)"},
                   {"out", "output FASTA path (default: stdout)"}});
  if (args.help_requested()) return 0;
  const int length = static_cast<int>(args.get_int("length", 2000));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 2003));
  seq::GeneratedSequence g =
      args.get("kind", "titin") == "dna"
          ? seq::synthetic_dna_tandem(length,
                                      static_cast<int>(args.get_int("unit", 18)),
                                      static_cast<int>(args.get_int("copies", 10)),
                                      seed)
          : seq::synthetic_titin(length, seed);
  const std::vector<seq::Sequence> records{std::move(g.sequence)};
  if (args.has("out")) {
    seq::write_fasta_file(args.get("out", ""), records);
    std::cout << "wrote " << records[0].name() << " (" << length << ") to "
              << args.get("out", "") << '\n';
  } else {
    seq::write_fasta(std::cout, records);
  }
  return 0;
}

int cmd_info() {
  std::cout << "reprolib engines ([x] = runs on this host; --engine takes "
               "the first column):\n";
  const char* const precision_names[] = {"u8", "i16", "i32", "u8 -> i16"};
  for (const align::EngineSpec& spec : align::engine_table())
    std::cout << "  [" << (spec.available() ? 'x' : ' ') << "] " << std::left
              << std::setw(18) << spec.name << std::setw(10)
              << align::isa_name(spec.isa) << spec.lanes << " x "
              << precision_names[static_cast<int>(spec.precision)] << '\n';
  std::cout << "default engine: " << align::make_best_engine()->name() << '\n';
  const align::TracebackFill& fill = align::default_traceback_fill();
  std::cout << "traceback fill: " << align::isa_name(fill.isa) << ", "
            << fill.lanes << " x i32\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string cmd = argc > 1 ? argv[1] : "";
  try {
    if (cmd == "find") return cmd_find(argc - 1, argv + 1);
    if (cmd == "generate") return cmd_generate(argc - 1, argv + 1);
    if (cmd == "info") return cmd_info();
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
  std::cerr << "usage: reprofind <find|generate|info> [options]\n"
               "  reprofind find --fasta seqs.fa --tops 25 --repeats\n"
               "  reprofind generate --kind titin --length 3000 --out t.fa\n"
               "  reprofind info\n";
  return cmd.empty() ? 1 : (std::cerr << "unknown command: " << cmd << '\n', 1);
}
