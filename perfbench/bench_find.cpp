// End-to-end benchmark of the default `find` path, driven by perfbench/run.py.
//
// The binary goes through the same public calls `reprofind find` makes:
// seq::read_fasta_file, align::engine_factory(EngineKind::kSimdAuto), and one
// of core::find_top_alignments, parallel::find_top_alignments_parallel or
// cluster::find_top_alignments_cluster with 25 tops, the default protein
// scoring (BLOSUM62, gaps 10/1) and archive memory mode.
// Subcommands:
//
//   gen --workload W --seed S --out in.fa
//       Writes the workload's input. Only this step sees the seed.
//   ref --workload W --fasta in.fa --out in.ref
//       Computes the reference tops in a separate process, so that neither
//       its time nor its memory reaches the measured process. Sequential
//       workloads are checked against the sequential finder on an i32-wide
//       engine; titin_smp and titin_cluster against the sequential `auto`
//       run, whose lane-cells and realignments are also the base of the
//       parallel and cluster extra-work fractions.
//   run --workload W --fasta in.fa --ref in.ref --seconds N --trace 0|1
//       [--trace-out trace.json]
//       Makes one untimed warm-up call, then calls the finder in rounds over
//       the inputs until N seconds have passed. Before every call it sets up
//       again (setup_s is the median set-up) and restarts the peak resident
//       set record, so that each call gets its own peak. find_s is the median
//       call time and peak_rss_mb the smallest per-call peak of each input,
//       averaged over the inputs: later calls start from leftovers the trim
//       cannot return, and the cluster's message backlog follows host speed,
//       so its per-call peak creeps up through a run (40 -> 57 MiB on
//       titin_cluster). Every call is checked with core::validate_tops and
//       core::same_tops against the reference.
//       With --trace 1, every other round runs through the TracedEngine
//       decorator and feeds the per-layer metrics and a Chrome trace-event
//       file; the plain rounds in between give the tracing overhead.
//
// All layer measurements are taken from outside the library: the decorator
// times each kernel sweep, the replayed core::accept_alignment calls time the
// traceback, and every count comes from the returned FinderStats and
// ClusterRunInfo, never from the process-global obs::Registry (its gauges
// keep the last run's value, and the decorator would feed its cell counters
// twice). The last line of stdout is one JSON object that run.py reads.
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <deque>
#include <exception>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "align/engine.hpp"
#include "align/override_triangle.hpp"
#include "cluster/master_worker.hpp"
#include "core/top_alignment_finder.hpp"
#include "core/verify.hpp"
#include "parallel/parallel_finder.hpp"
#include "seq/fasta.hpp"
#include "seq/generator.hpp"
#include "util/args.hpp"
#include "util/json.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace {

using namespace repro;

constexpr int kTops = 25;
constexpr int kTitinLength = 3000;
constexpr int kConservedLength = 2000;
constexpr int kClusterRanks = 4;
constexpr int kMaxThreads = 4;
/// Inputs per run. Work per call varies from input to input (titin
/// lane-cells: 6.0-7.0 G over seeds 1-8), so each run cycles through more
/// than one; every input costs one reference run, outside the timing.
constexpr int kInputsPerRun = 2;
constexpr int kSetupReps = 5;  // before every call
constexpr int kMinRounds = 2;

enum class Finder { kSequential, kShared, kCluster };
enum class Input { kTitin, kConserved };

struct Workload {
  const char* name;
  Finder finder;
  Input input;
};

// Why each workload exists is recorded in BENCHMARK.json.
constexpr Workload kWorkloads[] = {
    {"titin_seq", Finder::kSequential, Input::kTitin},
    {"conserved_seq", Finder::kSequential, Input::kConserved},
    {"titin_smp", Finder::kShared, Input::kTitin},
    {"titin_cluster", Finder::kCluster, Input::kTitin},
};

const Workload& workload_named(const std::string& name) {
  for (const Workload& w : kWorkloads)
    if (name == w.name) return w;
  throw std::invalid_argument("unknown workload '" + name +
                              "' (titin_seq|conserved_seq|titin_smp|"
                              "titin_cluster)");
}

int smp_threads() {
  const int n = static_cast<int>(std::thread::hardware_concurrency());
  return std::clamp(n, 1, kMaxThreads);
}

/// Worker count whose kernel time shares the call's wall time.
int workers(const Workload& w) {
  switch (w.finder) {
    case Finder::kSequential: return 1;
    case Finder::kShared: return smp_threads();
    case Finder::kCluster: return kClusterRanks;
  }
  return 1;
}

core::FinderOptions finder_options() {
  core::FinderOptions opt;
  opt.num_top_alignments = kTops;
  return opt;
}

seq::Sequence make_input(const Workload& w, std::uint64_t seed) {
  if (w.input == Input::kTitin) {
    seq::Sequence s = seq::synthetic_titin(kTitinLength, seed).sequence;
    return seq::Sequence("titin-" + std::to_string(seed),
                         {s.codes().begin(), s.codes().end()}, s.alphabet());
  }
  // Tandem titin-sized domains, but 90 % conserved: the top alignments are
  // long and score past the u8 lanes, so most first-pass groups escalate.
  // 18 copies fill most of the sequence, so the block's random offset, and
  // with it the size of the rectangles that get realigned, varies little
  // from seed to seed (14 copies: 3.4-5.5 G lane-cells per input).
  seq::RepeatSpec spec;
  spec.unit_length = 95;
  spec.copies = 18;
  spec.conservation = 0.9;
  spec.indel_rate = 0.02;
  spec.max_indel = 3;
  spec.tandem = true;
  return seq::make_repeat_sequence(seq::Alphabet::protein(), kConservedLength,
                                   spec, seed,
                                   "conserved-" + std::to_string(seed))
      .sequence;
}

/// Widest i32 engine on this host: the reference that cannot saturate.
align::EngineKind i32_engine_kind() {
  if (align::avx2_available()) return align::EngineKind::kSimd8x32;
  if (align::sse41_available()) return align::EngineKind::kSimd4x32;
  return align::EngineKind::kScalar;
}

bool avx512bw_available() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx512bw");
#else
  return false;
#endif
}

// ---------------------------------------------------------------------------
// Reference file: per input, the sequential run's counters and the tops, one
// top per line as "r score end_x npairs i0 j0 i1 j1 ...".

struct Reference {
  std::uint64_t seq_cells = 0;         ///< sequential `auto` run (0 if unused)
  std::uint64_t seq_realignments = 0;  ///< sequential `auto` run (0 if unused)
  std::vector<core::TopAlignment> tops;
};

constexpr const char* kRefMagic = "perfbench-ref-v2";

void write_references(const std::string& path,
                      const std::vector<Reference>& refs) {
  std::ofstream out(path);
  out << kRefMagic << ' ' << refs.size() << '\n';
  for (const Reference& ref : refs) {
    out << ref.seq_cells << ' ' << ref.seq_realignments << ' '
        << ref.tops.size() << '\n';
    for (const auto& t : ref.tops) {
      out << t.r << ' ' << t.score << ' ' << t.end_x << ' ' << t.pairs.size();
      for (const auto& [i, j] : t.pairs) out << ' ' << i << ' ' << j;
      out << '\n';
    }
  }
  if (!out) throw std::runtime_error("cannot write " + path);
}

std::vector<Reference> read_references(const std::string& path) {
  std::ifstream in(path);
  std::string magic;
  std::size_t inputs = 0;
  if (!(in >> magic >> inputs) || magic != kRefMagic)
    throw std::runtime_error("malformed reference file " + path);
  std::vector<Reference> refs(inputs);
  for (Reference& ref : refs) {
    std::size_t n = 0;
    if (!(in >> ref.seq_cells >> ref.seq_realignments >> n))
      throw std::runtime_error("truncated reference file " + path);
    ref.tops.resize(n);
    for (auto& t : ref.tops) {
      std::size_t pairs = 0;
      if (!(in >> t.r >> t.score >> t.end_x >> pairs))
        throw std::runtime_error("truncated reference file " + path);
      t.pairs.resize(pairs);
      for (auto& [i, j] : t.pairs)
        if (!(in >> i >> j))
          throw std::runtime_error("truncated reference file " + path);
    }
  }
  return refs;
}

std::vector<seq::Sequence> load_inputs(const std::string& fasta) {
  auto records = seq::read_fasta_file(fasta, seq::Alphabet::protein());
  if (records.empty()) throw std::runtime_error(fasta + ": no FASTA records");
  return records;
}

// ---------------------------------------------------------------------------
// Tracing, kept in memory and written at the end as Chrome trace events.

using Clock = std::chrono::steady_clock;
const Clock::time_point kEpoch = Clock::now();

double now_us() {
  return std::chrono::duration<double, std::micro>(Clock::now() - kEpoch)
      .count();
}

/// Small, stable per-thread id for trace tracks (the main thread is 0).
int thread_index() {
  static std::atomic<int> next{0};
  thread_local const int id = next.fetch_add(1);
  return id;
}

struct Span {
  const char* name = "";
  int tid = 0;
  double ts_us = 0.0;
  double dur_us = 0.0;
  int call = 0;        ///< finder call the span belongs to
  int r = -1;          ///< first split (sweeps) or split (traceback)
  int count = 0;       ///< group size (sweeps)
  bool first = false;  ///< sweep under the empty triangle
  bool resumed = false;
};

/// What one decorated engine saw. Written only by the thread that owns the
/// engine; read after the finder call has joined its threads.
struct EngineTrace {
  double first_busy_s = 0.0;
  double realign_busy_s = 0.0;
  std::uint64_t first_sweeps = 0;
  std::uint64_t realign_sweeps = 0;
  std::uint64_t resumed_sweeps = 0;
  /// The engine's own counters after its last sweep (engines are fresh per
  /// call); the cluster finder does not return them in its FinderStats.
  align::PrecisionStats precision;
  std::vector<Span> spans;
};

/// Engine decorator: forwards everything to the wrapped engine and times
/// each sweep. First-pass sweeps are the ones without overrides; resumed
/// sweeps are the ones the finder hands a checkpoint.
class TracedEngine final : public align::Engine {
 public:
  TracedEngine(std::unique_ptr<align::Engine> inner, EngineTrace& trace,
               int call)
      : inner_(std::move(inner)), trace_(trace), call_(call) {}

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
    const double t0 = now_us();
    inner_->align(job, out);
    const double dur = now_us() - t0;
    const bool first = job.overrides == nullptr;
    const bool resumed = job.resume != nullptr;
    (first ? trace_.first_busy_s : trace_.realign_busy_s) += dur * 1e-6;
    ++(first ? trace_.first_sweeps : trace_.realign_sweeps);
    if (resumed) ++trace_.resumed_sweeps;
    trace_.precision = inner_->precision_stats();
    trace_.spans.push_back({"align.sweep", thread_index(), t0, dur, call_,
                            job.r0, job.count, first, resumed});
  }

 private:
  std::unique_ptr<align::Engine> inner_;
  EngineTrace& trace_;
  int call_;
};

/// Hands out decorated engines for one finder call and keeps their traces.
class CallRecorder {
 public:
  explicit CallRecorder(int call) : call_(call) {}

  align::EngineFactory wrap(const align::EngineFactory& inner) {
    return [this, inner]() -> std::unique_ptr<align::Engine> {
      std::lock_guard lock(mutex_);
      EngineTrace& trace = traces_.emplace_back();
      return std::make_unique<TracedEngine>(inner(), trace, call_);
    };
  }

  [[nodiscard]] const std::deque<EngineTrace>& traces() const {
    return traces_;
  }

 private:
  int call_;
  std::mutex mutex_;
  std::deque<EngineTrace> traces_;  // stable addresses for the decorators
};

void write_chrome_trace(const std::string& path, const std::vector<Span>& spans,
                        const std::string& fingerprint_json) {
  util::JsonWriter json;
  json.begin_object().key("traceEvents").begin_array();
  for (const Span& s : spans) {
    json.begin_object()
        .kv("name", s.name)
        .kv("cat", std::string_view(s.name).substr(
                       0, std::string_view(s.name).find('.')))
        .kv("ph", "X")
        .kv("pid", 1)
        .kv("tid", s.tid)
        .kv("ts", s.ts_us)
        .kv("dur", s.dur_us)
        .key("args")
        .begin_object()
        .kv("call", s.call);
    if (s.r >= 0) json.kv("r", s.r);
    if (s.count > 0)
      json.kv("count", s.count).kv("first", s.first).kv("resumed", s.resumed);
    json.end_object().end_object();
  }
  json.end_array().kv("displayTimeUnit", "ms").end_object();
  std::string doc = json.str();
  // Splice the fingerprint in as metadata (JsonWriter has no raw values).
  doc.insert(doc.size() - 1, ",\"otherData\":" + fingerprint_json);
  std::ofstream out(path);
  out << doc << '\n';
  if (!out) throw std::runtime_error("cannot write " + path);
}

// ---------------------------------------------------------------------------
// One finder call.

/// Hands the heap memory earlier calls freed back to the kernel, then
/// restarts its peak-resident-set record (VmHWM), so that the next read
/// covers what one call needs, as in a fresh `reprofind find` process.
/// Without the trim, the allocator's leftovers from earlier calls would set
/// the floor, and they differ from run to run.
void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  if (!clear) throw std::runtime_error("cannot reset /proc/self/clear_refs");
}

/// Peak resident set since the last reset_peak_rss(), in MiB.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

struct CallOutcome {
  core::FinderResult result;
  cluster::ClusterRunInfo info;
  double start_us = 0.0;
  double seconds = 0.0;
};

/// Runs the workload's finder once. Sequential engines are built before the
/// clock starts, as one `reprofind find` builds one engine per record; the
/// parallel and cluster finders build theirs from the factory inside the call.
CallOutcome call_finder(const Workload& w, const seq::Sequence& s,
                        const seq::Scoring& scoring,
                        const align::EngineFactory& factory) {
  CallOutcome out;
  const core::FinderOptions opt = finder_options();
  const auto timed = [&out](const auto& find) {
    out.start_us = now_us();
    out.result = find();
    out.seconds = (now_us() - out.start_us) * 1e-6;
  };
  switch (w.finder) {
    case Finder::kSequential: {
      const auto engine = factory();
      timed([&] { return core::find_top_alignments(s, scoring, opt, *engine); });
      break;
    }
    case Finder::kShared: {
      parallel::ParallelOptions popt;
      popt.threads = smp_threads();
      popt.finder = opt;
      timed([&] {
        return parallel::find_top_alignments_parallel(s, scoring, popt,
                                                      factory);
      });
      break;
    }
    case Finder::kCluster: {
      cluster::ClusterOptions copt;
      copt.ranks = kClusterRanks;
      copt.row_storage = cluster::RowStorage::kMasterReplica;
      copt.finder = opt;
      timed([&] {
        return cluster::find_top_alignments_cluster(s, scoring, copt, factory,
                                                    &out.info);
      });
      break;
    }
  }
  return out;
}

/// Counters that depend only on the input for the sequential finder; they
/// must repeat exactly across calls and runs with the same seed.
struct DetCounters {
  std::uint64_t lane_cells = 0;
  std::uint64_t realignments = 0;
  std::uint64_t tracebacks = 0;
  std::uint64_t i8_sweeps = 0;
  std::uint64_t i16_sweeps = 0;
  std::uint64_t escalations = 0;
  std::uint64_t ckpt_rows_skipped = 0;

  static DetCounters of(const core::FinderStats& st) {
    return {st.cells,     st.realignments, st.tracebacks,
            st.i8_sweeps, st.i16_sweeps,   st.precision_escalations,
            st.rows_skipped};
  }
  bool operator==(const DetCounters&) const = default;

  void write(util::JsonWriter& json) const {
    json.begin_object()
        .kv("lane_cells", lane_cells)
        .kv("realignments", realignments)
        .kv("tracebacks", tracebacks)
        .kv("i8_sweeps", i8_sweeps)
        .kv("i16_sweeps", i16_sweeps)
        .kv("escalations", escalations)
        .kv("ckpt_rows_skipped", ckpt_rows_skipped)
        .end_object();
  }
};

double frac(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double median(std::vector<double> xs) {
  return xs.empty() ? 0.0 : util::percentile(std::move(xs), 50.0);
}

/// Samples of one quantity, kept apart per input.
using PerInput = std::vector<std::vector<double>>;

double smallest(std::vector<double> xs) {
  return xs.empty() ? 0.0 : *std::min_element(xs.begin(), xs.end());
}

/// Mean over inputs of `stat` over each input's samples. Inputs differ in
/// work, so a statistic pooled over them would fall in the gap between their
/// clusters and swing with the few samples at its edges.
double per_input(const PerInput& samples,
                 double (*stat)(std::vector<double>)) {
  double sum = 0.0;
  int n = 0;
  for (const auto& xs : samples)
    if (!xs.empty()) {
      sum += stat(xs);
      ++n;
    }
  return n > 0 ? sum / n : 0.0;
}

struct LayerValue {
  const char* name;
  double value;
  bool bypassed = false;  ///< the workload never reaches this layer; reads 0
};

/// Per-layer values of one traced call (seq.load_s is taken per set-up).
using LayerValues = std::vector<LayerValue>;

LayerValues layer_values(const Workload& w, const seq::Sequence& s,
                         const Reference& ref, const CallOutcome& call,
                         const CallRecorder& rec, double traceback_s,
                         std::uint64_t traceback_calls) {
  const core::FinderStats& st = call.result.stats;
  EngineTrace sum;
  for (const EngineTrace& t : rec.traces()) {
    sum.first_busy_s += t.first_busy_s;
    sum.realign_busy_s += t.realign_busy_s;
    sum.first_sweeps += t.first_sweeps;
    sum.realign_sweeps += t.realign_sweeps;
    sum.resumed_sweeps += t.resumed_sweeps;
    sum.precision.i8_sweeps += t.precision.i8_sweeps;
    sum.precision.i16_sweeps += t.precision.i16_sweeps;
    sum.precision.escalations += t.precision.escalations;
  }
  const double kernel_s = sum.first_busy_s + sum.realign_busy_s;
  const double cells = static_cast<double>(st.cells);
  const double realigns = static_cast<double>(st.realignments);
  const double m = s.length();
  const double tops = static_cast<double>(call.result.tops.size());
  const double worker_s = workers(w) * call.seconds;
  const bool sequential = w.finder == Finder::kSequential;
  const bool smp = w.finder == Finder::kShared;
  const bool clu = w.finder == Finder::kCluster;
  const auto only = [](bool on, const char* name, double v) {
    return LayerValue{name, on ? v : 0.0, !on};
  };
  const double extra_cells =
      frac(cells, static_cast<double>(ref.seq_cells)) - 1.0;
  return {
      {"align.first_busy_s", sum.first_busy_s},
      {"align.first_sweeps", static_cast<double>(sum.first_sweeps)},
      {"align.lane_cells", cells},
      {"align.gcells_per_s", frac(cells, kernel_s) * 1e-9},
      {"align.realign_busy_s", sum.realign_busy_s},
      {"align.realign_sweeps", static_cast<double>(sum.realign_sweeps)},
      {"align.resumed_frac", frac(static_cast<double>(sum.resumed_sweeps),
                                  static_cast<double>(sum.realign_sweeps))},
      {"align.ckpt_hit_frac",
       frac(static_cast<double>(st.ckpt_hits),
            static_cast<double>(st.ckpt_hits + st.ckpt_misses))},
      {"align.ckpt_rows_skipped_frac",
       frac(static_cast<double>(st.rows_skipped),
            static_cast<double>(st.rows_swept))},
      {"align.precision.i8_sweeps",
       static_cast<double>(sum.precision.i8_sweeps)},
      {"align.precision.i16_sweeps",
       static_cast<double>(sum.precision.i16_sweeps)},
      {"align.precision.escalation_frac",
       frac(static_cast<double>(sum.precision.escalations),
            static_cast<double>(sum.precision.i8_sweeps))},
      {"align.traceback_busy_s", traceback_s},
      {"align.traceback_calls", static_cast<double>(traceback_calls)},
      only(sequential, "core.self_s", call.seconds - kernel_s - traceback_s),
      {"core.realignments", realigns},
      {"core.realign_avoided_frac",
       1.0 - frac(realigns, (tops - 1.0) * (m - 1.0))},
      {"core.queue_pops", static_cast<double>(st.queue_pops)},
      only(smp, "parallel.self_s",
           worker_s - kernel_s - st.idle_seconds - traceback_s),
      only(smp, "parallel.kernel_busy_s", kernel_s),
      only(smp, "parallel.idle_s", st.idle_seconds),
      only(smp, "parallel.busy_frac", frac(kernel_s, worker_s)),
      only(smp, "parallel.extra_cells_frac", extra_cells),
      only(smp, "parallel.extra_realign_frac",
           frac(realigns, static_cast<double>(ref.seq_realignments)) - 1.0),
      only(clu, "cluster.self_s", worker_s - kernel_s - traceback_s),
      only(clu, "cluster.messages", static_cast<double>(call.info.messages)),
      only(clu, "cluster.payload_words",
           static_cast<double>(call.info.payload_words)),
      only(clu, "cluster.row_replicas_served",
           static_cast<double>(call.info.row_replicas_served)),
      only(clu, "cluster.kernel_busy_s", kernel_s),
      only(clu, "cluster.resumed_frac",
           frac(static_cast<double>(sum.resumed_sweeps),
                static_cast<double>(sum.realign_sweeps))),
      only(clu, "cluster.extra_cells_frac", extra_cells),
  };
}

/// Replays the accepted tops, in order, on a fresh triangle with freshly
/// recomputed original rows, timing each core::accept_alignment. Each replay
/// must reproduce the finder's top exactly.
void replay_tracebacks(const seq::Sequence& s, const seq::Scoring& scoring,
                       const std::vector<core::TopAlignment>& tops,
                       align::Engine& engine, int call, double& busy_s,
                       std::vector<Span>& spans) {
  align::OverrideTriangle triangle(s.length());
  busy_s = 0.0;
  for (const core::TopAlignment& top : tops) {
    align::GroupJob job;
    job.seq = s.codes();
    job.scoring = &scoring;
    job.r0 = top.r;
    job.count = 1;
    const std::vector<align::Score> original = engine.align_one(job);
    const double t0 = now_us();
    const core::TopAlignment again = core::accept_alignment(
        s, scoring, triangle, std::span<const align::Score>(original), top.r,
        top.score);
    const double dur = now_us() - t0;
    busy_s += dur * 1e-6;
    spans.push_back({"align.traceback", thread_index(), t0, dur, call, top.r});
    if (!(again == top))
      throw std::runtime_error("traceback replay diverged at r=" +
                               std::to_string(top.r));
  }
}

std::string fingerprint_json(const Workload& w) {
  const auto engine = align::make_engine(align::EngineKind::kSimdAuto);
  util::JsonWriter json;
  json.begin_object()
      .kv("nproc", static_cast<int>(std::thread::hardware_concurrency()))
      .kv("avx2", align::avx2_available())
      .kv("avx512bw", avx512bw_available())
      .kv("engine", engine->name())
      .kv("lanes", engine->lanes())
      .kv("build_type", PERFBENCH_BUILD_TYPE)
      .kv("repro_obs", REPRO_OBS_ENABLED != 0)
      .kv("compiler", __VERSION__)
      .kv("finder", w.finder == Finder::kSequential ? "sequential"
                    : w.finder == Finder::kShared   ? "shared-memory"
                                                    : "master-worker")
      .kv("workers", workers(w))
      .kv("tops", kTops)
      .end_object();
  return json.str();
}

// ---------------------------------------------------------------------------
// Subcommands.

int cmd_gen(const util::Args& args) {
  const Workload& w = workload_named(args.get("workload", ""));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  std::vector<seq::Sequence> inputs;
  for (int k = 0; k < kInputsPerRun; ++k)
    inputs.push_back(make_input(w, seed * kInputsPerRun + k));
  seq::write_fasta_file(args.get("out", ""), inputs);
  return 0;
}

int cmd_ref(const util::Args& args) {
  const Workload& w = workload_named(args.get("workload", ""));
  const seq::Scoring scoring = seq::Scoring::protein_default();
  std::vector<Reference> refs;
  util::WallTimer timer;
  for (const seq::Sequence& s : load_inputs(args.get("fasta", ""))) {
    Reference& ref = refs.emplace_back();
    if (w.finder == Finder::kSequential) {
      const auto engine = align::make_engine(i32_engine_kind());
      ref.tops =
          core::find_top_alignments(s, scoring, finder_options(), *engine).tops;
    } else {
      const auto engine = align::make_engine(align::EngineKind::kSimdAuto);
      const core::FinderResult res =
          core::find_top_alignments(s, scoring, finder_options(), *engine);
      ref.tops = res.tops;
      ref.seq_cells = res.stats.cells;
      ref.seq_realignments = res.stats.realignments;
    }
    core::validate_tops(ref.tops, s, scoring);
  }
  write_references(args.get("out", ""), refs);
  std::cout << "reference: " << refs.size() << " inputs in " << timer.seconds()
            << " s\n";
  return 0;
}

int cmd_run(const util::Args& args) {
  const Workload& w = workload_named(args.get("workload", ""));
  const double budget_s = args.get_double("seconds", 10.0);
  const bool trace = args.get_int("trace", 0) != 0;
  const std::string fasta = args.get("fasta", "");
  const std::vector<Reference> refs = read_references(args.get("ref", ""));
  const seq::Scoring scoring = seq::Scoring::protein_default();
  (void)thread_index();  // the main thread takes track 0

  // Set-up: load the inputs and build the engine (sequential) or the engine
  // factory (parallel, cluster), as `reprofind find` does. It is repeated
  // before every call, so that its median samples the whole run.
  std::vector<double> setup_s;
  std::vector<double> load_s;
  std::vector<Span> spans;
  std::vector<seq::Sequence> inputs;
  align::EngineFactory factory;
  const auto set_up = [&] {
    for (int i = 0; i < kSetupReps; ++i) {
      const double t0 = now_us();
      inputs = load_inputs(fasta);
      const double t1 = now_us();
      factory = align::engine_factory(align::EngineKind::kSimdAuto);
      if (w.finder == Finder::kSequential) (void)factory();
      const double t2 = now_us();
      load_s.push_back((t1 - t0) * 1e-6);
      setup_s.push_back((t2 - t0) * 1e-6);
      if (trace) spans.push_back({"seq.load", 0, t0, t1 - t0, -1});
    }
  };
  set_up();
  if (refs.size() != inputs.size())
    throw std::runtime_error("reference file does not match the inputs");

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  PerInput find_s(inputs.size());  // untraced calls
  PerInput rss_mib(inputs.size());
  PerInput traced_find_s(inputs.size());
  std::vector<std::vector<LayerValues>> layers(inputs.size());
  std::vector<std::optional<DetCounters>> det(inputs.size());
  bool det_consistent = true;
  std::vector<double> cells_vs_seq;  // parallel and cluster runs
  std::vector<double> realign_vs_seq;
  const auto replay_engine = align::make_engine(align::EngineKind::kSimdAuto);

  // One checked call; returns its wall time and peak resident set, or
  // nothing when it failed.
  const auto one_call = [&](std::size_t k, int call, bool traced)
      -> std::optional<std::pair<double, double>> {
    const seq::Sequence& s = inputs[k];
    const Reference& ref = refs[k];
    ++attempted;
    try {
      CallRecorder rec(call);
      reset_peak_rss();
      const CallOutcome out =
          call_finder(w, s, scoring, traced ? rec.wrap(factory) : factory);
      const double rss = peak_rss_mib();
      core::validate_tops(out.result.tops, s, scoring);
      std::string diff;
      if (!core::same_tops(out.result.tops, ref.tops, &diff))
        throw std::runtime_error(s.name() + ": tops differ from the "
                                 "reference: " + diff);
      if (w.finder == Finder::kSequential) {
        const DetCounters c = DetCounters::of(out.result.stats);
        if (!det[k]) det[k] = c;
        det_consistent = det_consistent && *det[k] == c;
      } else {
        cells_vs_seq.push_back(frac(static_cast<double>(out.result.stats.cells),
                                    static_cast<double>(ref.seq_cells)));
        realign_vs_seq.push_back(
            frac(static_cast<double>(out.result.stats.realignments),
                 static_cast<double>(ref.seq_realignments)));
      }
      if (traced) {
        spans.push_back({w.finder == Finder::kSequential ? "core.find"
                         : w.finder == Finder::kShared   ? "parallel.find"
                                                         : "cluster.find",
                         0, out.start_us, out.seconds * 1e6, call});
        double tb_s = 0.0;
        replay_tracebacks(s, scoring, out.result.tops, *replay_engine, call,
                          tb_s, spans);
        for (const EngineTrace& t : rec.traces())
          spans.insert(spans.end(), t.spans.begin(), t.spans.end());
        layers[k].push_back(
            layer_values(w, s, ref, out, rec, tb_s, out.result.tops.size()));
      }
      return std::pair{out.seconds, rss};
    } catch (const std::exception& e) {
      ++failed;
      if (failures.size() < 5)
        failures.push_back("call " + std::to_string(call) + ": " + e.what());
      return std::nullopt;
    }
  };

  // An untimed warm-up call, then whole rounds over the inputs until the
  // budget is spent; with --trace 1, traced rounds alternate with plain ones.
  int call = 0;
  one_call(0, call++, false);
  util::WallTimer budget;
  double last_round_s = 0.0;
  for (int round = 0;
       round < kMinRounds || budget.seconds() + last_round_s / 2 < budget_s;
       ++round) {
    const util::WallTimer round_timer;
    const bool traced = trace && round % 2 == 1;
    for (std::size_t k = 0; k < inputs.size(); ++k) {
      set_up();
      const auto t = one_call(k, call++, traced);
      if (t && traced) traced_find_s[k].push_back(t->first);
      if (t && !traced) {
        find_s[k].push_back(t->first);
        rss_mib[k].push_back(t->second);
      }
    }
    last_round_s = round_timer.seconds();
  }

  const std::string fingerprint = fingerprint_json(w);

  util::JsonWriter json;
  json.begin_object()
      .kv("workload", w.name)
      .kv("inputs", static_cast<int>(inputs.size()))
      .kv("sequence_length", inputs.front().length())
      .kv("attempted", attempted)
      .kv("failed", failed)
      .key("failures")
      .begin_array();
  for (const auto& f : failures) json.value(f);
  json.end_array();
  json.kv("counters_consistent", det_consistent);
  if (w.finder == Finder::kSequential) {
    json.key("counters").begin_array();
    for (const auto& c : det)
      if (c) c->write(json);
    json.end_array();
  } else if (!cells_vs_seq.empty()) {
    const auto spread = [&](const char* name, std::vector<double> xs) {
      std::sort(xs.begin(), xs.end());
      json.key(name)
          .begin_object()
          .kv("min", xs.front())
          .kv("median", median(xs))
          .kv("max", xs.back())
          .end_object();
    };
    json.key("vs_sequential").begin_object();
    spread("lane_cells", cells_vs_seq);
    spread("realignments", realign_vs_seq);
    json.end_object();
  }
  std::vector<double> pooled;
  for (const auto& xs : find_s) pooled.insert(pooled.end(), xs.begin(), xs.end());
  json.key("find_s_samples").begin_array();
  for (double t : pooled) json.value(t);
  json.end_array();
  json.key("peak_rss_samples").begin_array();
  for (const auto& xs : rss_mib)
    for (double v : xs) json.value(v);
  json.end_array();
  // The highest whole percentile with at least 10 samples beyond it.
  if (pooled.size() > 10) {
    const double n = static_cast<double>(pooled.size());
    const double p = std::floor(100.0 * (1.0 - 10.0 / n));
    json.key("find_s_tail")
        .begin_object()
        .kv("percentile", p)
        .kv("value", util::percentile(pooled, p))
        .kv("samples", static_cast<int>(pooled.size()))
        .end_object();
  }
  json.key("end_to_end")
      .begin_object()
      .kv("find_s", per_input(find_s, median))
      .kv("setup_s", median(setup_s))
      .kv("peak_rss_mb", per_input(rss_mib, smallest))
      .kv("ok_frac", 1.0 - frac(static_cast<double>(failed),
                                static_cast<double>(attempted)))
      .end_object();
  if (trace) {
    json.key("per_layer").begin_object();
    const auto traced_call =
        std::find_if(layers.begin(), layers.end(),
                     [](const auto& lv) { return !lv.empty(); });
    if (traced_call != layers.end()) {
      const LayerValues& names = traced_call->front();
      for (std::size_t i = 0; i < names.size(); ++i) {
        PerInput xs(layers.size());
        for (std::size_t k = 0; k < layers.size(); ++k)
          for (const auto& lv : layers[k]) xs[k].push_back(lv[i].value);
        json.kv(names[i].name, per_input(xs, median));
      }
      json.kv("seq.load_s", median(load_s))
          .kv("trace.find_s", per_input(traced_find_s, median))
          .kv("trace.overhead_s", per_input(traced_find_s, median) -
                                      per_input(find_s, median));
    }
    json.end_object().key("bypassed").begin_array();
    if (traced_call != layers.end())
      for (const LayerValue& lv : traced_call->front())
        if (lv.bypassed) json.value(lv.name);
    json.end_array();
    const std::string trace_out = args.get("trace-out", "");
    if (!trace_out.empty()) write_chrome_trace(trace_out, spans, fingerprint);
  }
  json.end_object();
  std::string doc = json.str();
  doc.insert(doc.size() - 1, ",\"fingerprint\":" + fingerprint);
  std::cout << doc << std::endl;
  return failed == 0 && det_consistent ? 0 : 3;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const std::string cmd = argc > 1 ? argv[1] : "";
    const util::Args args(argc - 1, argv + 1,
                          {{"workload", "workload name"},
                           {"seed", "input seed (gen)"},
                           {"out", "output path (gen, ref)"},
                           {"fasta", "input FASTA (ref, run)"},
                           {"ref", "reference file (run)"},
                           {"seconds", "measured seconds (run)"},
                           {"trace", "0|1: per-layer traced run (run)"},
                           {"trace-out", "Chrome trace-event JSON path (run)"}});
    if (args.help_requested()) return 0;
    if (cmd == "gen") return cmd_gen(args);
    if (cmd == "ref") return cmd_ref(args);
    if (cmd == "run") return cmd_run(args);
    std::cerr << "usage: perfbench_find gen|ref|run --help\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_find: " << e.what() << '\n';
    return 1;
  }
}
