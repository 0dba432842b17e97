// Fault-plan fuzz target — grammar robustness plus a recovery differential.
//
// Mode byte (data[0]):
//   even — spec path: the remaining bytes are a fault-plan spec string.
//     FaultPlan::parse must either reject it with std::runtime_error or
//     accept it and round-trip losslessly through to_string()/parse().
//   odd — differential path: the bytes choose a from_seed schedule, a rank
//     count, a row-storage mode, a memory mode (archived or recomputed
//     originals) and a traceback mode; a miniature cluster run under that
//     schedule (drops, delays, duplicates, worker crashes) must produce
//     exactly the sequential finder's accepted top alignments — the
//     fault-tolerance guarantee of cluster/master_worker.cpp. Timeouts are
//     tightened so crash recovery stays fast enough to fuzz.
//
// Any divergence throws; the driver reports it with the reproducing input.
#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>

#include "align/engine.hpp"
#include "cluster/fault.hpp"
#include "cluster/master_worker.hpp"
#include "core/top_alignment_finder.hpp"
#include "core/verify.hpp"
#include "seq/generator.hpp"
#include "seq/scoring.hpp"

namespace {

using namespace repro;

[[noreturn]] void finding(const std::string& what) {
  throw std::logic_error("fault plan: " + what);
}

// Sequential references are pure functions of the sequence length and the
// finder modes here (the generator seed is fixed), so the replay cache makes
// the differential path cheap across iterations.
const core::FinderResult& reference_for(int m, const seq::Sequence& s,
                                        const seq::Scoring& scoring,
                                        const core::FinderOptions& opt) {
  using Key = std::tuple<int, core::MemoryMode, core::TracebackMode>;
  static std::map<Key, core::FinderResult> cache;
  const Key key{m, opt.memory, opt.traceback};
  const auto it = cache.find(key);
  if (it != cache.end()) return it->second;
  const auto engine = align::make_engine(align::EngineKind::kScalar);
  return cache
      .emplace(key, core::find_top_alignments(s, scoring, opt, *engine))
      .first->second;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size < 1) return 0;

  if (data[0] % 2 == 0) {
    // Spec-grammar robustness: reject cleanly or round-trip losslessly.
    const std::string spec(reinterpret_cast<const char*>(data + 1), size - 1);
    cluster::FaultPlan plan;
    try {
      plan = cluster::FaultPlan::parse(spec);
    } catch (const std::runtime_error&) {
      return 0;  // malformed input, rejected with the documented error type
    }
    const std::string canon = plan.to_string();
    const cluster::FaultPlan reparsed = cluster::FaultPlan::parse(canon);
    if (reparsed.events.size() != plan.events.size())
      finding("round trip changed event count for '" + canon + "'");
    if (reparsed.to_string() != canon)
      finding("round trip not a fixed point: '" + canon + "' vs '" +
              reparsed.to_string() + "'");
    return 0;
  }

  // Differential path: faulted cluster run vs the sequential finder.
  if (size < 4) return 0;
  const int ranks = 2 + static_cast<int>(data[1] % 3);  // 2..4
  const bool partitioned = (data[2] & 1) != 0;
  const bool low_memory = (data[2] & 2) != 0;
  const bool linear = (data[2] & 4) != 0;
  const int m = 100 + static_cast<int>(data[3] % 21);  // 100..120
  std::uint64_t fault_seed = 0;
  for (std::size_t i = 1; i < size && i < 12; ++i)
    fault_seed = fault_seed * 131 + data[i];

  const auto g = seq::synthetic_titin(m, 91);
  const seq::Scoring scoring = seq::Scoring::protein_default();
  core::FinderOptions opt;
  opt.num_top_alignments = 2;
  if (low_memory) opt.memory = core::MemoryMode::kRecomputeRows;
  if (linear) opt.traceback = core::TracebackMode::kLinearSpace;
  const core::FinderResult& reference =
      reference_for(m, g.sequence, scoring, opt);

  cluster::ClusterOptions copt;
  copt.ranks = ranks;
  copt.row_storage = partitioned ? cluster::RowStorage::kPartitioned
                                 : cluster::RowStorage::kMasterReplica;
  copt.finder = opt;
  copt.fault_plan = cluster::FaultPlan::from_seed(fault_seed, ranks);
  copt.ft.task_timeout_ms = 60;
  copt.ft.row_timeout_ms = 30;
  copt.ft.hello_timeout_ms = 40;
  copt.ft.max_backoff_ms = 400;
  copt.ft.poll_ms = 5;

  const auto factory = align::engine_factory(align::EngineKind::kScalar);
  const core::FinderResult res = cluster::find_top_alignments_cluster(
      g.sequence, scoring, copt, factory, nullptr);

  std::string diff;
  if (!core::same_tops(res.tops, reference.tops, &diff))
    finding("faulted cluster diverged from sequential (ranks=" +
            std::to_string(ranks) + (partitioned ? ", partitioned" : "") +
            (low_memory ? ", low-memory" : "") +
            (linear ? ", linear-traceback" : "") +
            ", plan=" + copt.fault_plan.to_string() + "): " + diff);
  return 0;
}
