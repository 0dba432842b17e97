// Differential kernel fuzz target — the fuzzing counterpart of
// core_equivalence_test.
//
// From the input bytes it builds a small DNA sequence, a scoring and a set
// of override bits, then for every split r checks that
//
//   * every engine of the engine table that this host runs and whose
//     precision fits the input produces the scalar engine's bottom rows
//     bit for bit, one split at a time and in full lane groups, with
//     3-column stripes (many stripe boundaries even on tiny rectangles),
//   * resuming the scalar engine from any checkpoint row it emitted
//     reproduces the fresh bottom row exactly (§3 checkpoint-resume
//     bit-identity),
//   * the portable traceback fill's bottom row is the scalar engine's, and
//     every other traceback fill this host runs gives every matrix cell,
//     and the traceback (score, end cell and pairs), of the portable fill.
//
// Byte 1 >= 0x80 selects match +40 instead of the paper's +2: a u8 lane
// then passes its ceiling (255 - 1 - 40) after six matches, so escalation
// and the stripe-boundary early exit of saturating u8 sweeps get fuzzed.
// Byte 0 >= 0xF0 selects m in [67, 127], so a row's override bits span two
// 64-bit words (the kernels test overrides one word at a time); smaller
// values keep most inputs short and fast.
//
// Any divergence throws; the driver reports it with the reproducing input.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "align/engine.hpp"
#include "align/override_triangle.hpp"
#include "align/traceback.hpp"
#include "align/types.hpp"
#include "seq/scoring.hpp"

namespace {

using repro::align::CheckpointSink;
using repro::align::CheckpointView;
using repro::align::GroupJob;
using repro::align::Score;
using repro::align::Traceback;
using repro::align::TracebackFill;
using repro::align::TracebackMatrix;

[[noreturn]] void finding(const std::string& what) {
  throw std::runtime_error("kernel diff: " + what);
}

void compare_rows(const std::vector<Score>& ref, const std::vector<Score>& got,
                  const std::string& label, int r) {
  if (ref.size() != got.size())
    finding(label + ": row size differs at r=" + std::to_string(r));
  for (std::size_t x = 0; x < ref.size(); ++x)
    if (ref[x] != got[x])
      finding(label + ": H[" + std::to_string(x) + "] differs at r=" +
              std::to_string(r) + " (" + std::to_string(ref[x]) + " vs " +
              std::to_string(got[x]) + ")");
}

/// Traces split job.r0 back with every available fill and compares each
/// with the portable fill; `ref` is the scalar engine's bottom row.
void compare_tracebacks(const GroupJob& job, const std::vector<Score>& ref) {
  const int r = job.r0;
  const TracebackFill* portable = nullptr;
  for (const TracebackFill& fill : repro::align::traceback_fills())
    if (fill.isa == repro::align::Isa::kPortable) portable = &fill;
  const TracebackMatrix base = portable->fill(job);
  const int cols = base.cols();
  std::vector<Score> bottom(static_cast<std::size_t>(cols));
  for (int x = 1; x <= cols; ++x)
    bottom[static_cast<std::size_t>(x - 1)] = base.at(r, x);
  compare_rows(ref, bottom, "traceback fill generic", r);
  const bool traced = repro::align::find_best_end(ref).score > 0;
  const Traceback want =
      traced ? repro::align::traceback_best(job, *portable) : Traceback{};
  for (const TracebackFill& fill : repro::align::traceback_fills()) {
    if (&fill == portable || !fill.available()) continue;
    const std::string label =
        std::string("traceback fill ") + repro::align::isa_name(fill.isa);
    const TracebackMatrix mat = fill.fill(job);
    for (int y = 0; y <= r; ++y)
      for (int x = 0; x <= cols; ++x)
        if (mat.at(y, x) != base.at(y, x))
          finding(label + ": H(" + std::to_string(y) + "," +
                  std::to_string(x) + ") differs at r=" + std::to_string(r));
    if (!traced) continue;
    const Traceback got = repro::align::traceback_best(job, fill);
    if (got.score != want.score || got.end_x != want.end_x ||
        got.pairs != want.pairs)
      finding(label + ": traceback differs at r=" + std::to_string(r));
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size < 4) return 0;
  // Byte 0: sequence length m, in [3, 34] below 0xF0, else 67 + 4 * (low
  // nibble). Byte 1: checkpoint stride seed and scoring selector.
  // Bytes then alternate: residue stream (2 bits each), then override pairs.
  const int m = data[0] < 0xF0 ? 3 + static_cast<int>(data[0] % 32)
                               : 67 + 4 * static_cast<int>(data[0] & 0x0F);
  const int stride = 1 + static_cast<int>(data[1] % 5);
  std::vector<std::uint8_t> seq(static_cast<std::size_t>(m));
  std::size_t p = 2;
  for (int i = 0; i < m; ++i) {
    seq[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>((data[p % size] >> ((i % 4) * 2)) & 3);
    if (i % 4 == 3) ++p;
  }

  repro::align::OverrideTriangle tri(m);
  for (; p + 1 < size; p += 2) {
    const int i = static_cast<int>(data[p]) % (m - 1);
    const int j = i + 1 + static_cast<int>(data[p + 1]) % (m - 1 - i);
    tri.set(i, j);
  }

  const repro::seq::Scoring scoring =
      data[1] >= 0x80
          ? repro::seq::Scoring{repro::seq::ScoreMatrix::dna(40, -1),
                                repro::seq::GapPenalty{2, 1}}
          : repro::seq::Scoring::paper_example();
  const auto scalar = repro::align::make_engine(
      repro::align::EngineKind::kScalar);
  // Stripe width 3 forces many stripe boundaries even on tiny rectangles.
  std::vector<std::unique_ptr<repro::align::Engine>> candidates;
  for (const repro::align::EngineSpec& spec : repro::align::engine_table())
    if (spec.kind != repro::align::EngineKind::kScalar && spec.available() &&
        repro::align::precision_fits(spec.precision, m, scoring))
      candidates.push_back(repro::align::make_engine(spec.kind, 3));

  std::vector<std::vector<Score>> refs(static_cast<std::size_t>(m));

  for (int r = 1; r < m; ++r) {
    GroupJob job;
    job.seq = seq;
    job.scoring = &scoring;
    job.overrides = &tri;
    job.r0 = r;
    job.count = 1;

    CheckpointSink sink;
    sink.stride = stride;
    sink.top_row = r - 1;
    GroupJob fresh = job;
    fresh.sink = &sink;
    const auto& ref = refs[static_cast<std::size_t>(r)] =
        scalar->align_one(fresh);

    for (const auto& engine : candidates)
      compare_rows(ref, engine->align_one(job), engine->name(), r);
    compare_tracebacks(job, ref);

    // Resume from every emitted checkpoint row strictly above the bottom row
    // and demand the identical bottom row (§3 bit-identity on resume).
    for (int t = 0; t < sink.count; ++t) {
      const auto& cr = sink.rows[static_cast<std::size_t>(t)];
      if (cr.row >= r) continue;
      CheckpointView view;
      view.row = cr.row;
      view.lanes = sink.lanes;
      view.elem_size = sink.elem_size;
      view.h = cr.h.data();
      view.max_y = cr.max_y.data();
      view.bytes = cr.h.size();
      GroupJob resumed = job;
      resumed.resume = &view;
      compare_rows(ref, scalar->align_one(resumed),
                   "resume@" + std::to_string(cr.row), r);
    }
  }

  // Full lane groups: column masks, deep rows and partial final groups.
  for (const auto& engine : candidates) {
    const int lanes = engine->lanes();
    if (lanes == 1) continue;  // the single-split pass covered it
    for (int r0 = 1; r0 < m; r0 += lanes) {
      GroupJob job;
      job.seq = seq;
      job.scoring = &scoring;
      job.overrides = &tri;
      job.r0 = r0;
      job.count = std::min(lanes, m - r0);
      std::vector<std::vector<Score>> rows(
          static_cast<std::size_t>(job.count));
      std::vector<std::span<Score>> outs;
      for (int k = 0; k < job.count; ++k) {
        rows[static_cast<std::size_t>(k)].resize(
            static_cast<std::size_t>(m - (r0 + k)));
        outs.emplace_back(rows[static_cast<std::size_t>(k)]);
      }
      engine->align(job, outs);
      for (int k = 0; k < job.count; ++k)
        compare_rows(refs[static_cast<std::size_t>(r0 + k)],
                     rows[static_cast<std::size_t>(k)],
                     engine->name() + " group r0=" + std::to_string(r0),
                     r0 + k);
    }
  }
  return 0;
}
