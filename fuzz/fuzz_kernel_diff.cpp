// Differential kernel fuzz target — the fuzzing counterpart of
// core_equivalence_test.
//
// From the input bytes it builds a small DNA sequence, a scoring and a set
// of override bits, then for every split r checks that
//
//   * the scalar engine (reference), the striped scalar engine with a tiny
//     stripe, the portable SIMD engines (8 x i16 lanes, 4 x i32 lanes) and
//     the adaptive u8 -> i16 engines (the default `auto` with 3-column
//     stripes, and `auto-generic`) produce bit-identical bottom rows, one
//     split at a time and in full lane groups,
//   * resuming the scalar engine from any checkpoint row it emitted
//     reproduces the fresh bottom row exactly (§3 checkpoint-resume
//     bit-identity).
//
// Byte 1 >= 0x80 selects match +40 instead of the paper's +2: a u8 lane
// then passes its ceiling (255 - 1 - 40) after six matches, so escalation
// and the stripe-boundary early exit of saturating u8 sweeps get fuzzed.
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
#include "align/types.hpp"
#include "seq/scoring.hpp"

namespace {

using repro::align::CheckpointSink;
using repro::align::CheckpointView;
using repro::align::GroupJob;
using repro::align::Score;

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

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size < 4) return 0;
  // Byte 0: sequence length m in [3, 34]. Byte 1: checkpoint stride seed
  // and scoring selector.
  // Bytes then alternate: residue stream (2 bits each), then override pairs.
  const int m = 3 + static_cast<int>(data[0] % 32);
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
  const auto striped = repro::align::make_engine(
      repro::align::EngineKind::kScalarStriped, 3);
  const auto simd8 = repro::align::make_engine(
      repro::align::EngineKind::kSimd8Generic);
  const auto simd4x32 = repro::align::make_engine(
      repro::align::EngineKind::kSimd4x32Generic);
  const auto auto_striped =
      repro::align::make_engine(repro::align::EngineKind::kSimdAuto, 3);
  const auto auto_generic = repro::align::make_engine(
      repro::align::EngineKind::kSimdAutoGeneric);

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

    compare_rows(ref, striped->align_one(job), "striped", r);
    compare_rows(ref, simd8->align_one(job), "simd8generic", r);
    compare_rows(ref, simd4x32->align_one(job), "simd4x32generic", r);
    compare_rows(ref, auto_striped->align_one(job), "auto", r);
    compare_rows(ref, auto_generic->align_one(job), "autogeneric", r);

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
  for (auto* const engine : {auto_striped.get(), auto_generic.get()}) {
    const int lanes = engine->lanes();
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
