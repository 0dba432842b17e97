// Shared helpers for the test suite: an independent brute-force reference
// implementation of the rectangle alignment (Eq. 1 evaluated naively over a
// full matrix) and small utilities for building jobs and random inputs.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "align/engine.hpp"
#include "align/override_triangle.hpp"
#include "seq/generator.hpp"
#include "seq/scoring.hpp"
#include "seq/sequence.hpp"
#include "util/rng.hpp"

namespace repro::testing {

/// Naive reference: full matrix, per-cell scans, independent of all engine
/// code paths. Returns the bottom row of rectangle r (prefix [0,r) vertical,
/// suffix [r,m) horizontal), honouring the overridden pair set.
inline std::vector<align::Score> reference_bottom_row(
    const seq::Sequence& s, int r, const seq::Scoring& scoring,
    const std::set<std::pair<int, int>>& overrides = {}) {
  const int m = s.length();
  const int rows = r;
  const int cols = m - r;
  std::vector<std::vector<align::Score>> mat(
      static_cast<std::size_t>(rows) + 1,
      std::vector<align::Score>(static_cast<std::size_t>(cols) + 1, 0));
  for (int y = 1; y <= rows; ++y) {
    for (int x = 1; x <= cols; ++x) {
      const int i = y - 1;
      const int j = r + x - 1;
      align::Score inner = mat[static_cast<std::size_t>(y - 1)][static_cast<std::size_t>(x - 1)];
      for (int g = 1; g <= x - 1; ++g)
        inner = std::max(inner,
                         mat[static_cast<std::size_t>(y - 1)][static_cast<std::size_t>(x - 1 - g)] -
                             scoring.gap.cost(g));
      for (int g = 1; g <= y - 1; ++g)
        inner = std::max(inner,
                         mat[static_cast<std::size_t>(y - 1 - g)][static_cast<std::size_t>(x - 1)] -
                             scoring.gap.cost(g));
      align::Score h = std::max(
          align::Score{0}, scoring.matrix.score(s[i], s[j]) + inner);
      if (overrides.contains({i, j})) h = 0;
      mat[static_cast<std::size_t>(y)][static_cast<std::size_t>(x)] = h;
    }
  }
  return {mat[static_cast<std::size_t>(rows)].begin() + 1,
          mat[static_cast<std::size_t>(rows)].end()};
}

/// Builds a single-rectangle job.
inline align::GroupJob make_job(const seq::Sequence& s, int r,
                                const seq::Scoring& scoring,
                                const align::OverrideTriangle* tri = nullptr) {
  align::GroupJob job;
  job.seq = s.codes();
  job.scoring = &scoring;
  job.overrides = tri;
  job.r0 = r;
  job.count = 1;
  return job;
}

/// Random set of override pairs, mirrored into both representations.
inline std::set<std::pair<int, int>> random_overrides(
    int m, int count, util::Rng& rng, align::OverrideTriangle* tri) {
  std::set<std::pair<int, int>> pairs;
  for (int k = 0; k < count; ++k) {
    const int i = static_cast<int>(rng.below(static_cast<std::uint64_t>(m - 1)));
    const int j = i + 1 +
                  static_cast<int>(rng.below(static_cast<std::uint64_t>(m - 1 - i)));
    pairs.insert({i, j});
    if (tri != nullptr) tri->set(i, j);
  }
  return pairs;
}

/// Aligns one group (`count` consecutive splits from r0) and returns its
/// bottom rows; `resume` (nullptr = from scratch) and `sink` (optional) are
/// passed through to the engine.
inline std::vector<std::vector<align::Score>> align_group(
    align::Engine& engine, const seq::Sequence& s,
    const seq::Scoring& scoring, const align::OverrideTriangle* tri, int r0,
    int count, const align::CheckpointView* resume = nullptr,
    align::CheckpointSink* sink = nullptr) {
  align::GroupJob job;
  job.seq = s.codes();
  job.scoring = &scoring;
  job.overrides = tri;
  job.r0 = r0;
  job.count = count;
  job.resume = resume;
  job.sink = sink;
  const int m = s.length();
  std::vector<std::vector<align::Score>> rows(static_cast<std::size_t>(count));
  std::vector<std::span<align::Score>> outs(static_cast<std::size_t>(count));
  for (int k = 0; k < count; ++k) {
    rows[static_cast<std::size_t>(k)].resize(
        static_cast<std::size_t>(m - (r0 + k)));
    outs[static_cast<std::size_t>(k)] = rows[static_cast<std::size_t>(k)];
  }
  engine.align(job, outs);
  return rows;
}

/// Every row of the engine table this build compiled in, available on this
/// CPU or not, that satisfies `keep`.
template <class Pred>
std::vector<const align::EngineSpec*> engine_rows(Pred keep) {
  std::vector<const align::EngineSpec*> rows;
  for (const align::EngineSpec& spec : align::engine_table())
    if (keep(spec)) rows.push_back(&spec);
  return rows;
}

/// Kinds of the rows this host runs that satisfy `keep`, in table order.
template <class Pred>
std::vector<align::EngineKind> available_kinds(Pred keep) {
  std::vector<align::EngineKind> kinds;
  for (const align::EngineSpec* spec : engine_rows(keep))
    if (spec->available()) kinds.push_back(spec->kind);
  return kinds;
}

/// Marks the running test skipped, visibly, when this CPU cannot run
/// `spec`. Call it from SetUp: gtest then never runs the test body.
inline void skip_unless_available(const align::EngineSpec& spec) {
  if (!spec.available())
    GTEST_SKIP() << spec.name << " needs " << align::isa_name(spec.isa)
                 << ", which this CPU lacks";
}

/// The adaptive rows, narrowest ISA first.
inline std::vector<const align::EngineSpec*> adaptive_specs() {
  return engine_rows([](const align::EngineSpec& spec) {
    return spec.precision == align::Precision::kAdaptive;
  });
}

/// An adaptive row of the engine table, by its position in
/// adaptive_specs(). make_engine(kSimdAuto) only reaches the widest one the
/// host runs, so tests parametrize over these. The parameter is a 4-byte
/// index rather than the row's EngineKind because gtest_discover_tests puts
/// GetParam()'s byte dump into every ctest name: an index keeps the
/// `PerIsa/*` names as they were before the engine table.
struct AdaptiveRow {
  int index;

  [[nodiscard]] const align::EngineSpec& spec() const {
    return *adaptive_specs()[static_cast<std::size_t>(index)];
  }
};

inline std::vector<AdaptiveRow> all_adaptive_rows() {
  std::vector<AdaptiveRow> rows;
  for (std::size_t i = 0; i < adaptive_specs().size(); ++i)
    rows.push_back({static_cast<int>(i)});
  return rows;
}

/// Fixture for tests parametrized over all_adaptive_rows().
class AdaptiveRowTest : public ::testing::TestWithParam<AdaptiveRow> {
 protected:
  void SetUp() override { skip_unless_available(GetParam().spec()); }
  [[nodiscard]] std::unique_ptr<align::Engine> engine(
      int stripe_cols = 0) const {
    return align::make_engine(GetParam().spec().kind, stripe_cols);
  }
};

/// "generic", "sse2", "avx2" or "avx512bw": the row's ISA.
inline std::string adaptive_row_param_name(
    const ::testing::TestParamInfo<AdaptiveRow>& info) {
  return align::isa_name(info.param.spec().isa);
}

}  // namespace repro::testing
