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

/// Every adaptive-engine ISA, narrowest first. make_engine(kSimdAuto) only
/// reaches the widest one the host runs, so tests parametrize over these.
inline std::vector<align::AdaptiveIsa> all_adaptive_isas() {
  return {align::AdaptiveIsa::kGeneric, align::AdaptiveIsa::kSse2,
          align::AdaptiveIsa::kAvx2, align::AdaptiveIsa::kAvx512bw};
}

inline std::string adaptive_isa_label(align::AdaptiveIsa isa) {
  switch (isa) {
    case align::AdaptiveIsa::kGeneric: return "generic";
    case align::AdaptiveIsa::kSse2: return "sse2";
    case align::AdaptiveIsa::kAvx2: return "avx2";
    case align::AdaptiveIsa::kAvx512bw: return "avx512bw";
  }
  return "unknown";
}

/// Marks the running test skipped, visibly, when this build or CPU lacks
/// `isa`. Call it from SetUp: gtest then never runs the test body.
inline void skip_unless_available(align::AdaptiveIsa isa) {
  if (!align::adaptive_isa_available(isa))
    GTEST_SKIP() << adaptive_isa_label(isa)
                 << " adaptive engine not supported by this build or CPU";
}

/// Fixture for tests parametrized over all_adaptive_isas().
class AdaptiveIsaTest : public ::testing::TestWithParam<align::AdaptiveIsa> {
 protected:
  void SetUp() override { skip_unless_available(GetParam()); }
  [[nodiscard]] std::unique_ptr<align::Engine> engine(
      int stripe_cols = 0) const {
    return align::make_adaptive_engine(GetParam(), stripe_cols);
  }
};

inline std::string adaptive_isa_param_name(
    const ::testing::TestParamInfo<align::AdaptiveIsa>& info) {
  return adaptive_isa_label(info.param);
}

}  // namespace repro::testing
