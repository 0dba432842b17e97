// Equivalence of every SIMD engine (and every adaptive engine the host
// runs) with the scalar reference, across group widths, stripe widths,
// overrides, and partial final groups — plus the i16 saturation guard.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <tuple>

#include "align/engine.hpp"
#include "align/override_triangle.hpp"
#include "test_support.hpp"

namespace repro::align {
namespace {

using seq::Alphabet;
using seq::Scoring;

/// Saturating i16 SIMD kinds available in this build/CPU.
std::vector<EngineKind> simd_kinds() {
  return testing::available_kinds(
      [](const EngineSpec& spec) { return spec.precision == Precision::kI16; });
}

/// 32-bit SIMD kinds (no saturation limit).
std::vector<EngineKind> simd32_kinds() {
  return testing::available_kinds([](const EngineSpec& spec) {
    return spec.precision == Precision::kI32 && spec.lanes > 1;
  });
}

/// Everything the equivalence sweeps should cover.
std::vector<EngineKind> all_simd_kinds() {
  auto kinds = simd_kinds();
  for (EngineKind k : simd32_kinds()) kinds.push_back(k);
  return kinds;
}

/// Aligns every rectangle of `s` in engine-sized groups and compares every
/// bottom row against the scalar engine.
void expect_engine_matches_scalar(Engine& engine, const seq::Sequence& s,
                                  const Scoring& scoring,
                                  const OverrideTriangle* tri) {
  const auto scalar = make_engine(EngineKind::kScalar);
  const int m = s.length();
  const int lanes = engine.lanes();
  for (int r0 = 1; r0 <= m - 1; r0 += lanes) {
    const int count = std::min(lanes, m - r0);
    GroupJob job;
    job.seq = s.codes();
    job.scoring = &scoring;
    job.overrides = tri;
    job.r0 = r0;
    job.count = count;
    std::vector<std::vector<Score>> rows(static_cast<std::size_t>(count));
    std::vector<std::span<Score>> outs(static_cast<std::size_t>(count));
    for (int k = 0; k < count; ++k) {
      rows[static_cast<std::size_t>(k)].resize(static_cast<std::size_t>(m - (r0 + k)));
      outs[static_cast<std::size_t>(k)] = rows[static_cast<std::size_t>(k)];
    }
    engine.align(job, outs);
    for (int k = 0; k < count; ++k) {
      const auto expected =
          scalar->align_one(testing::make_job(s, r0 + k, scoring, tri));
      EXPECT_EQ(rows[static_cast<std::size_t>(k)], expected)
          << engine.name() << " lane " << k << " of group r0=" << r0;
    }
  }
}

class SimdEquivalence
    : public ::testing::TestWithParam<std::tuple<EngineKind, int>> {};

TEST_P(SimdEquivalence, MatchesScalarOnRepeatProtein) {
  const auto [kind, stripe] = GetParam();
  const auto engine = make_engine(kind, stripe);
  const auto g = seq::synthetic_titin(220, 77);
  const Scoring scoring = Scoring::protein_default();
  expect_engine_matches_scalar(*engine, g.sequence, scoring, nullptr);
}

TEST_P(SimdEquivalence, MatchesScalarWithOverrides) {
  const auto [kind, stripe] = GetParam();
  const auto engine = make_engine(kind, stripe);
  const auto g = seq::synthetic_dna_tandem(150, 10, 6, 99);
  const Scoring scoring = Scoring::paper_example();
  util::Rng rng(1234);
  OverrideTriangle tri(g.sequence.length());
  testing::random_overrides(g.sequence.length(), 400, rng, &tri);
  expect_engine_matches_scalar(*engine, g.sequence, scoring, &tri);
}

std::string param_name(
    const ::testing::TestParamInfo<std::tuple<EngineKind, int>>& info) {
  const auto [kind, stripe] = info.param;
  // gen / sse / avx prefix by ISA, then lanes, then x32 for i32 lanes.
  const EngineSpec& spec = engine_spec(kind);
  const std::string prefix = spec.isa == Isa::kPortable ? "gen"
                             : spec.isa <= Isa::kSse41  ? "sse"
                                                        : "avx";
  const std::string name = prefix + std::to_string(spec.lanes) +
                           (spec.precision == Precision::kI32 ? "x32" : "");
  return name + "_stripe" + (stripe < 0 ? "none" : std::to_string(stripe));
}

std::vector<std::tuple<EngineKind, int>> make_params() {
  std::vector<std::tuple<EngineKind, int>> params;
  for (EngineKind kind : all_simd_kinds())
    for (int stripe : {-1, 5, 33, 0})  // none, tiny, odd, engine default
      params.emplace_back(kind, stripe);
  return params;
}

INSTANTIATE_TEST_SUITE_P(AllEngines, SimdEquivalence,
                         ::testing::ValuesIn(make_params()), param_name);

// Every adaptive row of the table (auto reaches only the widest), across
// the same stripe widths, plus a saturating input with dense overrides:
// escalation, the early exit of u8 sweeps at stripe boundaries and the
// per-word override chunks all meet there.
class AdaptiveSimdEquivalence
    : public ::testing::TestWithParam<std::tuple<testing::AdaptiveRow, int>> {
 protected:
  void SetUp() override {
    testing::skip_unless_available(std::get<0>(GetParam()).spec());
  }
  [[nodiscard]] std::unique_ptr<Engine> engine() const {
    const auto [row, stripe] = GetParam();
    return make_engine(row.spec().kind, stripe);
  }
};

TEST_P(AdaptiveSimdEquivalence, MatchesScalarOnRepeatProtein) {
  const auto g = seq::synthetic_titin(220, 77);
  expect_engine_matches_scalar(*engine(), g.sequence,
                               Scoring::protein_default(), nullptr);
}

TEST_P(AdaptiveSimdEquivalence, MatchesScalarWithOverrides) {
  const auto g = seq::synthetic_dna_tandem(150, 10, 6, 99);
  util::Rng rng(1234);
  OverrideTriangle tri(g.sequence.length());
  testing::random_overrides(g.sequence.length(), 400, rng, &tri);
  expect_engine_matches_scalar(*engine(), g.sequence, Scoring::paper_example(),
                               &tri);
}

TEST_P(AdaptiveSimdEquivalence, MatchesScalarOnSaturatingInputWithOverrides) {
  // 95 %-conserved tandem protein repeats pass the u8 ceiling (blosum62:
  // 255 - 4 - 11 = 240) in most groups.
  seq::RepeatSpec spec;
  spec.unit_length = 24;
  spec.copies = 8;
  spec.conservation = 0.95;
  spec.indel_rate = 0.0;
  spec.tandem = true;
  const auto g =
      seq::make_repeat_sequence(Alphabet::protein(), 240, spec, 22);
  util::Rng rng(4321);
  OverrideTriangle tri(g.sequence.length());
  testing::random_overrides(g.sequence.length(), 600, rng, &tri);
  const auto e = engine();
  expect_engine_matches_scalar(*e, g.sequence, Scoring::protein_default(),
                               &tri);
  EXPECT_GT(e->precision_stats().escalations, 0u) << e->name();
}

std::string adaptive_param_name(
    const ::testing::TestParamInfo<std::tuple<testing::AdaptiveRow, int>>&
        info) {
  const auto [row, stripe] = info.param;
  return std::string(isa_name(row.spec().isa)) + "_stripe" +
         (stripe < 0 ? "none" : std::to_string(stripe));
}

INSTANTIATE_TEST_SUITE_P(
    PerIsa, AdaptiveSimdEquivalence,
    ::testing::Combine(::testing::ValuesIn(testing::all_adaptive_rows()),
                       ::testing::Values(-1, 5, 33, 0)),
    adaptive_param_name);

TEST(SimdEngine, PartialFinalGroupAndSingleLane) {
  // count < lanes exercises the column masks; count == 1 the degenerate
  // group. m chosen so the last group of an 8-lane engine has 3 members.
  const auto g = seq::synthetic_titin(200, 5);
  const auto s = g.sequence.subsequence(0, 60);  // m-1 = 59 = 7*8 + 3
  const Scoring scoring = Scoring::protein_default();
  for (EngineKind kind : simd_kinds()) {
    const auto engine = make_engine(kind);
    const auto scalar = make_engine(EngineKind::kScalar);
    for (int count = 1; count <= std::min(engine->lanes(), 4); ++count) {
      GroupJob job;
      job.seq = s.codes();
      job.scoring = &scoring;
      job.r0 = 30;
      job.count = count;
      std::vector<std::vector<Score>> rows(static_cast<std::size_t>(count));
      std::vector<std::span<Score>> outs(static_cast<std::size_t>(count));
      for (int k = 0; k < count; ++k) {
        rows[static_cast<std::size_t>(k)].resize(
            static_cast<std::size_t>(s.length() - (30 + k)));
        outs[static_cast<std::size_t>(k)] = rows[static_cast<std::size_t>(k)];
      }
      engine->align(job, outs);
      for (int k = 0; k < count; ++k)
        EXPECT_EQ(rows[static_cast<std::size_t>(k)],
                  scalar->align_one(testing::make_job(s, 30 + k, scoring)))
            << engine->name() << " count=" << count << " lane " << k;
    }
  }
}

TEST(SimdEngine, ThinRectanglesAtBothEnds) {
  // r = 1 (one row) and r = m-1 (one column) are the degenerate extremes;
  // every engine must agree with scalar, grouped or not.
  const auto g = seq::synthetic_titin(120, 44);
  const auto& s = g.sequence;
  const int m = s.length();
  const Scoring scoring = Scoring::protein_default();
  const auto scalar = make_engine(EngineKind::kScalar);
  for (EngineKind kind : all_simd_kinds()) {
    const auto engine = make_engine(kind);
    for (const int r : {1, 2, m - 2, m - 1}) {
      EXPECT_EQ(engine->align_one(testing::make_job(s, r, scoring)),
                scalar->align_one(testing::make_job(s, r, scoring)))
          << engine->name() << " r=" << r;
    }
    // The final group of the sequence straddles r = m-1.
    const int lanes = engine->lanes();
    const int r0 = std::max(1, m - 1 - lanes + 1);
    const int count = m - r0;
    GroupJob job;
    job.seq = s.codes();
    job.scoring = &scoring;
    job.r0 = r0;
    job.count = count;
    std::vector<std::vector<Score>> rows(static_cast<std::size_t>(count));
    std::vector<std::span<Score>> outs(static_cast<std::size_t>(count));
    for (int k = 0; k < count; ++k) {
      rows[static_cast<std::size_t>(k)].resize(static_cast<std::size_t>(m - (r0 + k)));
      outs[static_cast<std::size_t>(k)] = rows[static_cast<std::size_t>(k)];
    }
    engine->align(job, outs);
    for (int k = 0; k < count; ++k)
      EXPECT_EQ(rows[static_cast<std::size_t>(k)],
                scalar->align_one(testing::make_job(s, r0 + k, scoring)))
          << engine->name() << " final-group lane " << k;
  }
}

TEST(SimdEngine, TinySequences) {
  // m = 2 is the smallest legal input (one split).
  const auto s = seq::Sequence::from_string("mini", "AT", seq::Alphabet::dna());
  const Scoring scoring = Scoring::paper_example();
  for (EngineKind kind : all_simd_kinds()) {
    const auto engine = make_engine(kind);
    const auto row = engine->align_one(testing::make_job(s, 1, scoring));
    ASSERT_EQ(row.size(), 1u) << engine->name();
    EXPECT_EQ(row[0], 0) << engine->name();  // A vs T never scores
  }
  const auto s2 = seq::Sequence::from_string("mini2", "AA", seq::Alphabet::dna());
  for (EngineKind kind : all_simd_kinds()) {
    const auto engine = make_engine(kind);
    EXPECT_EQ(engine->align_one(testing::make_job(s2, 1, scoring))[0], 2)
        << engine->name();
  }
}

TEST(SimdEngine, SaturationIsDetectedNotSilent) {
  // A long self-identical sequence under a huge match score must overflow
  // i16 somewhere in the matrix; the engine must throw, not corrupt.
  const auto s = seq::Sequence::from_string(
      "sat", std::string(700, 'A') + std::string(700, 'A'), Alphabet::dna());
  const Scoring scoring{seq::ScoreMatrix::dna(100, -1), seq::GapPenalty{2, 1}};
  for (EngineKind kind : simd_kinds()) {
    const auto engine = make_engine(kind);
    EXPECT_THROW(engine->align_one(testing::make_job(s, 700, scoring)),
                 std::logic_error)
        << engine->name();
  }
  // The 32-bit engines (scalar and SIMD) handle the same input fine.
  const auto scalar = make_engine(EngineKind::kScalar);
  const auto row = scalar->align_one(testing::make_job(s, 700, scoring));
  EXPECT_EQ(row.back(), 700 * 100);
  for (EngineKind kind : simd32_kinds()) {
    const auto engine = make_engine(kind);
    const auto wide = engine->align_one(testing::make_job(s, 700, scoring));
    EXPECT_EQ(wide, row) << engine->name();
  }
}

TEST(SimdEngine, CellAccountingIncludesLanes) {
  const auto g = seq::synthetic_titin(200, 6);
  const Scoring scoring = Scoring::protein_default();
  const auto engine = make_engine(EngineKind::kSimd8Generic);
  GroupJob job;
  job.seq = g.sequence.codes();
  job.scoring = &scoring;
  job.r0 = 50;
  job.count = 8;
  std::vector<std::vector<Score>> rows(8);
  std::vector<std::span<Score>> outs(8);
  for (int k = 0; k < 8; ++k) {
    rows[static_cast<std::size_t>(k)].resize(
        static_cast<std::size_t>(200 - (50 + k)));
    outs[static_cast<std::size_t>(k)] = rows[static_cast<std::size_t>(k)];
  }
  engine->align(job, outs);
  EXPECT_EQ(engine->cells_computed(), 57ull * 150ull * 8ull);
}

TEST(EngineTable, RowsDescribeTheirEngines) {
  std::set<std::string> names;
  std::set<EngineKind> kinds;
  for (const EngineSpec& spec : engine_table()) {
    EXPECT_TRUE(names.insert(spec.name).second) << spec.name;
    EXPECT_TRUE(kinds.insert(spec.kind).second) << spec.name;
    EXPECT_NE(spec.kind, EngineKind::kSimdAuto) << spec.name;
    EXPECT_EQ(&engine_spec(spec.kind), &spec) << spec.name;
    EXPECT_EQ(&engine_spec(std::string_view(spec.name)), &spec) << spec.name;
    EXPECT_EQ(engine_precision(spec.kind), spec.precision) << spec.name;
    if (!spec.available()) {
      EXPECT_THROW(make_engine(spec.kind), std::logic_error) << spec.name;
      continue;
    }
    EXPECT_EQ(make_engine(spec.kind)->lanes(), spec.lanes) << spec.name;
  }
  EXPECT_THROW(engine_spec("warp9"), std::logic_error);
}

TEST(EngineTable, BestEngineHasMostLanesThenHighestIsa) {
  for (const Precision p : {Precision::kI8, Precision::kI16, Precision::kI32,
                            Precision::kAdaptive}) {
    const EngineSpec& best = best_engine(p);
    EXPECT_TRUE(best.available()) << best.name;
    EXPECT_EQ(best.precision, p) << best.name;
    for (const EngineSpec& spec : engine_table()) {
      if (spec.precision != p || !spec.available()) continue;
      EXPECT_LE(spec.lanes, best.lanes) << spec.name << " vs " << best.name;
      if (spec.lanes == best.lanes) {
        EXPECT_LE(spec.isa, best.isa) << spec.name << " vs " << best.name;
      }
    }
  }
  const EngineSpec& adaptive = best_engine(Precision::kAdaptive);
  EXPECT_EQ(&engine_spec(EngineKind::kSimdAuto), &adaptive);
  EXPECT_EQ(&engine_spec("auto"), &adaptive);
  EXPECT_EQ(&engine_spec("best"), &adaptive);
  EXPECT_EQ(make_best_engine()->name(), make_engine(adaptive.kind)->name());
}

TEST(SimdEngine, BestEngineWorks) {
  const auto engine = make_best_engine();
  ASSERT_GE(engine->lanes(), 1);
  const auto g = seq::synthetic_titin(200, 9);
  const Scoring scoring = Scoring::protein_default();
  expect_engine_matches_scalar(*engine, g.sequence, scoring, nullptr);
}

}  // namespace
}  // namespace repro::align
