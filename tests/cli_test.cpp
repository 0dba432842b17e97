// End-to-end tests of the reprofind CLI binary (path injected by CMake).
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "align/engine.hpp"
#include "cluster/master_worker.hpp"
#include "core/options.hpp"
#include "seq/scoring.hpp"

#ifndef REPRO_CLI_PATH
#error "REPRO_CLI_PATH must be defined by the build"
#endif

namespace {

struct RunResult {
  int status = -1;
  std::string out;
};

RunResult run_cli(const std::string& args) {
  const std::string cmd = std::string(REPRO_CLI_PATH) + " " + args + " 2>&1";
  RunResult result;
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return result;
  std::array<char, 4096> buffer{};
  std::size_t n = 0;
  while ((n = fread(buffer.data(), 1, buffer.size(), pipe)) > 0)
    result.out.append(buffer.data(), n);
  result.status = pclose(pipe);
  return result;
}

std::string temp_fasta() {
  // Per-test file: gtest_discover_tests registers each TEST as its own ctest
  // entry, and a parallel ctest run must not let one test's `generate`
  // truncate a FASTA another test is reading.
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  const std::string name =
      std::string("reprofind_cli_") + info->name() + ".fa";
  return (std::filesystem::temp_directory_path() / name).string();
}

/// The engine names `reprofind info` marks available ("  [x] <name> ...").
std::vector<std::string> available_engines(const std::string& info) {
  std::vector<std::string> names;
  std::istringstream lines(info);
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind("  [x] ", 0) != 0) continue;
    std::istringstream rest(line.substr(6));
    std::string name;
    rest >> name;
    names.push_back(name);
  }
  return names;
}

TEST(Cli, InfoListsEngines) {
  const RunResult r = run_cli("info");
  EXPECT_EQ(r.status, 0) << r.out;
  EXPECT_NE(r.out.find("scalar"), std::string::npos);
  EXPECT_NE(r.out.find("default engine"), std::string::npos);
  EXPECT_NE(r.out.find("traceback fill: "), std::string::npos);
  // Every engine of the table is listed (every adaptive rung among them),
  // available on this host or not.
  for (const auto& spec : repro::align::engine_table())
    EXPECT_NE(r.out.find(spec.name), std::string::npos) << spec.name;
}

TEST(Cli, EveryAvailableEngineFindsTheScalarTops) {
  // `info` lists exactly the engines this host runs, and `find --engine`
  // takes each of those names and reproduces the scalar engine's tops.
  const std::string fasta = temp_fasta();
  ASSERT_EQ(run_cli("generate --kind dna --length 200 --unit 10 --copies 6 "
                    "--out " + fasta).status, 0);
  // reprofind's DNA scoring: m = 200 fits every precision's headroom.
  const repro::seq::Scoring dna{repro::seq::ScoreMatrix::dna(2, -3),
                                repro::seq::GapPenalty{5, 2}};
  std::vector<std::string> expected;
  for (const auto& spec : repro::align::engine_table()) {
    ASSERT_TRUE(repro::align::precision_fits(spec.precision, 200, dna))
        << spec.name;
    if (spec.available()) expected.emplace_back(spec.name);
  }
  const RunResult info = run_cli("info");
  ASSERT_EQ(info.status, 0) << info.out;
  EXPECT_EQ(available_engines(info.out), expected) << info.out;

  const std::string find = "find --fasta " + fasta +
                           " --alphabet dna --tops 4 --format csv --engine ";
  const RunResult scalar = run_cli(find + "scalar");
  ASSERT_EQ(scalar.status, 0) << scalar.out;
  for (const auto& name : available_engines(info.out)) {
    const RunResult r = run_cli(find + name);
    EXPECT_EQ(r.status, 0) << name << ": " << r.out;
    EXPECT_EQ(r.out, scalar.out) << name;
  }
}

TEST(Cli, NoArgsPrintsUsage) {
  const RunResult r = run_cli("");
  EXPECT_NE(r.status, 0);
  EXPECT_NE(r.out.find("usage:"), std::string::npos);
}

TEST(Cli, UnknownCommandFails) {
  const RunResult r = run_cli("frobnicate");
  EXPECT_NE(r.status, 0);
  EXPECT_NE(r.out.find("unknown command"), std::string::npos);
}

TEST(Cli, GenerateThenFindTextRoundTrip) {
  const std::string fasta = temp_fasta();
  const RunResult gen = run_cli(
      "generate --kind dna --length 400 --unit 15 --copies 8 --out " + fasta);
  ASSERT_EQ(gen.status, 0) << gen.out;
  ASSERT_TRUE(std::filesystem::exists(fasta));

  const RunResult find = run_cli("find --fasta " + fasta +
                                 " --alphabet dna --tops 6 --repeats "
                                 "--min-score 16");
  EXPECT_EQ(find.status, 0) << find.out;
  EXPECT_NE(find.out.find("top alignments"), std::string::npos);
  EXPECT_NE(find.out.find("repeat region"), std::string::npos);
  EXPECT_NE(find.out.find("consensus"), std::string::npos);
}

TEST(Cli, JsonOutputIsWellFormedish) {
  const std::string fasta = temp_fasta();
  ASSERT_EQ(run_cli("generate --kind dna --length 300 --unit 12 --copies 6 "
                    "--out " + fasta).status, 0);
  const RunResult r = run_cli("find --fasta " + fasta +
                              " --alphabet dna --tops 3 --format json");
  EXPECT_EQ(r.status, 0) << r.out;
  const auto open_braces = std::count(r.out.begin(), r.out.end(), '{');
  const auto close_braces = std::count(r.out.begin(), r.out.end(), '}');
  EXPECT_GT(open_braces, 0);
  EXPECT_EQ(open_braces, close_braces);
  EXPECT_NE(r.out.find("\"top_alignments\""), std::string::npos);
}

TEST(Cli, CsvOutputHasHeaderAndRows) {
  const std::string fasta = temp_fasta();
  ASSERT_EQ(run_cli("generate --kind dna --length 300 --unit 12 --copies 6 "
                    "--out " + fasta).status, 0);
  const RunResult r = run_cli("find --fasta " + fasta +
                              " --alphabet dna --tops 2 --format csv");
  EXPECT_EQ(r.status, 0) << r.out;
  EXPECT_NE(r.out.find("sequence,top,r,score"), std::string::npos);
  EXPECT_NE(r.out.find(",1,"), std::string::npos);
}

TEST(Cli, LowMemoryAndLinearTracebackFlags) {
  const std::string fasta = temp_fasta();
  ASSERT_EQ(run_cli("generate --kind titin --length 300 --out " + fasta).status, 0);
  const RunResult r = run_cli("find --fasta " + fasta +
                              " --tops 4 --low-memory --linear-traceback");
  EXPECT_EQ(r.status, 0) << r.out;
  EXPECT_NE(r.out.find("top alignments"), std::string::npos);
}

TEST(Cli, ParallelThreadsAgreeWithSequential) {
  const std::string fasta = temp_fasta();
  ASSERT_EQ(run_cli("generate --kind titin --length 260 --out " + fasta).status, 0);
  const RunResult seq = run_cli("find --fasta " + fasta +
                                " --tops 5 --engine scalar --format csv");
  const RunResult par = run_cli("find --fasta " + fasta +
                                " --tops 5 --engine scalar --threads 3 "
                                "--format csv");
  EXPECT_EQ(seq.status, 0);
  EXPECT_EQ(par.status, 0);
  EXPECT_EQ(seq.out, par.out);
}

TEST(Cli, LowMemoryAndLinearTracebackWorkAtAnyThreadCount) {
  // ... and on the cluster: every driver runs the same group sweep.
  const std::string fasta = temp_fasta();
  ASSERT_EQ(run_cli("generate --kind titin --length 260 --out " + fasta).status, 0);
  for (const std::string flag : {"--low-memory", "--linear-traceback"}) {
    const std::string find =
        "find --fasta " + fasta + " --tops 5 --format csv " + flag;
    const RunResult one = run_cli(find + " --threads 1");
    EXPECT_EQ(one.status, 0) << flag << ": " << one.out;
    for (const std::string driver : {"--threads 2", "--ranks 3"}) {
      const RunResult r = run_cli(find + " " + driver);
      EXPECT_EQ(r.status, 0) << flag << " " << driver << ": " << r.out;
      EXPECT_EQ(one.out, r.out) << flag << " " << driver;
    }
  }
}

TEST(Cli, ClusterRanksAgreeWithSequentialEvenUnderFaults) {
  const std::string fasta = temp_fasta();
  ASSERT_EQ(run_cli("generate --kind titin --length 260 --out " + fasta).status, 0);
  const RunResult seq = run_cli("find --fasta " + fasta +
                                " --tops 5 --engine scalar --format csv");
  const RunResult clu = run_cli("find --fasta " + fasta +
                                " --tops 5 --engine scalar --ranks 3 "
                                "--row-storage partitioned --format csv");
  const RunResult faulted = run_cli("find --fasta " + fasta +
                                    " --tops 5 --engine scalar --ranks 3 "
                                    "--fault-seed 7 --format csv");
  EXPECT_EQ(seq.status, 0);
  EXPECT_EQ(clu.status, 0) << clu.out;
  EXPECT_EQ(faulted.status, 0) << faulted.out;
  EXPECT_EQ(seq.out, clu.out);
  EXPECT_EQ(seq.out, faulted.out);
}

TEST(Cli, ClusterLowMemoryModesSurviveFaultsOnEitherRowStorage) {
  // --row-storage has no effect under --low-memory (no rank keeps rows);
  // the rebuilt originals survive a seeded fault schedule.
  const std::string fasta = temp_fasta();
  ASSERT_EQ(run_cli("generate --kind titin --length 200 --out " + fasta)
                .status, 0);
  const std::string find = "find --fasta " + fasta +
                           " --tops 4 --format csv --low-memory "
                           "--linear-traceback";
  const RunResult one = run_cli(find + " --threads 1");
  ASSERT_EQ(one.status, 0) << one.out;
  for (const std::string storage : {"replica", "partitioned"}) {
    const RunResult r = run_cli(find + " --ranks 4 --fault-seed 3 "
                                       "--row-storage " + storage);
    EXPECT_EQ(r.status, 0) << storage << ": " << r.out;
    EXPECT_EQ(one.out, r.out) << storage;
  }
}

TEST(Cli, FaultFlagsRequireClusterRun) {
  const std::string fasta = temp_fasta();
  ASSERT_EQ(run_cli("generate --kind titin --length 200 --out " + fasta)
                .status, 0);
  const RunResult r =
      run_cli("find --fasta " + fasta + " --tops 2 --fault-seed 3");
  EXPECT_NE(r.status, 0);
  EXPECT_NE(r.out.find("--ranks"), std::string::npos) << r.out;
  const RunResult bad_plan = run_cli("find --fasta " + fasta +
                                     " --tops 2 --ranks 3 --fault-plan "
                                     "crash:rank=0,op=1");
  EXPECT_NE(bad_plan.status, 0) << bad_plan.out;
}

TEST(Cli, MissingFastaFails) {
  const RunResult r = run_cli("find --tops 3");
  EXPECT_NE(r.status, 0);
  EXPECT_NE(r.out.find("--fasta is required"), std::string::npos);
}

TEST(Cli, BadEngineNameFails) {
  const std::string fasta = temp_fasta();
  ASSERT_EQ(run_cli("generate --kind dna --length 200 --unit 10 --copies 5 "
                    "--out " + fasta).status, 0);
  const RunResult r =
      run_cli("find --fasta " + fasta + " --alphabet dna --engine warp9");
  EXPECT_NE(r.status, 0);
  EXPECT_NE(r.out.find("unknown engine"), std::string::npos);
  for (const auto& spec : repro::align::engine_table())  // the valid names
    EXPECT_NE(r.out.find(spec.name), std::string::npos) << spec.name;
}

TEST(Cli, I16EngineRejectsOverflowingSequenceUpfront) {
  // titin at m=6000 with blosum62 (max score 11) can reach 3000*11 = 33000,
  // past the i16 ceiling — an explicitly selected i16 engine (the widest
  // this build has) must be rejected before any alignment runs, with the
  // adaptive and wider alternatives named.
  const std::string fasta = temp_fasta();
  ASSERT_EQ(run_cli("generate --kind titin --length 6000 --out " + fasta)
                .status, 0);
  const std::string i16 = repro::align::best_engine(
                              repro::align::Precision::kI16).name;
  const RunResult r =
      run_cli("find --fasta " + fasta + " --tops 1 --engine " + i16);
  EXPECT_NE(r.status, 0);
  EXPECT_NE(r.out.find("saturation headroom"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("adaptive"), std::string::npos) << r.out;
  // ... and every multi-lane i32 engine this host runs (simd8x32 on AVX2
  // hosts), plus scalar; not the one-lane striped or general-gap engines.
  for (const auto& spec : repro::align::engine_table()) {
    if (spec.precision != repro::align::Precision::kI32 || !spec.available())
      continue;
    if (spec.lanes > 1 || spec.kind == repro::align::EngineKind::kScalar) {
      EXPECT_NE(r.out.find(spec.name), std::string::npos) << spec.name;
    } else {
      EXPECT_EQ(r.out.find(spec.name), std::string::npos) << spec.name;
    }
  }
}

TEST(Cli, U8EngineRejectsOverflowingSequenceUpfront) {
  // The same guard covers explicit u8 engines, whose (bias-aware) headroom
  // is far smaller; the adaptive default accepts the identical input.
  const std::string fasta = temp_fasta();
  ASSERT_EQ(run_cli("generate --kind titin --length 300 --out " + fasta)
                .status, 0);
  const std::string u8 = repro::align::best_engine(
                             repro::align::Precision::kI8).name;
  const RunResult r =
      run_cli("find --fasta " + fasta + " --tops 1 --engine " + u8);
  EXPECT_NE(r.status, 0);
  EXPECT_NE(r.out.find("u8"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("saturation headroom"), std::string::npos) << r.out;
  const RunResult ok =
      run_cli("find --fasta " + fasta + " --tops 1 --precision auto");
  EXPECT_EQ(ok.status, 0) << ok.out;
}

TEST(Cli, PrecisionFlagExcludesExplicitEngine) {
  const std::string fasta = temp_fasta();
  ASSERT_EQ(run_cli("generate --kind titin --length 200 --out " + fasta)
                .status, 0);
  const RunResult r = run_cli("find --fasta " + fasta +
                              " --engine scalar --precision i16");
  EXPECT_NE(r.status, 0);
  EXPECT_NE(r.out.find("--precision"), std::string::npos) << r.out;
}

TEST(Cli, I16GuardDoesNotBlockSafeRuns) {
  const std::string fasta = temp_fasta();
  ASSERT_EQ(run_cli("generate --kind titin --length 300 --out " + fasta)
                .status, 0);
  const RunResult r =
      run_cli("find --fasta " + fasta + " --tops 2 --engine scalar");
  EXPECT_EQ(r.status, 0) << r.out;
}

TEST(Cli, MetricsJsonWritesPerfRecord) {
  const std::string fasta = temp_fasta();
  ASSERT_EQ(run_cli("generate --kind titin --length 300 --out " + fasta)
                .status, 0);
  const auto metrics_path =
      (std::filesystem::temp_directory_path() / "reprofind_metrics_test.json")
          .string();
  std::filesystem::remove(metrics_path);
  const RunResult r = run_cli("find --fasta " + fasta +
                              " --tops 3 --engine scalar --metrics-json " +
                              metrics_path);
  ASSERT_EQ(r.status, 0) << r.out;
  std::ifstream in(metrics_path);
  ASSERT_TRUE(in.good()) << "metrics file was not written";
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string doc = buf.str();
  EXPECT_NE(doc.find("\"schema\":\"repro-metrics-v1\""), std::string::npos)
      << doc;
  EXPECT_NE(doc.find("\"name\":\"reprofind.find\""), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"engine\":\"scalar\""), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"cells\":"), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"tracebacks\":"), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"registry\":{"), std::string::npos) << doc;
  const auto open_braces = std::count(doc.begin(), doc.end(), '{');
  const auto close_braces = std::count(doc.begin(), doc.end(), '}');
  EXPECT_EQ(open_braces, close_braces);
}

/// Runs `find` on `fasta` with `flags` and returns the --metrics-json
/// document.
std::string find_metrics(const std::string& fasta, const std::string& flags) {
  const std::string path = fasta + ".metrics.json";
  std::filesystem::remove(path);
  const RunResult r = run_cli("find --fasta " + fasta + " --tops 4 " + flags +
                              " --metrics-json " + path);
  EXPECT_EQ(r.status, 0) << r.out;
  std::ifstream in(path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// The number reported as `key` in the document's top-level `section`
/// ("metrics" or "counters"), or nothing when it is not reported.
std::optional<double> reported(const std::string& doc,
                               const std::string& section,
                               std::string_view key) {
  const auto quoted = [](std::string_view name) {
    std::string q(1, '"');
    q += name;
    q += "\":";
    return q;
  };
  const std::size_t begin = doc.find(quoted(section) + '{');
  if (begin == std::string::npos) return std::nullopt;
  const std::string body = doc.substr(begin, doc.find('}', begin) - begin);
  const std::string needle = quoted(key);
  const std::size_t at = body.find(needle);
  if (at == std::string::npos) return std::nullopt;
  return std::stod(body.substr(at + needle.size()));
}

TEST(Cli, MetricsJsonReportsTheSumOfEveryListedStat) {
  // One FASTA per record and one with both: the two-record run reports the
  // sum of the single-record runs for every count of the run's stats list,
  // and reports every duration of it.
  const std::string base = temp_fasta();
  std::string both;
  std::vector<std::string> docs;
  for (const char* seed : {"5", "6"}) {
    const std::string fasta = base + "." + seed + ".fa";
    ASSERT_EQ(run_cli("generate --kind titin --length 220 --seed " +
                      std::string(seed) + " --out " + fasta)
                  .status, 0);
    std::ifstream in(fasta);
    std::ostringstream text;
    text << in.rdbuf();
    both += text.str();
    docs.push_back(find_metrics(fasta, "--threads 1"));
  }
  {
    std::ofstream out(base);
    out << both;
  }
  const std::string sum = find_metrics(base, "--threads 1");
  for (const auto& stat : repro::core::kFinderStats) {
    if (stat.count != nullptr) {
      const auto total = reported(sum, "counters", stat.name);
      ASSERT_TRUE(total.has_value()) << stat.name << "\n" << sum;
      EXPECT_EQ(*total, *reported(docs[0], "counters", stat.name) +
                            *reported(docs[1], "counters", stat.name))
          << stat.name;
    } else {
      EXPECT_GE(reported(sum, "metrics", stat.name).value_or(-1.0), 0.0)
          << stat.name << "\n" << sum;
    }
  }
  const std::string cluster = find_metrics(base, "--ranks 3");
  for (const auto& stat : repro::cluster::kClusterRunStats)
    EXPECT_TRUE(reported(cluster, "counters",
                             std::string("cluster_").append(stat.name)))
        << stat.name << "\n" << cluster;
}

}  // namespace
