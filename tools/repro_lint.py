#!/usr/bin/env python3
"""Repo-specific invariant lint (always runs; no clang-tidy required).

Rules
-----
no-kernel-locks       DP kernel translation units must contain no mutex /
                      lock / RMW-atomic / non-relaxed memory-order tokens:
                      the REPRO_OBS=OFF build guarantees zero synchronisation
                      in the cell loops, and relaxed override-bit loads are
                      the only sanctioned atomic access.
engine-test-coverage  tests/core_equivalence_test.cpp and
                      tests/checkpoint_test.cpp loop over align::engine_table()
                      instead of keeping hand lists of EngineKinds, and pick
                      rows by neither ISA, lane count nor kind; the
                      checkpoint suite keeps the rows whose engine
                      supports_checkpoints(). So both cover every engine the
                      host runs, including engines added later.
one-engine-table      C++ files outside src/align/ may not use
                      REPRO_HAVE_SSE2, REPRO_ENABLE_AVX2,
                      __builtin_cpu_supports, avx2_available or
                      sse41_available: which engines exist and run here is
                      the engine table's business (engine_table(),
                      EngineSpec::available()). perfbench/ is exempt: the
                      benchmark is frozen, and the two functions stay for
                      it.
one-lane-ops          the saturating/max intrinsics (_mm*_adds_*,
                      _mm*_subs_*, _mm*_max_*) and lane-policy structs
                      (a struct or class named *Ops, or one defining static
                      adds/subs) appear only in src/align/vec_ops.hpp: every
                      SIMD engine's lane ops are one VecOps<Elem, Lanes, Isa>
                      instantiation, not another hand-written Ops struct.
                      perfbench/ is exempt: the benchmark is frozen.
no-raw-new-delete     no raw new / delete expressions in src/ (containers,
                      unique_ptr and the aligned allocator cover every need);
                      `= delete` declarations are fine.
metrics-naming        string literals fed to counter()/timer()/set_gauge()
                      (and the finder key() helpers) must match the
                      repro-metrics-v1 grammar
                      [a-z][a-z0-9_]*(\\.[a-z][a-z0-9_]*)* — a trailing '.'
                      marks a prefix literal completed at runtime.
metrics-registry      metric literals under the cluster./vcluster./align.
                      namespaces must appear in CLUSTER_METRIC_NAMES /
                      ALIGN_METRIC_NAMES: the grammar accepts any
                      well-formed name, so a typo'd counter would silently
                      fork a new time series. Add new names to the registry
                      alongside the code.
one-search-core       src/ files outside src/core/ may not name GroupQueue,
                      pop_best_if or std::multiset<TaskKey, nor define a
                      TaskKey comparator: every finder drives the one
                      core::BestFirstSearch instead of forking its queue,
                      in-flight bounds and acceptance rule.
one-checkpoint-cache  src/ may construct an align::CheckpointCache (a value,
                      a temporary or a template argument such as
                      std::optional<CheckpointCache>) only in
                      src/core/top_alignment_finder.cpp: every worker of a
                      run shares the scheduler's one cache, so per-worker
                      caches cannot return. tests/ and bench/ are exempt,
                      and so are the class's own checkpoint_cache files.
one-group-sweep       src/ may construct an align::GroupJob (a value, a
                      temporary or a template argument) only in the sweep
                      component (src/core/group_sweep.{hpp,cpp}), in
                      src/align/, and in src/core/old_finder.cpp (the
                      O(n^4) reference oracle): the scheduler's thread
                      workers, the cluster's worker ranks and the
                      virtual-cluster oracle all sweep groups through
                      core::GroupSweep and build jobs with core::group_job,
                      so no driver forks its own sweep step again. tests/,
                      bench/, fuzz/ and perfbench/ are exempt.
nolint-reason         every NOLINT must name its check and give a reason:
                      // NOLINT(<check>): <reason>
shell-hygiene         shell scripts start with a bash shebang and set
                      -euo pipefail (fallback when shellcheck is absent).
format-fallback       no trailing whitespace, tabs, CR line endings or
                      missing final newline in C++/Python/CMake sources
                      (fallback when clang-format is absent).

Escape hatch: append `REPRO_LINT_ALLOW(<rule>): <reason>` in a comment on
the offending line.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

KERNEL_FILES = [
    "src/align/scalar_engine.cpp",
    "src/align/striped_engine.cpp",
    "src/align/general_gap_engine.cpp",
    "src/align/simd_kernel.hpp",
    "src/align/simd_engine.cpp",
    "src/align/simd_engine_sse41.cpp",
    "src/align/simd_engine_avx2.cpp",
    "src/align/simd_engine_avx512.cpp",
    "src/align/vec_ops.hpp",
    "src/align/simd_engine_impl.hpp",
    "src/align/query_profile.hpp",
    "src/align/engine_detail.hpp",
]

LOCK_TOKENS = re.compile(
    r"\b(std::mutex|std::shared_mutex|std::lock_guard|std::unique_lock|"
    r"std::scoped_lock|std::condition_variable|fetch_add|fetch_sub|"
    r"fetch_or|fetch_and|fetch_xor|compare_exchange_\w+|"
    r"memory_order_(acquire|release|acq_rel|seq_cst|consume))\b"
)

METRIC_NAME = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)*\.?$")

# Known-names registry for the cluster namespaces (metrics-registry rule).
# Runtime-suffixed per-rank variants (cluster.messages.rank3, ...) share
# their base literal; a bare "cluster." / "vcluster." literal is a prefix
# completed at runtime and is exempt.
CLUSTER_METRIC_NAMES = {
    "cluster.messages",
    "cluster.payload_words",
    "cluster.row_replicas_served",
    "cluster.row_deposits",
    "cluster.ranks",
    "cluster.faults_injected",
    "cluster.retries",
    "cluster.reassignments",
    "cluster.heartbeat_misses",
    "cluster.stale_results",
    "cluster.row_rebuilds",
    "cluster.sync_requests",
    "cluster.workers_lost",
    "vcluster.runs",
    "vcluster.assignments",
    "vcluster.row_replica_bytes",
    "vcluster.comm_messages_modelled",
    "vcluster.comm_seconds_modelled",
    "vcluster.reassignments",
    "vcluster.workers_lost",
    "vcluster.worker_busy_fraction",
    "vcluster.makespan_sec",
}

# Known-names registry for the align. namespace (kernel + adaptive-precision
# counters emitted by the engines themselves).
ALIGN_METRIC_NAMES = {
    "align.lane_cells",
    "align.group_alignments",
    "align.lane_cells_skipped",
    "align.precision.i8_sweeps",
    "align.precision.i16_sweeps",
    "align.precision.escalations",
    "align.precision.profile_hits",
    "align.precision.profile_builds",
}
REGISTERED_METRIC_NAMES = CLUSTER_METRIC_NAMES | ALIGN_METRIC_NAMES
METRIC_CALL = re.compile(r"\b(?:counter|timer|set_gauge)\(\s*\"([^\"]*)\"")
METRIC_KEY_CALL = re.compile(r"\bkey\(\s*\"([^\"]*)\"")

NOLINT_OK = re.compile(r"NOLINT(?:NEXTLINE)?\([\w.,\- ]+\):\s*\S")
NOLINT_ANY = re.compile(r"NOLINT")

CXX_GLOBS = ["src/**/*.cpp", "src/**/*.hpp", "tools/**/*.cpp", "bench/**/*.cpp",
             "bench/**/*.hpp", "tests/**/*.cpp", "fuzz/**/*.cpp"]
FORMAT_GLOBS = CXX_GLOBS + ["tools/**/*.py", "tools/**/*.sh", "**/CMakeLists.txt",
                            "cmake/**/*.cmake"]

errors: list[str] = []


def fail(path: Path, line_no: int, rule: str, msg: str) -> None:
    rel = path.relative_to(ROOT)
    errors.append(f"{rel}:{line_no}: [{rule}] {msg}")


def allowed(raw_line: str, rule: str) -> bool:
    m = re.search(r"REPRO_LINT_ALLOW\(([\w-]+)\):\s*\S", raw_line)
    return bool(m) and m.group(1) == rule


def strip_comments_and_strings(text: str) -> str:
    """Blanks out comments and string/char literals, preserving line breaks
    so reported line numbers stay valid."""
    out: list[str] = []
    i, n = 0, len(text)
    state = "code"  # code | line | block | str | chr
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "str"
                out.append(" ")
                i += 1
                continue
            if c == "'":
                state = "chr"
                out.append(" ")
                i += 1
                continue
            out.append(c)
        elif state == "line":
            if c == "\n":
                state = "code"
                out.append(c)
            else:
                out.append(" ")
        elif state == "block":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append(c if c == "\n" else " ")
        else:  # str / chr
            quote = '"' if state == "str" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                state = "code"
            out.append(" " if c != "\n" else c)
        i += 1
    return "".join(out)


def glob_files(patterns: list[str]) -> list[Path]:
    seen: dict[Path, None] = {}
    for pattern in patterns:
        for p in sorted(ROOT.glob(pattern)):
            if p.is_file() and "build" not in p.parts and "_deps" not in p.parts:
                seen[p] = None
    return list(seen)


def check_kernel_locks() -> None:
    for rel in KERNEL_FILES:
        path = ROOT / rel
        if not path.exists():
            continue
        raw = path.read_text().splitlines()
        code = strip_comments_and_strings(path.read_text()).splitlines()
        for no, (raw_line, code_line) in enumerate(zip(raw, code), start=1):
            m = LOCK_TOKENS.search(code_line)
            if m and not allowed(raw_line, "no-kernel-locks"):
                fail(path, no, "no-kernel-locks",
                     f"synchronisation token '{m.group(0)}' in a DP kernel "
                     "file (REPRO_OBS=OFF builds promise lock-free cell "
                     "loops; only relaxed loads are sanctioned)")


ENGINE_SUITES = ["tests/core_equivalence_test.cpp", "tests/checkpoint_test.cpp"]
HAND_KIND_LIST = re.compile(
    r"EngineKind::k\w+\s*,\s*(?:align::)?EngineKind::k\w+|"
    r"(?:push_back|emplace_back)\(\s*(?:align::)?EngineKind::k")
ROW_PICK = re.compile(r"\.(?:isa|lanes|kind)\s*(?:==|!=|<=|>=|<(?!<)|>(?!>))")


def check_engine_coverage() -> None:
    for rel in ENGINE_SUITES:
        path = ROOT / rel
        raw = path.read_text()
        code = strip_comments_and_strings(raw)
        if "engine_table()" not in code:
            fail(path, 1, "engine-test-coverage",
                 f"{rel} must loop over align::engine_table() so it covers "
                 "every engine the host runs")
        if (rel.endswith("checkpoint_test.cpp")
                and "supports_checkpoints()" not in code):
            fail(path, 1, "engine-test-coverage",
                 f"{rel} must keep the rows whose engine "
                 "supports_checkpoints()")
        raw_lines = raw.splitlines()
        for pattern, what in ((HAND_KIND_LIST, "a hand list of EngineKinds"),
                              (ROW_PICK, "a row pick by ISA, lanes or kind")):
            for m in pattern.finditer(code):
                no = code.count("\n", 0, m.start()) + 1
                if allowed(raw_lines[no - 1], "engine-test-coverage"):
                    continue
                fail(path, no, "engine-test-coverage",
                     f"'{m.group(0)}' is {what}: loop over "
                     "align::engine_table() instead")


ENGINE_TABLE_GLOBS = [f"{d}/**/*.{ext}"
                      for d in ("src", "tools", "bench", "tests", "fuzz",
                                "examples", "perfbench")
                      for ext in ("cpp", "hpp")]
ENGINE_TABLE_TOKENS = re.compile(
    r"\b(REPRO_HAVE_SSE2|REPRO_ENABLE_AVX2|__builtin_cpu_supports|"
    r"avx2_available|sse41_available)\b")


def check_one_engine_table() -> None:
    for path in glob_files(ENGINE_TABLE_GLOBS):
        parts = path.relative_to(ROOT).parts
        if parts[0] == "perfbench" or parts[:2] == ("src", "align"):
            continue
        raw = path.read_text().splitlines()
        code = strip_comments_and_strings(path.read_text()).splitlines()
        for no, (raw_line, code_line) in enumerate(zip(raw, code), start=1):
            m = ENGINE_TABLE_TOKENS.search(code_line)
            if m and not allowed(raw_line, "one-engine-table"):
                fail(path, no, "one-engine-table",
                     f"'{m.group(0)}' outside src/align/: loop over "
                     "align::engine_table() and ask EngineSpec::available()")


LANE_OPS_HOME = ("src", "align", "vec_ops.hpp")
LANE_OPS_TOKENS = re.compile(
    r"\b_mm\d*_(?:adds|subs|max)_\w+|"
    r"\b(?:struct|class)\s+\w*Ops(?:\d+(?:x\d+)?)?\s*(?:final\s*)?[{:]|"
    r"\bstatic\b[^;{()]*\b(?:adds|subs)\s*\(")


def check_one_lane_ops() -> None:
    for path in glob_files(ENGINE_TABLE_GLOBS):
        parts = path.relative_to(ROOT).parts
        if parts[0] == "perfbench" or parts == LANE_OPS_HOME:
            continue
        raw = path.read_text().splitlines()
        code = strip_comments_and_strings(path.read_text()).splitlines()
        for no, (raw_line, code_line) in enumerate(zip(raw, code), start=1):
            m = LANE_OPS_TOKENS.search(code_line)
            if m and not allowed(raw_line, "one-lane-ops"):
                fail(path, no, "one-lane-ops",
                     f"'{m.group(0).strip()}' outside src/align/vec_ops.hpp: "
                     "instantiate VecOps<Elem, Lanes, Isa> instead of "
                     "hand-writing lane ops")


def check_raw_new_delete() -> None:
    new_expr = re.compile(r"\bnew\b(?!\s*\()")  # `new (place)` also caught below
    delete_expr = re.compile(r"\bdelete\b")
    for path in glob_files(["src/**/*.cpp", "src/**/*.hpp"]):
        raw = path.read_text().splitlines()
        code = strip_comments_and_strings(path.read_text()).splitlines()
        for no, (raw_line, code_line) in enumerate(zip(raw, code), start=1):
            if allowed(raw_line, "no-raw-new-delete"):
                continue
            if re.search(r"=\s*delete", code_line):
                code_line = re.sub(r"=\s*delete", "", code_line)
            if re.search(r"#\s*include", code_line):
                continue
            if new_expr.search(code_line) or re.search(r"\bnew\s*\(", code_line):
                fail(path, no, "no-raw-new-delete",
                     "raw new expression (use containers / make_unique / "
                     "util::AlignedBuffer)")
            elif delete_expr.search(code_line):
                fail(path, no, "no-raw-new-delete", "raw delete expression")


def check_metrics_naming() -> None:
    for path in glob_files(["src/**/*.cpp", "src/**/*.hpp"]):
        text = path.read_text()
        lines = text.splitlines()
        for no, line in enumerate(lines, start=1):
            names = METRIC_CALL.findall(line)
            # key("...") helpers build metric names only in the finder layers.
            if "core/" in str(path) or "parallel/" in str(path):
                names += METRIC_KEY_CALL.findall(line)
            for name in names:
                if allowed(line, "metrics-naming"):
                    continue
                if not METRIC_NAME.match(name):
                    fail(path, no, "metrics-naming",
                         f'metric name "{name}" violates repro-metrics-v1 '
                         "([a-z][a-z0-9_]* dot-separated segments)")
                elif (re.match(r"^(v?cluster|align)\.", name)
                      and not name.endswith(".")
                      and name not in REGISTERED_METRIC_NAMES
                      and not allowed(line, "metrics-registry")):
                    fail(path, no, "metrics-registry",
                         f'metric name "{name}" is not in the '
                         "CLUSTER_METRIC_NAMES / ALIGN_METRIC_NAMES registry "
                         "(tools/repro_lint.py) — add it there or fix the typo")


SEARCH_CORE_TOKENS = re.compile(
    r"\b(GroupQueue|pop_best_if)\b|std::multiset\s*<\s*(core::)?TaskKey\b|"
    r"operator\(\)\s*\(\s*const\s+(core::)?TaskKey\s*&")


def check_one_search_core() -> None:
    for path in glob_files(["src/**/*.cpp", "src/**/*.hpp"]):
        if path.relative_to(ROOT).parts[:2] == ("src", "core"):
            continue
        raw = path.read_text().splitlines()
        code = strip_comments_and_strings(path.read_text()).splitlines()
        for no, (raw_line, code_line) in enumerate(zip(raw, code), start=1):
            m = SEARCH_CORE_TOKENS.search(code_line)
            if m and not allowed(raw_line, "one-search-core"):
                fail(path, no, "one-search-core",
                     f"'{m.group(0)}' outside src/core/: drive "
                     "core::BestFirstSearch instead of re-implementing its "
                     "queue, in-flight bounds or key order")


CACHE_HOMES = {("src", "core", "top_alignment_finder.cpp"),
               ("src", "align", "checkpoint_cache.hpp"),
               ("src", "align", "checkpoint_cache.cpp")}
CACHE_CONSTRUCT = re.compile(
    r"\bCheckpointCache\b\s*(?:[>({]|\w+\s*[({;=,)])")


def check_one_checkpoint_cache() -> None:
    for path in glob_files(["src/**/*.cpp", "src/**/*.hpp"]):
        if path.relative_to(ROOT).parts in CACHE_HOMES:
            continue
        raw = path.read_text().splitlines()
        code = strip_comments_and_strings(path.read_text()).splitlines()
        for no, (raw_line, code_line) in enumerate(zip(raw, code), start=1):
            m = CACHE_CONSTRUCT.search(code_line)
            if m and not allowed(raw_line, "one-checkpoint-cache"):
                fail(path, no, "one-checkpoint-cache",
                     f"'{m.group(0).strip()}' outside "
                     "src/core/top_alignment_finder.cpp: every worker shares "
                     "the scheduler's one checkpoint cache")


JOB_HOMES = {("src", "core", "group_sweep.hpp"),
             ("src", "core", "group_sweep.cpp"),
             ("src", "core", "old_finder.cpp")}
JOB_CONSTRUCT = re.compile(r"\bGroupJob\b\s*(?:[>({]|\w+\s*[({;=,)])")


def check_one_group_sweep() -> None:
    for path in glob_files(["src/**/*.cpp", "src/**/*.hpp"]):
        rel = path.relative_to(ROOT).parts
        if rel in JOB_HOMES or rel[:2] == ("src", "align"):
            continue
        raw = path.read_text().splitlines()
        code = strip_comments_and_strings(path.read_text()).splitlines()
        for no, (raw_line, code_line) in enumerate(zip(raw, code), start=1):
            m = JOB_CONSTRUCT.search(code_line)
            if m and not allowed(raw_line, "one-group-sweep"):
                fail(path, no, "one-group-sweep",
                     f"'{m.group(0).strip()}' outside the sweep component: "
                     "sweep groups with core::GroupSweep and build jobs "
                     "with core::group_job")


def check_nolint_reasons() -> None:
    for path in glob_files(CXX_GLOBS):
        for no, line in enumerate(path.read_text().splitlines(), start=1):
            if NOLINT_ANY.search(line) and not NOLINT_OK.search(line):
                fail(path, no, "nolint-reason",
                     "NOLINT without '(<check>): <reason>' — name the check "
                     "and justify the suppression")


def check_shell_hygiene() -> None:
    for path in glob_files(["tools/**/*.sh", "bench/**/*.sh"]):
        lines = path.read_text().splitlines()
        if not lines or not re.match(r"#!/(usr/bin/env bash|bin/bash)", lines[0]):
            fail(path, 1, "shell-hygiene", "missing bash shebang")
        if not any("set -euo pipefail" in l for l in lines[:20]):
            fail(path, 1, "shell-hygiene",
                 "missing 'set -euo pipefail' in the first 20 lines")


def check_format_fallback() -> None:
    for path in glob_files(FORMAT_GLOBS):
        data = path.read_text()
        if data and not data.endswith("\n"):
            fail(path, data.count("\n") + 1, "format-fallback",
                 "missing final newline")
        for no, line in enumerate(data.splitlines(), start=1):
            if line.endswith("\r"):
                fail(path, no, "format-fallback", "CR line ending")
                break
            if re.search(r"[ \t]+$", line):
                fail(path, no, "format-fallback", "trailing whitespace")
            if "\t" in line and path.suffix in {".cpp", ".hpp", ".py"}:
                fail(path, no, "format-fallback", "tab character")


def main() -> int:
    check_kernel_locks()
    check_engine_coverage()
    check_one_engine_table()
    check_one_lane_ops()
    check_raw_new_delete()
    check_metrics_naming()
    check_one_search_core()
    check_one_checkpoint_cache()
    check_one_group_sweep()
    check_nolint_reasons()
    check_shell_hygiene()
    check_format_fallback()
    if errors:
        for e in errors:
            print(e)
        print(f"repro_lint: {len(errors)} violation(s)", file=sys.stderr)
        return 1
    print("repro_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
