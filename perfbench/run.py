#!/usr/bin/env python3
"""End-to-end benchmark of the default `reprofind find` path.

Run from the root of a checkout:

    python3 perfbench/run.py --workload titin_seq --seed 1 --seconds 22 --trace 0

Steps, each in its own process:
  1. build perfbench/ (which compiles reprolib from this checkout) into
     $CARGO_TARGET_DIR, or .bench_build when that is unset;
  2. generate the workload's inputs from --seed (perfbench_find gen);
  3. compute the reference tops, outside any timing (perfbench_find ref;
     cached per input and binary);
  4. measure (perfbench_find run), checking every call's tops.

Human-readable tables go to stdout first; the last stdout line is the result
JSON: with --trace 0 the end_to_end metrics of BENCHMARK.json, with --trace 1
its per_layer metrics, plus a Chrome trace-event file that chrome://tracing or
Perfetto opens. Counters of the sequential workloads are stored per seed,
binary and host fingerprint, and must repeat exactly on every later run with
the same three. Exits non-zero when any call fails, a counter drifts, or the
build or a step fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BINARY = "perfbench_find"
# A later run's build is incremental; the first one compiles reprolib.
BUILD_TIMEOUT_S = 700
STEP_BUDGET_S = 170


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(out_dir):
    """Configures (once) and builds the benchmark binary; returns its path."""
    cmake_dir = os.path.join(out_dir, "perfbench")
    logfile = os.path.join(out_dir, "perfbench-build.log")
    os.makedirs(cmake_dir, exist_ok=True)
    steps = []
    if not any(os.path.exists(os.path.join(cmake_dir, f))
               for f in ("build.ninja", "Makefile")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", cmake_dir, *gen,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", cmake_dir, "--target", BINARY,
                  "-j", jobs])
    with open(logfile, "w") as out:
        for cmd in steps:
            rc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                                timeout=BUILD_TIMEOUT_S).returncode
            if rc != 0:
                out.flush()
                with open(logfile) as f:
                    sys.stderr.write(f.read()[-4000:])
                log(f"build failed: {' '.join(cmd)}")
                sys.exit(1)
    return os.path.join(cmake_dir, BINARY)


def sha16(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()[:16]


class Steps:
    """Runs the benchmark's subprocesses under one overall deadline."""

    def __init__(self, binary):
        self.binary = binary
        self.deadline = time.monotonic() + STEP_BUDGET_S

    def run(self, *args):
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            log("out of time")
            sys.exit(1)
        proc = subprocess.run([self.binary, *args], stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True, timeout=timeout)
        return proc.returncode, proc.stdout


def check_counters(work, workload, seed, binhash, fingerprint, counters):
    """Compares a sequential run's counters with the stored ones, if any.

    Only runs of the same binary on the same host and config are compared;
    a different ISA resolves to a different engine and lane count.
    """
    config = hashlib.sha256(json.dumps(fingerprint, sort_keys=True).encode())
    path = os.path.join(work, "counters", f"{workload}-{seed}-{binhash}-"
                        f"{config.hexdigest()[:16]}.json")
    record = {"fingerprint": fingerprint, "counters": counters}
    if os.path.exists(path):
        with open(path) as f:
            stored = json.load(f)["counters"]
        if stored != counters:
            log(f"counters differ from the earlier run with seed {seed}: "
                f"{stored} != {counters}")
            return False
        return True
    with open(path, "w") as f:
        json.dump(record, f)
    return True


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=names)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    out_dir = build_dir()
    binary = build(out_dir)
    binhash = sha16(binary)
    steps = Steps(binary)
    work = os.path.join(out_dir, "perfbench-work")
    for sub in ("inputs", "refs", "traces", "counters", "records"):
        os.makedirs(os.path.join(work, sub), exist_ok=True)

    fasta = os.path.join(work, "inputs", f"{a.workload}-{a.seed}.fa")
    rc, _ = steps.run("gen", "--workload", a.workload, "--seed", str(a.seed),
                      "--out", fasta)
    if rc != 0:
        sys.exit(1)
    ref = os.path.join(work, "refs",
                       f"{a.workload}-{sha16(fasta)}-{binhash}.ref")
    if not os.path.exists(ref):
        rc, out = steps.run("ref", "--workload", a.workload, "--fasta", fasta,
                            "--out", ref + ".tmp")
        if rc != 0:
            sys.exit(1)
        os.replace(ref + ".tmp", ref)
        log(out.strip())
    trace_path = os.path.join(work, "traces", f"{a.workload}-{a.seed}.json")
    rc, out = steps.run("run", "--workload", a.workload, "--fasta", fasta,
                        "--ref", ref, "--seconds", str(a.seconds),
                        "--trace", str(a.trace), "--trace-out", trace_path)
    lines = out.strip().splitlines()
    if not lines:
        log(f"measurement produced no result (exit {rc})")
        sys.exit(1)
    res = json.loads(lines[-1])
    record = os.path.join(work, "records",
                          f"{a.workload}-{a.seed}-trace{a.trace}.json")
    with open(record, "w") as f:
        f.write(lines[-1] + "\n")

    correct = rc == 0 and res["failed"] == 0 and res["counters_consistent"]
    for failure in res["failures"]:
        log(f"FAILED {failure}")
    if "counters" in res:
        correct = check_counters(work, a.workload, a.seed, binhash,
                                 res["fingerprint"],
                                 res["counters"]) and correct

    fp = res["fingerprint"]
    print(f"workload {a.workload}, seed {a.seed}: {res['inputs']} inputs of "
          f"{res['sequence_length']} residues, {fp['finder']} finder "
          f"x{fp['workers']}")
    print("host/config: " + ", ".join(f"{k}={v}" for k, v in fp.items()))
    e2e = res["end_to_end"]
    fail_frac = res["failed"] / res["attempted"]
    print(f"{'end-to-end metric':32} {'value':>16}  unit")
    for m in spec["end_to_end"]:
        print(f"{m['name']:32} {e2e[m['name']]:16.6g}  {m['unit']}")
    print(f"{'fail_frac':32} {fail_frac:16.6g}  frac "
          f"({res['failed']} of {res['attempted']} calls)")
    tail = res.get("find_s_tail")
    if tail:
        print(f"find_s p{tail['percentile']:.0f} = {tail['value']:.4f} s "
              f"({tail['samples']} samples, >= 10 beyond it)")
    else:
        print(f"find_s tail: n/a ({len(res['find_s_samples'])} samples; "
              "a tail needs 11 or more)")
    if "counters" in res:
        for k, c in enumerate(res["counters"]):
            print(f"counters[input {k}]: " +
                  ", ".join(f"{n}={v}" for n, v in c.items()))
    if "vs_sequential" in res:
        for n, s in res["vs_sequential"].items():
            print(f"{n} vs sequential run: min {s['min']:.4f}x, median "
                  f"{s['median']:.4f}x, max {s['max']:.4f}x")

    if a.trace:
        wanted, values = spec["per_layer"], res.get("per_layer", {})
        print(f"{'per-layer metric':36} {'value':>16}  unit")
        for m in wanted:
            name = m["name"]
            if name not in values:
                log(f"no value for {name}")
                correct = False
            shown = ("bypassed" if name in res["bypassed"]
                     else f"{values.get(name, 0):16.6g}")
            print(f"{name:36} {shown:>16}  {m['unit']}")
        print(f"trace file: {trace_path}")
        metrics = {m["name"]: {"value": values.get(m["name"], 0),
                               "unit": m["unit"]} for m in wanted}
    else:
        metrics = {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
