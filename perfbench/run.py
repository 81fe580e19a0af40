#!/usr/bin/env python3
"""Build and run the host-clock benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload serve_sls --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

The first form builds perfbench (library sources from src/, build tree in
.bench_build/) and runs one workload; the last line of standard output is
the result JSON. --smoke runs every workload of BENCHMARK.json briefly,
traced and untraced, checks that every metric is reported with its unit
and that the op counts are present, and exits nonzero on any failed check.
See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build"
BINARY = BUILD_DIR / "perfbench"
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure once, then build incrementally; output goes to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"library sources not found under {ROOT / 'src'}")
        return False
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target",
                  "perfbench", "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return False
    return BINARY.is_file()


def run_workload(workload, seed, seconds, trace, capture=False):
    """Run one workload; returns (exit code, stdout text or None)."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", str(BUILD_DIR / "run"),
           "--bench-dir", str(BENCH_DIR)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE if capture else None,
                              text=True)
    except subprocess.TimeoutExpired:
        log(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1, None
    return proc.returncode, proc.stdout if capture else None


def check_result(spec, workload, trace, stdout):
    """Problems with one run's result line, as a list of strings."""
    lines = [line for line in (stdout or "").splitlines() if line.strip()]
    if not lines:
        return ["no output"]
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as e:
        return [f"last line is not JSON: {e}"]
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"unexpected keys {sorted(result)}")
        return problems
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            problems.append(f"{key} is not a whole number")
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("attempted < 1")
    if result["correct"] is not True or result["failed"] != 0:
        problems.append(f"correctness checks failed: {result['failed']} "
                        f"of {result['attempted']} ops")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = result["metrics"]
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None:
            problems.append(f"metric {m['name']} missing")
        elif got.get("unit") != m["unit"]:
            problems.append(f"metric {m['name']} has unit {got.get('unit')}, "
                            f"expected {m['unit']}")
        elif not isinstance(got.get("value"), (int, float)):
            problems.append(f"metric {m['name']} has no numeric value")
    extra = set(metrics) - {m["name"] for m in wanted}
    if extra:
        problems.append(f"metrics not in BENCHMARK.json: {sorted(extra)}")
    return [f"{workload} trace={trace}: {p}" for p in problems]


def smoke(seconds):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            log(f"smoke: {w['name']} trace={trace}")
            code, out = run_workload(w["name"], 1, seconds, trace,
                                     capture=True)
            if code != 0:
                problems.append(f"{w['name']} trace={trace}: exit code {code}")
                continue
            problems += check_result(spec, w["name"], trace, out)
    for p in problems:
        log("SMOKE FAILED: " + p)
    log("smoke: " + ("FAILED" if problems else "all workloads OK"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload briefly and check the output")
    args = ap.parse_args()
    if not args.smoke and not args.workload:
        ap.error("--workload is required (or --smoke)")

    if not build():
        return 2
    if args.smoke:
        return smoke(args.seconds if args.seconds is not None else 2)
    seconds = args.seconds if args.seconds is not None else 10
    code, _ = run_workload(args.workload, args.seed, seconds, args.trace)
    return code


if __name__ == "__main__":
    sys.exit(main())
