#!/usr/bin/env python3
"""Layered benchmark of hyco: builds the program from source, then runs one
workload and prints its metrics as one JSON line (the last line of stdout).

    python3 perfbench/run.py --workload svc-saturated --seed 1 --seconds 12 --trace 0

Run from the repository root. --trace 0 reports the end-to-end metrics
(setup_s and peak_rss_mb come from several fresh processes that each run
the workload's fixed reference unit cold); --trace 1
reports the per-layer metrics, cost model and tracing overhead, and writes
the pass's spans to .perfbench-out/. The exit code is non-zero when the
build or the self-tests fail, or when any run breaks safety. Metric and
workload definitions: perfbench/README.md.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("svc-saturated", "svc-paced", "consensus-grid", "consensus-faulty")
SETUP_SPAWNS = 7
BUILD_TIMEOUT_S = 850
SETUP_TIMEOUT_S = 20
MEASURE_TIMEOUT_S = 150


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(out):
    """Configures and builds the benchmark; returns the binary dir."""
    cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd += ["-G", "Ninja"]
    subprocess.run(cmd, check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", out, "-j", jobs], check=True,
                   stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    subprocess.run([os.path.join(out, "perfbench-selftest")], check=True,
                   timeout=SETUP_TIMEOUT_S)
    return out


def setup_metrics(binary, workload, seed):
    """Medians over fresh processes that build the workload's inputs and run
    its fixed reference unit cold: set-up time (rescaled to the reference
    host speed) and peak RSS."""
    setup, rss = [], []
    for _ in range(SETUP_SPAWNS):
        out = subprocess.run([binary, "setup", "--workload", workload, "--seed", str(seed)],
                             check=True, stdout=subprocess.PIPE, text=True,
                             timeout=SETUP_TIMEOUT_S).stdout
        row = json.loads(out.strip().splitlines()[-1])
        setup.append(row["setup_s"])
        rss.append(row["peak_rss_mb"])
    return {"setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(rss), "unit": "MB"}}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    try:
        binary = os.path.join(build(build_dir()), "hyco-perfbench")
        setup = {}
        if args.trace == 0:
            setup = setup_metrics(binary, args.workload, args.seed)
        cmd = [binary, "measure", "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.trace == 1:
            spans_dir = os.path.join(ROOT, ".perfbench-out")
            os.makedirs(spans_dir, exist_ok=True)
            cmd += ["--spans", os.path.join(
                spans_dir, "spans-%s-seed%d.jsonl" % (args.workload, args.seed))]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=MEASURE_TIMEOUT_S)
    except (subprocess.SubprocessError, OSError) as e:
        log("perfbench:", e)
        return 1

    lines = proc.stdout.strip().splitlines()
    if not lines:
        log("perfbench: measuring process printed no result (exit %d)" % proc.returncode)
        return 1
    result = json.loads(lines[-1])
    result["metrics"].update(setup)
    print(json.dumps(result), flush=True)
    if proc.returncode != 0 or not result["correct"]:
        log("perfbench: correctness check failed (exit %d)" % proc.returncode)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
