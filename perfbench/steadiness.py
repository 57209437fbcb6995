#!/usr/bin/env python3
"""Run-to-run spread of the benchmark: runs perfbench/run.py once per seed on
each named workload and prints, per metric, the median and the distance
between the first and third quartile as a share of the median, beside the
metric's bound from BENCHMARK.json (spreads should stay under a third of it).

    python3 perfbench/steadiness.py --workloads svc-paced --seeds 1-5 [--trace 0]

Run from the repository root. Raw per-run results are appended as JSON lines
to --out (default .perfbench-out/steadiness.jsonl).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def spread(values):
    """IQR over median, with the quartiles statistics.quantiles gives."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--out", default=os.path.join(ROOT, ".perfbench-out", "steadiness.jsonl"))
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    os.makedirs(os.path.dirname(args.out), exist_ok=True)

    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                  text=True, cwd=ROOT)
            if proc.returncode != 0:
                print("%s seed %d: exit %d" % (workload, seed, proc.returncode))
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append(result)
            with open(args.out, "a") as f:
                f.write(json.dumps({"workload": workload, "seed": seed,
                                    "trace": args.trace, "result": result}) + "\n")
        if len(runs) < 2:
            continue
        print("%s (%d runs)" % (workload, len(runs)))
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            if statistics.median(values) == 0:
                print("  %-36s median 0" % name)
                continue
            med, rel = spread(values)
            bound = bounds.get(name)
            flag = "" if bound is None or rel < bound / 3 else "  <-- over a third of the bound"
            print("  %-36s median %-14.6g spread %.4f%s%s" % (
                name, med, rel, "" if bound is None else "  bound %.2f" % bound, flag))


if __name__ == "__main__":
    main()
