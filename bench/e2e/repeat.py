#!/usr/bin/env python3
"""Checks that two sets of runs of the same code agree within the bounds.

Usage, from the root of the repository:

    python3 bench/e2e/repeat.py --runs 5

Runs every workload N times in each of two sets (run i of both sets uses
seed base+i; the workload order alternates between forward and reversed
from run to run). For every (metric, workload) pair of BENCHMARK.json's
end-to-end metrics it prints each set's median and quartiles, each set's
spread (quartile distance over median) and the gap between the two
medians in the metric's worse direction, against the metric's bound.
The figures a run prints but does not gate follow in a second table.

Exits nonzero when a run fails, when the second set's median is worse
than the first's by more than the bound, or when a set's spread exceeds
the bound (setup_s is exempt from the spread check).
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(workload, seed, seconds):
    """Every `name value unit` line of one run, gated or not."""
    cmd = [sys.executable, "bench/e2e/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        raise RuntimeError(f"{workload} seed {seed}: failed checks")
    values = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 3 and not line.startswith("#"):
            try:
                values[parts[0]] = float(parts[1])
            except ValueError:
                pass
    values.update({k: v["value"] for k, v in result["metrics"].items()})
    return values


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=5, help="runs per set")
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None,
                    help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--workloads", nargs="*", default=None)
    args = ap.parse_args()
    if args.runs < 2:
        ap.error("--runs must be at least 2")

    spec = json.loads(Path("BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]
    gated = [m["name"] for m in metrics]

    # results[set][workload] = list of metric dicts
    results = [{w: [] for w in workloads} for _ in range(2)]
    for s in range(2):
        for i in range(args.runs):
            order = workloads if i % 2 == 0 else list(reversed(workloads))
            for w in order:
                m = run_once(w, args.seed_base + i, seconds)
                results[s][w].append(m)
                print(f"set {s + 1} run {i + 1} {w}: " +
                      " ".join(f"{k} {m[k]:.6g}" for k in gated),
                      file=sys.stderr, flush=True)

    bad = 0
    hdr = (f"{'metric':<18} {'workload':<15} {'set1 med':>11} {'q1':>11} "
           f"{'q3':>11} {'spr1':>6} {'set2 med':>11} {'q1':>11} {'q3':>11} "
           f"{'spr2':>6} {'gap':>7} {'bound':>5}  verdict")
    print(hdr)
    for m in metrics:
        name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
        for w in workloads:
            s1 = summary([r[name] for r in results[0][w]])
            s2 = summary([r[name] for r in results[1][w]])
            worse = (s2[0] - s1[0]) if lower else (s1[0] - s2[0])
            gap = worse / s1[0] if s1[0] else 0.0
            problems = []
            if gap > bound:
                problems.append("gap")
            if name != "setup_s" and max(s1[3], s2[3]) > bound:
                problems.append("spread")
            bad += bool(problems)
            print(f"{name:<18} {w:<15} {s1[0]:>11.5g} {s1[1]:>11.5g} "
                  f"{s1[2]:>11.5g} {s1[3]:>6.3f} {s2[0]:>11.5g} {s2[1]:>11.5g} "
                  f"{s2[2]:>11.5g} {s2[3]:>6.3f} {gap:>+7.3f} {bound:>5.2f}  "
                  f"{'FAIL ' + ','.join(problems) if problems else 'ok'}")
    print(f"{bad} (metric, workload) pairs outside their bound")

    shown = [k for k in results[0][workloads[0]][0] if k not in gated]
    print(f"\nnot gated: {'metric':<18} {'workload':<15} {'set1 med':>11} "
          f"{'spr1':>6} {'set2 med':>11} {'spr2':>6}")
    for name in shown:
        for w in workloads:
            s1 = summary([r[name] for r in results[0][w]])
            s2 = summary([r[name] for r in results[1][w]])
            print(f"           {name:<18} {w:<15} {s1[0]:>11.5g} {s1[3]:>6.3f} "
                  f"{s2[0]:>11.5g} {s2[3]:>6.3f}")
    return 1 if bad else 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except RuntimeError as e:
        print(f"repeat.py: {e}", file=sys.stderr)
        sys.exit(1)
