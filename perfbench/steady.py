#!/usr/bin/env python3
"""Steadiness report for the benchmark.

Runs one or more workloads once per seed with tracing off, then prints, for
every end-to-end metric, the median, the first and third quartiles
(statistics.quantiles(values, n=4)), and the spread (Q3 - Q1) / median next
to the metric's bound from BENCHMARK.json.

    python3 perfbench/steady.py --workloads lab-sweep,daemon-idle --seeds 1-10

Run from the repository root. --json writes every run's metrics to a file.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(bench, workload, seed, seconds):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", "0"]
    start = time.time()
    proc = subprocess.run(cmd, capture_output=True, text=True)
    took = time.time() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    res = json.loads(lines[-1])
    return res, took


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=0)
    ap.add_argument("--json", default="")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    workloads = [w for w in args.workloads.split(",") if w] or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    runs = {}
    for w in workloads:
        runs[w] = []
        for seed in parse_seeds(args.seeds):
            res, took = run_once(bench, w, seed, seconds)
            runs[w].append({"seed": seed, "took_s": took, **res})
            print(f"{w} seed {seed}: correct={res['correct']} attempted={res['attempted']} "
                  f"failed={res['failed']} ({took:.1f}s)", flush=True)
        print(f"\n{w}: {'metric':<18} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}  ok")
        for name, spec in bounds.items():
            vals = [r["metrics"][name]["value"] for r in runs[w]]
            med = statistics.median(vals)
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / med if med else float("inf")
            ok = "setup" if name == "setup_s" else ("yes" if spread < spec["bound"] / 3 else "NO")
            print(f"{w}: {name:<18} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.3f} {spec['bound']:>6}  {ok}")
        print(flush=True)
    if args.json:
        with open(args.json, "w") as f:
            json.dump(runs, f, indent=1)


if __name__ == "__main__":
    main()
