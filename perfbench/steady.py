#!/usr/bin/env python3
"""Steadiness report: run one workload k times and summarise each metric.

Usage, from the root of a checkout:

    python3 perfbench/steady.py --workload W [--runs K] [--first-seed N]
        [--held-out] [--seconds S] [--trace 0|1] [--out FILE]
    python3 perfbench/steady.py --compare FIRST.json SECOND.json

Each run is `perfbench/run.py --workload W --seed <seed> ...` with
seeds first-seed .. first-seed+K-1 (--held-out: the held-out seeds
HELD_OUT_SEEDS, kept for checking later claims on inputs no change was
tuned on).  Prints, per metric, the median, the quartiles
(statistics.quantiles(values, n=4)), min and max, and the spread
(Q3 - Q1) / median.  Flags every end-to-end metric whose spread
exceeds its bound in BENCHMARK.json (and, as a warning, a third of it),
and every pair of metrics whose value series are identical (a metric
copying another).  Exits 1 when any run fails or a flag is raised.

--compare reads two reports written with --out for the same workload
and flags every end-to-end metric whose medians differ by more than
its bound, as a share of the first median.
"""

import argparse
import json
import statistics
import subprocess
import sys

HELD_OUT_SEEDS = list(range(9001, 9011))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        raise RuntimeError(f"seed {seed}: incorrect or failed operations: {lines[-1]}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def summarise(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    spread = (q3 - q1) / med if med else float("inf")
    return {"median": med, "q1": q1, "q3": q3, "min": min(values), "max": max(values),
            "spread": spread}


def compare(first_path, second_path, bounds):
    with open(first_path) as f:
        first = json.load(f)
    with open(second_path) as f:
        second = json.load(f)
    print(f"{first['workload']}: seeds {first['seeds'][0]}..{first['seeds'][-1]} vs "
          f"{second['seeds'][0]}..{second['seeds'][-1]}")
    print(f"{'metric':30} {'median 1':>12} {'median 2':>12} {'change':>8} {'bound':>6}")
    flags = []
    for name, bound in bounds.items():
        if name not in first["metrics"] or name not in second["metrics"]:
            flags.append(f"{name}: missing from a report")
            continue
        m1 = first["metrics"][name]["median"]
        m2 = second["metrics"][name]["median"]
        change = (m2 - m1) / m1
        mark = "  OVER BOUND" if abs(change) > bound else ""
        if mark:
            flags.append(f"{name}: medians {m1:.6g} and {m2:.6g} differ by {change:+.3f}, "
                         f"bound {bound}")
        print(f"{name:30} {m1:12.6g} {m2:12.6g} {change:+8.3f} {bound:>6}{mark}")
    for f in flags:
        print("FLAG: " + f)
    return 1 if flags else 0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    ap.add_argument("--workload")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--held-out", action="store_true")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    if args.compare:
        return compare(*args.compare, bounds)
    if not args.workload:
        ap.error("--workload is required")
    seeds = HELD_OUT_SEEDS[:args.runs] if args.held_out else \
        list(range(args.first_seed, args.first_seed + args.runs))
    series = {}
    for seed in seeds:
        metrics = run_once(args.workload, seed, seconds, args.trace)
        print(f"seed {seed}: " + "  ".join(f"{k}={v:.6g}" for k, v in metrics.items()),
              flush=True)
        for k, v in metrics.items():
            series.setdefault(k, []).append(v)
    flags = []
    report = {}
    print(f"\n{args.workload}, {len(seeds)} runs, seeds {seeds[0]}..{seeds[-1]}, "
          f"{seconds} s each")
    print(f"{'metric':30} {'median':>12} {'q1':>12} {'q3':>12} {'min':>12} {'max':>12}"
          f" {'spread':>8} {'bound':>6}")
    for name, values in series.items():
        s = summarise(values)
        report[name] = dict(s, values=values)
        bound = bounds.get(name)
        mark = ""
        if bound is not None and args.trace == 0:
            if s["spread"] > bound:
                mark = "  OVER BOUND"
                flags.append(f"{name}: spread {s['spread']:.3f} > bound {bound}")
            elif s["spread"] > bound / 3:
                mark = "  over a third of the bound"
        print(f"{name:30} {s['median']:12.6g} {s['q1']:12.6g} {s['q3']:12.6g} "
              f"{s['min']:12.6g} {s['max']:12.6g} {s['spread']:8.4f} "
              f"{bound if bound is not None else '':>6}{mark}")
    names = [n for n, v in series.items() if any(x != 0 for x in v)]
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            if series[a] == series[b]:
                flags.append(f"{a} and {b} are identical series")
    for f in flags:
        print("FLAG: " + f)
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"workload": args.workload, "seconds": seconds, "trace": args.trace,
                       "seeds": seeds, "metrics": report, "flags": flags}, f, indent=1)
            f.write("\n")
    return 1 if flags else 0


if __name__ == "__main__":
    sys.exit(main())
