#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics.

Runs the command in BENCHMARK.json once per seed for each workload and
prints, per metric, the median, the quartiles (statistics.quantiles with
n=4) and the interquartile range as a share of the median, next to the
metric's bound. Run it from the repository root:

    python3 e2ebench/spread.py --seeds 1-10 [--workload serve-mixed] [--trace 0]
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--workload", action="append")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--raw", action="store_true", help="also print every run's value")
    args = ap.parse_args()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    table = bench["end_to_end"] if args.trace == "0" else bench["per_layer"]
    ok = True
    for w in workloads:
        values = {m["name"]: [] for m in table}
        walls = []
        host = ""
        for seed in args.seeds:
            t0 = time.time()
            out = subprocess.run(
                bench["command"]
                + ["--workload", w, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", args.trace],
                capture_output=True, text=True, check=True,
            ).stdout.strip().splitlines()
            walls.append(time.time() - t0)
            host = next((l[len("# host "):] for l in out if l.startswith("# host ")), host)
            res = json.loads(out[-1])
            if not res["correct"] or res["failed"]:
                ok = False
                print(f"{w} seed {seed}: correct={res['correct']} failed={res['failed']}")
            for name in values:
                values[name].append(res["metrics"][name]["value"])
        print(f"\n{w}: seeds {args.seeds[0]}-{args.seeds[-1]}, host {host}, "
              f"wall per run {min(walls):.1f}-{max(walls):.1f} s")
        print(f"  {'metric':28} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        for m in table:
            v = values[m["name"]]
            q1, med, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0],) * 3
            spread = (q3 - q1) / med if med else 0.0
            bound = m.get("bound", "")
            flag = " !" if bound and spread > bound / 3 else ""
            print(f"  {m['name']:28} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f} {bound!s:>6}{flag}")
            if args.raw:
                print("      " + " ".join(f"{x:.6g}" for x in v))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
