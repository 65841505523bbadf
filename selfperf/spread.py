#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics.

Runs `python3 selfperf/run.py` once per seed on each named workload and
prints, for every metric of the last JSON line, the median and the spread
(q3 - q1) / median, with q1 and q3 from statistics.quantiles(n=4) — the
spread the bounds in BENCHMARK.json are set against. Run from the root of a
checkout:

    python3 selfperf/spread.py --workloads fluid_lan,pkt_lan --seeds 1-10
    python3 selfperf/spread.py --workloads pkt_lan --seeds 1-5 --trace 1

A metric whose spread exceeds a third of its bound is flagged.
"""

import argparse
import json
import statistics
import subprocess
import sys


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, (q3 - q1) / q2 if q2 else 0.0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]
    worst = 0.0
    for workload in args.workloads.split(","):
        values = {}
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, "selfperf/run.py", "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                sys.exit(1)
            result = json.loads(lines[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect output")
                sys.exit(1)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                if k in bounds), flush=True)
        print(f"== {workload}")
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            med, sp = spread(vals)
            bound = bounds.get(name)
            flag = ""
            if bound is not None:
                worst = max(worst, sp / bound)
                flag = "  OVER a third of bound" if sp > bound / 3 else ""
            print(f"  {name:36s} median {med:.6g}  spread {sp:.4f}"
                  + (f"  bound {bound}" if bound is not None else "") + flag)
    print(f"worst spread / bound: {worst:.3f}")


if __name__ == "__main__":
    main()
