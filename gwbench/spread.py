#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 gwbench/spread.py [--workloads a,b] [--seeds 1-10] [--trace 0|1]

Runs the command in BENCHMARK.json from the repository root once per
(workload, seed), reads the summary line each run prints last, and prints
per metric the median, the quartile spread (Q3 - Q1) / median as
statistics.quantiles(values, n=4) gives it, and the metric's bound, with
'!' where the spread exceeds a third of the bound.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0")
    ap.add_argument("-v", action="store_true", help="print every value")
    args = ap.parse_args()
    metrics = bench["end_to_end"] if args.trace == "0" else bench["per_layer"]
    ok = True
    for workload in args.workloads.split(","):
        values, walls = {}, []
        for seed in seeds(args.seeds):
            cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", args.trace]
            t = time.monotonic()
            run = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            walls.append(time.monotonic() - t)
            summary = json.loads(run.stdout.strip().splitlines()[-1])
            if run.returncode != 0 or not summary["correct"]:
                ok = False
                print(f"{workload} seed {seed}: exit {run.returncode}\n{run.stderr[-2000:]}")
            for name, m in summary["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"{workload}: {len(walls)} runs, wall per run median {statistics.median(walls):.1f} s, "
              f"max {max(walls):.1f} s")
        for m in metrics:
            v = values[m["name"]]
            med = statistics.median(v)
            if len(v) >= 2 and med:
                q = statistics.quantiles(v, n=4)
                spread = (q[2] - q[0]) / abs(med)
            else:
                spread = float("nan")
            bound = m.get("bound")
            flag = "!" if bound is not None and not spread <= bound / 3 else " "
            print(f"  {flag} {m['name']:<30} median {med:<12.6g} spread {spread:7.4f}"
                  + (f"  bound {bound}" if bound is not None else ""))
            if args.v:
                print("      " + " ".join(f"{x:.6g}" for x in v))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
