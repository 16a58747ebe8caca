"""Steadiness mode: repeat benchmark runs over consecutive seeds and report,
for each metric, the median, the quartiles and the spread (the distance
between the quartiles as a share of the median), next to the metric's bound
in BENCHMARK.json.

    python3 perfbench/steady.py --workloads words,germs --runs 10 --seconds 12
    python3 perfbench/steady.py --runs 5 --first-seed 101 --out .perfbench/a.json

Runs are sequential, one process at a time.  Exits with status 1 if any run
failed or reported an incorrect result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="write every value and summary as JSON here")
    args = ap.parse_args(argv)

    ok = True
    report = {}
    for name in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        walls = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=900)
            walls.append(time.perf_counter() - t0)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                ok = False
                continue
            res = json.loads(lines[-1])
            if not res["correct"] or res["failed"]:
                print(f"{name} seed {seed}: {res['failed']} of {res['attempted']} failed")
                ok = False
            for k, v in res["metrics"].items():
                values.setdefault(k, []).append(v["value"])
        report[name] = {k: summarize(v) for k, v in values.items() if len(v) >= 2}
        print(f"\n{name}: {args.runs} runs, seeds {args.first_seed}.."
              f"{args.first_seed + args.runs - 1}, {args.seconds} s, trace {args.trace}; "
              f"wall per run {statistics.median(walls):.1f} s median, {max(walls):.1f} s max")
        print(f"  {'metric':36s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>8s} {'bound':>6s}")
        for k, s in report[name].items():
            b = bounds.get(k)
            print(f"  {k:36s} {s['median']:12.6g} {s['q1']:12.6g} {s['q3']:12.6g} "
                  f"{s['spread']:8.3f} {'' if b is None else b:>6}")
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
