"""The sepgroid benchmark: seeded workloads run as a closed loop.

    python3 perfbench/run.py --workload words --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15
    python3 perfbench/run.py --workload cylinders --seed 1 --graph

One client, one process, one thread: each operation starts when the
previous one has finished and been checked.  With `--trace 0` the
end-to-end metrics are measured over `--seconds` seconds of operation time.
With `--trace 1` a fixed number of operations per workload runs twice, once
untraced and once under the per-layer tracer, and the per-layer metrics are
reported together with the ratio of the two times.  The last line of
standard output is a JSON object with `correct`, `attempted`, `failed` and
`metrics`.  `--graph` prints the workload's graph for the seed and exits.

The benchmark imports sepgroid from `src/` and the rewriting oracle from
`tests/` of the checkout it lives in, and exits with a nonzero status,
printing no result, if either is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import traceback
from array import array
from time import perf_counter

import gen

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
TESTS = os.path.join(ROOT, "tests")
OUT = os.path.join(ROOT, ".perfbench")

NAMES = ("words", "cylinders", "equidecompose", "germs")
SETUP_REPS = 9
# p99.9 is left off the ladder: on a small shared machine it measured
# millisecond stalls of the machine rather than slow operations (the slowest
# operations of two passes over the same inputs were different ones).
TAIL_LADDER = (99.0, 90.0, 50.0)
# Keep a run well inside the 180 s a run may take, whatever the checks cost.
WALL_CAP_S = 150.0
# Operation time run and checked before the measured loop, so that lazy
# set-up in the program and the interpreter's caches are warm.
WARMUP_S = 1.0
# A shared machine has slow phases, from a fraction of a second to several
# seconds, in which the same operations take up to three times as long.  The
# benchmark therefore times a fixed reference kernel of its own
# (`reference_kernel`) next to the program and reports every timing in
# reference milliseconds: the measured time times REF_MS over the kernel's
# time measured beside it.  In the measured loop the kernel runs once after
# every REF_EVERY_S seconds of operation time; an operation's kernel time is
# the median of the REF_NEAR runs before it and the REF_NEAR runs after it.
# The operations whose kernel time is among the slowest 1 - KEEP of the run
# are left out, and the rest are scaled by their kernel time.  Which
# operations are left out never depends on their own times.
REF_MS = 1.0
REF_EVERY_S = 0.025
REF_NEAR = 2
KEEP = 0.75


def tail_percentile(n: int) -> float:
    """The highest percentile of the ladder with at least ten of n samples
    beyond it."""
    for p in TAIL_LADDER:
        if n * (100.0 - p) / 100.0 >= 10:
            return p
    return 50.0


def percentile(sorted_xs: list[float], p: float) -> float:
    """Nearest-rank percentile of a sorted list."""
    k = max(0, min(len(sorted_xs) - 1, int(round(p / 100.0 * len(sorted_xs))) - 1))
    return sorted_xs[k]


def load_program():
    pkg = os.path.join(SRC, "sepgroid", "__init__.py")
    oracle = os.path.join(TESTS, "oracle.py")
    for path in (pkg, oracle):
        if not os.path.isfile(path):
            sys.exit(f"perfbench: {os.path.relpath(path, ROOT)} not found; "
                     "run from a checkout of the repository")
    sys.path[:0] = [SRC, TESTS]
    import workloads

    return workloads


class _Cell:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b


_TABLE = {k: k * 7 % 1009 for k in range(0, 8192 * 13, 13)}
_PROBES = random.Random(0).sample(sorted(_TABLE), 2048)


def reference_kernel() -> int:
    """A fixed mix of pure-Python work, about a millisecond: integer
    arithmetic, lookups in a table of a few hundred kilobytes, and short-lived
    small objects.  Everything it allocates dies at once, so it never sets
    off the garbage collector."""
    s = 0
    for i in range(4000):
        s += i * i % 7
    table = _TABLE
    for k in _PROBES:
        s += table[k]
    for i in range(1200):
        c = _Cell(i, (i, s & 255))
        s = (s + c.a + c.b[1]) % 1000003
    return s


def time_reference() -> float:
    t0 = perf_counter()
    reference_kernel()
    return perf_counter() - t0


def reference_times(k: int) -> list[float]:
    return [time_reference() for _ in range(k)]


class Runner:
    """One workload on the graphs made from the seed (`wl.graphs` of them);
    operation i runs on graph i mod `wl.graphs`, so that each run averages
    over several graphs."""

    def __init__(self, wl, seed: int):
        self.wl, self.seed = wl, seed
        self.specs = [wl.shape(f"{seed}-{k}") for k in range(wl.graphs)]
        self.texts = [spec.text() for spec in self.specs]
        self.attempted = self.failed = 0

    def setup(self) -> tuple[list, float, float]:
        """Set up every graph SETUP_REPS times; returns the last states,
        prepared, and the median time of one set-up of all graphs, in
        reference seconds and in seconds.  Each repetition is scaled by the
        median of the reference kernel's three runs before it and three
        after it."""
        times, refs = [], [reference_times(3)]
        for _ in range(SETUP_REPS):
            t0 = perf_counter()
            states = [self.wl.setup(sp, tx) for sp, tx in zip(self.specs, self.texts)]
            times.append(perf_counter() - t0)
            refs.append(reference_times(3))
        scaled = [
            t * REF_MS / 1000 / statistics.median(before + after)
            for t, before, after in zip(times, refs, refs[1:])
        ]
        for k, st in enumerate(states):
            self.wl.prepare(st, random.Random(f"{self.wl.name}/{self.seed}-{k}/prepare"))
        return states, statistics.median(scaled), statistics.median(times)

    def inputs(self, states):
        """(graph index, input) pairs, round robin over the graphs."""
        gens = [
            self.wl.inputs(st, random.Random(f"{self.wl.name}/{self.seed}-{k}/inputs"))
            for k, st in enumerate(states)
        ]
        while True:
            for k, g in enumerate(gens):
                yield k, next(g)

    def _fail(self, what: str):
        self.failed += 1
        if self.failed == 1:
            print(f"FAILED operation {self.attempted}: {what}", file=sys.stderr)

    def step(self, states, item, index, call):
        """One checked operation; returns its time.  `call` runs the
        operation and returns (output, seconds)."""
        k, inp = item
        st = states[k]
        self.attempted += 1
        try:
            out, dt = call(self.wl.run, st, inp)
        except Exception:  # noqa: BLE001 - a raising operation is a failed one
            self._fail(f"input {inp!r}\n{traceback.format_exc()}")
            return 0.0
        try:
            self.wl.check(st, inp, out, index)
        except Exception:  # noqa: BLE001 - any error in a check fails the operation
            self._fail(f"input {inp!r}\n{traceback.format_exc()}")
        return dt


def timed(fn, *args):
    t0 = perf_counter()
    out = fn(*args)
    return out, perf_counter() - t0


def run_plain(r: Runner, seconds: float) -> dict:
    states, setup_s, setup_raw = r.setup()
    items = r.inputs(states)
    seen = gen.SeenFilter(23)  # 1 MiB
    repeats = 0

    def op(index):
        nonlocal repeats
        item = next(items)
        repeats += seen.add(hash(item).to_bytes(8, "little", signed=True))
        return r.step(states, item, index, timed)

    wall0 = perf_counter()
    warm = 0.0
    while warm < WARMUP_S and perf_counter() - wall0 < WALL_CAP_S:
        warm += op(r.attempted)
    lat_raw = array("d")
    ref_at = array("l")  # kernel runs made before each operation
    refs = array("d")
    busy = since_ref = 0.0
    while busy < seconds and perf_counter() - wall0 < WALL_CAP_S:
        dt = op(r.attempted)
        lat_raw.append(dt)
        ref_at.append(len(refs))
        busy += dt
        since_ref += dt
        if since_ref >= REF_EVERY_S:
            refs.append(time_reference())
            since_ref = 0.0
    if not refs:
        refs.append(time_reference())
    near = [
        statistics.median(refs[max(0, min(j, len(refs) - 1) - REF_NEAR) : j + REF_NEAR])
        for j in ref_at
    ]
    cut = sorted(near)[max(0, int(len(near) * KEEP) - 1)]
    kept = [(x, k) for x, k in zip(lat_raw, near) if k <= cut]
    lat = sorted(x * REF_MS / 1000 / k for x, k in kept)
    n = len(lat)
    raw_kept = [x for x, _ in kept]
    tail_p = tail_percentile(n)
    print(f"operations: {len(lat_raw)} in {busy:.3f} s of operation time after "
          f"{warm:.3f} s of warm-up, {perf_counter() - wall0:.3f} s wall with checks")
    print(f"reference kernel: {len(refs)} runs, {1000 * min(refs):.4f} / "
          f"{1000 * statistics.median(refs):.4f} / {1000 * max(refs):.4f} ms "
          f"(min / median / max); kept operations at or below {1000 * cut:.4f} ms")
    print(f"kept {n} operations; in wall time {n / sum(raw_kept):.3f} ops/s, "
          f"p50 {1000 * statistics.median(raw_kept):.4f} ms (all operations "
          f"{len(lat_raw) / busy:.3f} ops/s); set-up {setup_raw:.6f} s")
    print(f"repeated inputs: {repeats / r.attempted:.3f} of operations")
    print(f"latency_tail_ms is p{tail_p:g} over {n} samples "
          f"({int(n * (100 - tail_p) / 100)} beyond it)")
    print(f"failed_share: {r.failed / max(r.attempted, 1):.6f} "
          f"({r.failed} of {r.attempted})")
    return {
        "throughput_ops_s": (n / sum(lat), "1/s"),
        "latency_p50_ms": (1000 * statistics.median(lat), "ms"),
        "latency_tail_ms": (1000 * percentile(lat, tail_p), "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def run_traced(r: Runner, name: str) -> dict:
    from layertrace import LayerTracer

    states, _, _ = r.setup()
    gen_items = r.inputs(states)
    items = [next(gen_items) for _ in range(r.wl.trace_ops)]
    base = sum(r.step(states, item, i, timed) for i, item in enumerate(items))
    tracer = LayerTracer(os.path.join(SRC, "sepgroid"))
    states, _, _ = r.setup()
    for i, item in enumerate(items):
        r.step(states, item, i, tracer.run)
    metrics = tracer.metrics()
    metrics["trace_overhead"] = (tracer.op_time / base, "ratio")
    path = os.path.join(OUT, f"spans-{name}-seed{r.seed}.json")
    tracer.dump(path, {"workload": name, "seed": r.seed, "ops": len(items)})
    print(f"traced {len(items)} operations: {base:.3f} s untraced, "
          f"{tracer.op_time:.3f} s traced; spans in {os.path.relpath(path, ROOT)}")
    top = sorted(tracer.entry_self_s.items(), key=lambda kv: -kv[1])[:8]
    print("self time by layer entry: " + ", ".join(
        f"{k} {v / tracer.op_time:.1%}" for k, v in top))
    return metrics


def run_one(args) -> int:
    workloads = load_program()
    wl = workloads.WORKLOADS[args.workload]
    r = Runner(wl, args.seed)
    if args.graph:
        sys.stdout.write("\n".join(r.texts))
        return 0
    print(f"workload {wl.name}, seed {args.seed}; graph texts: "
          f"run.py --workload {wl.name} --seed {args.seed} --graph")
    for spec, text in zip(r.specs, r.texts):
        digest = hashlib.sha256(text.encode()).hexdigest()[:12]
        print(f"  graph {spec.name}: "
              + ", ".join(f"{v} {k}" for k, v in spec.sizes().items())
              + f"; sha256 {digest}")
    if args.trace:
        metrics = run_traced(r, wl.name)
    else:
        metrics = run_plain(r, args.seconds)
    for k, (v, unit) in metrics.items():
        print(f"  {k:36s} {v:14.6f} {unit}")
    print(json.dumps({
        "correct": r.failed == 0,
        "attempted": r.attempted,
        "failed": r.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Run every workload in its own process and print one row each."""
    rows = {}
    for name in NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=200)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        rows[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    units = {k: v["unit"] for k, v in rows[NAMES[0]]["metrics"].items()}
    if not args.trace:
        units["failed_share"] = "ratio"
    print()
    print(f"{'metric':36s} {'unit':6s}" + "".join(f"{n:>15s}" for n in rows))
    for m, unit in units.items():
        vals = []
        for res in rows.values():
            v = (res["failed"] / res["attempted"] if m == "failed_share"
                 else res["metrics"][m]["value"])
            vals.append(f"{v:15.6g}")
        print(f"{m:36s} {unit:6s}" + "".join(vals))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--graph", action="store_true",
                    help="print the workload's graphs for the seed and exit")
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
