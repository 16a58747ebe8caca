#!/usr/bin/env python3
"""Census of the bounded tight spectrum of a fixture graph.

Enumerates idempotents, semifinite paths, and ultrafilters within bounds,
reports how traces separate paths, and spot-checks the trace/reconstruction
round trip.  Exits 1 if two paths share a trace or a reconstruction fails.
"""

import argparse
import sys
from functools import partial

from sepgroid import cli, filters as fl, lattice as lt
from sepgroid import load_fixture
from sepgroid.filters import INF, PerTail
from sepgroid.lattice import Bounds


def census(args: argparse.Namespace) -> int:
    """Print the census; returns the number of trace collisions plus the
    number of failed reconstructions."""
    g = load_fixture(f"{args.fixture}.sg")
    describe = partial(cli.format_path, g)
    idems = list(
        lt.enumerate_idempotents(g, Bounds(args.max_depth, args.max_exp, args.max_len))
    )
    path_bounds = Bounds(args.max_depth, max_exp=2, max_len=2)
    paths = []
    for v in sorted(g.vertex_prime):
        paths.extend(fl.enumerate_semifinite(g, v, path_bounds))
    ultra = [mu for mu in paths if fl.is_ultrafilter(g, mu)]
    print(f"{args.fixture}: {len(idems)} idempotents within bounds")
    print(f"{args.fixture}: {len(paths)} semifinite paths, {len(ultra)} ultrafilters")

    traces = {}
    collisions = 0
    for mu in paths:
        tr = frozenset(
            i for i, e in enumerate(idems) if fl.filter_contains(g, mu, e)
        )
        if tr in traces:
            collisions += 1
            print(f"  trace collision: {describe(mu)} vs {describe(traces[tr])}")
        traces[tr] = mu
    print(f"trace collisions: {collisions}")

    reconstructed = failures = 0
    for tr, mu in traces.items():
        if isinstance(mu.tail, PerTail) or INF in mu.tail:
            continue  # infinite in some direction: no finite family
        got = fl.reconstruct_path(g, [idems[i] for i in tr])
        reconstructed += 1
        if got != mu:
            failures += 1
            print(f"  reconstruction failure: {describe(mu)} -> {describe(got)}")
    print(f"reconstructions: {reconstructed}, failures: {failures}")

    print("sample ultrafilters:")
    for mu in ultra[:8]:
        print(f"  {describe(mu)}")
    return collisions + failures


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("fixture", nargs="?", default="g3")
    ap.add_argument("--max-depth", type=int, default=2)
    ap.add_argument("--max-exp", type=int, default=3)
    ap.add_argument("--max-len", type=int, default=4)
    return 1 if census(ap.parse_args()) else 0


if __name__ == "__main__":
    sys.exit(main())
