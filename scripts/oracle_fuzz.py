#!/usr/bin/env python3
"""Fuzz the normal-form engine against the independent rewriting oracle.

Samples random generator words on the bundled fixtures and checks that
parse_word agrees with the undirected pair-rewriting oracle, including
Zero outcomes.  Exits nonzero on the first mismatch.
"""

import argparse
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from conftest import alphabet, random_word  # noqa: E402
from oracle import ZERO, oracle_nf  # noqa: E402
from sepgroid import load_fixture, semigroup as sg  # noqa: E402


def fuzz(args: argparse.Namespace) -> int:
    mismatches = 0
    for name in args.fixtures:
        g = load_fixture(f"{name}.sg")
        toks = alphabet(g)
        rng = random.Random(args.seed)
        zeros = 0
        for i in range(args.words):
            w = random_word(rng, toks, args.max_len)
            e = sg.parse_word(g, w)
            nf = oracle_nf(g, w)
            if sg.is_zero(e):
                zeros += 1
                ok = nf == ZERO
            else:
                ok = nf == oracle_nf(g, sg.element_to_word(g, e))
            if not ok:
                mismatches += 1
                print(f"MISMATCH {name}: {w!r}")
                print(f"  library: {sg.element_to_word(g, e)!r}")
                print(f"  oracle:  {nf!r}")
        print(
            f"{name}: {args.words} words, {zeros} zero "
            f"({100 * zeros / args.words:.1f}%), {mismatches} mismatches"
        )
    return mismatches


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--words", type=int, default=20_000)
    ap.add_argument("--max-len", type=int, default=8)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--fixtures", nargs="*", default=["g1", "g2", "g3"])
    return 1 if fuzz(ap.parse_args()) else 0


if __name__ == "__main__":
    sys.exit(main())
