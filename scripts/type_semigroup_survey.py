#!/usr/bin/env python3
"""Survey the type map on a fixture: monoid classes of bounded cylinders
and equidecomposition certificates realizing the equalities.

For every pair of cylinders in a bounded enumeration, decides monoid
equality of their types and, when equal, produces and verifies an explicit
partial-isomorphism certificate.
"""

import argparse
import sys

from sepgroid import lattice as lt, monoid as mn, semigroup as sg
from sepgroid import load_fixture
from sepgroid.lattice import Bounds
from sepgroid.monoid import No, Unknown, Yes


def survey(args: argparse.Namespace) -> int:
    """Print the survey; returns the number of certificates that failed
    verification."""
    g = load_fixture(f"{args.fixture}.sg")
    pres = mn.presentation(g)
    cyls = list(
        lt.enumerate_idempotents(g, Bounds(args.max_depth, args.max_exp, args.max_len))
    )
    print(f"{args.fixture}: {len(cyls)} cylinders within bounds")

    # partition cylinders into monoid-equality classes of their types
    classes: list[list] = []
    for e in cyls:
        t = mn.typ_of(g, lt.co_of(g, e))
        for cls in classes:
            if isinstance(mn.mon_eq(pres, t, cls[0][1]), Yes):
                cls.append((e, t))
                break
        else:
            classes.append([(e, t)])
    print(f"monoid classes: {len(classes)}")
    for cls in classes:
        reps = ", ".join(sg.element_to_word(g, e) for e, _ in cls[:3])
        more = f" (+{len(cls) - 3} more)" if len(cls) > 3 else ""
        print(f"  typ {mn.format_monelem(cls[0][1])}: {reps}{more}")

    shown = verified = failed = unknown = 0
    for cls in classes:
        for i in range(len(cls)):
            for j in range(i + 1, len(cls)):
                a = lt.co_of(g, cls[i][0])
                b = lt.co_of(g, cls[j][0])
                cert = mn.equidecompose(g, a, b)
                if isinstance(cert, Unknown):
                    unknown += 1
                    continue
                if not mn.verify_certificate(g, cert, a, b):
                    failed += 1
                    continue
                verified += 1
                if shown < args.show:
                    shown += 1
                    lhs = sg.element_to_word(g, cls[i][0])
                    rhs = sg.element_to_word(g, cls[j][0])
                    pieces = [sg.element_to_word(g, s) for s in cert.elements]
                    print(f"certificate Z({lhs}) ~ Z({rhs}): {pieces}")
    print(f"certificates verified: {verified}, failed: {failed}, unknown: {unknown}")
    return failed


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("fixture", nargs="?", default="g3")
    ap.add_argument("--max-depth", type=int, default=2)
    ap.add_argument("--max-exp", type=int, default=2)
    ap.add_argument("--max-len", type=int, default=2)
    ap.add_argument("--show", type=int, default=5)
    return 1 if survey(ap.parse_args()) else 0


if __name__ == "__main__":
    sys.exit(main())
