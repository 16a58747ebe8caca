import importlib.util
import pathlib
import random
import sys

import pytest

from sepgroid import lattice as lt, load_fixture, semigroup as sg
from sepgroid.filters import FilterError, PerTail, validate_tail
from sepgroid.graph import FreePrime


# A regular r with two edges each way between u and v, and a connector from
# u to the sink z.
TWO_WAY = (
    "graph h\nregular r\nvertex u v\nedge e1: u -> v\nedge e2: u -> v\n"
    "edge e3: v -> u\nedge e4: v -> u\nconnector c: u -> z\nfree z k=0\n"
)


@pytest.fixture(scope="session")
def g0():
    return load_fixture("g0.sg")


@pytest.fixture(scope="session")
def g1():
    return load_fixture("g1.sg")


@pytest.fixture(scope="session")
def g2():
    return load_fixture("g2.sg")


@pytest.fixture(scope="session")
def g3():
    return load_fixture("g3.sg")


@pytest.fixture(scope="session")
def graphs(g0, g1, g2, g3):
    return {"g0": g0, "g1": g1, "g2": g2, "g3": g3}


@pytest.fixture
def rng():
    return random.Random(0)


@pytest.fixture(scope="session")
def gen_module():
    return _load_perfbench_gen()


def alphabet(g):
    """Every generator token of the graph, plus t-generators."""
    toks = []
    for p in g.primes:
        if isinstance(p, FreePrime):
            toks.append(f"v:{p.name}")
            for i in range(1, p.k + 1):
                toks += [f"a:{p.name}.{i}", f"a:{p.name}.{i}*"]
                for t in range(1, len(p.targets[i - 1]) + 1):
                    toks += [f"b:{p.name}.{i}.{t}", f"b:{p.name}.{i}.{t}*"]
            for i in range(1, max(p.k, 2) + 1):
                toks += [f"t:{p.name}.{i}", f"t:{p.name}.{i}^-1"]
        else:
            for v in sorted(p.vertices):
                toks.append(f"v:{v}")
            for e in list(p.edges) + list(p.connectors):
                toks += [f"e:{e.name}", f"e:{e.name}*"]
    return toks


def _top_idem(g):
    """The idempotent of a vertex with a simple expansion, if there is one."""
    for p in g.primes:
        if isinstance(p, FreePrime) and p.k > 0:
            return sg.parse_word(g, f"v:{p.name}")
    for p in g.primes:
        if not isinstance(p, FreePrime):
            return sg.parse_word(g, f"v:{sorted(p.vertices)[0]}")
    return sg.parse_word(g, f"v:{g.primes[0].name}")


def _expandable(g, e):
    mu = lt.epath_of(g, e)
    return not (g.is_free(mu.p) and g.k(mu.p) == 0)


def _random_cover(g, rng, base, rounds):
    pieces = [base]
    for _ in range(rounds):
        cand = [i for i, x in enumerate(pieces) if _expandable(g, x)]
        if not cand:
            break
        pos = rng.choice(cand)
        mu = lt.epath_of(g, pieces[pos])
        ch = rng.randint(1, g.k(mu.p)) if g.is_free(mu.p) else None
        pieces[pos : pos + 1] = lt.simple_expand(g, pieces[pos], ch)
    return pieces


def is_initial_segment(g, nu, mu):
    """Whether the E-path nu is an initial segment of the semifinite path
    mu, from the definition: nu's prefix is a prefix of mu's.  Then, when
    mu's prefix is longer, mu's next step lies in the cylinder of nu's tail:
    a free step loops at least as often as the tail counts for its loop, and
    a regular step's internal path starts with the tail.  Otherwise nu's
    tail is below mu's: count by count at a free prime, and a prefix of the
    unrolled path at a regular one."""
    n = len(nu.gamma.steps)
    if nu.gamma.start != mu.gamma.start or mu.gamma.steps[:n] != nu.gamma.steps:
        return False
    if n < len(mu.gamma.steps):
        step = mu.gamma.steps[n]
        if isinstance(step, sg.FreeStep):
            return nu.tail[step.i - 1] <= step.m
        return step.path[: len(nu.tail)] == nu.tail
    if g.is_free(mu.p):
        return all(a <= b for a, b in zip(nu.tail, mu.tail))
    tail = mu.tail.unrolled(len(nu.tail)) if isinstance(mu.tail, PerTail) else mu.tail
    return tail[: len(nu.tail)] == nu.tail


def check_path(g, mu):
    """Check a semifinite path as if it came from a caller, as the command
    line's path literals are checked: its prefix c-path, then
    filters.validate_tail.  Raises FilterError, or GraphError for a name
    the graph lacks."""
    sg.validate_cpath(g, mu.gamma, FilterError)
    validate_tail(g, mu)


def random_word(rng, toks, max_len):
    return " ".join(rng.choice(toks) for _ in range(rng.randint(1, max_len)))


def _load_perfbench_gen():
    """The benchmark's seeded graph generator, loaded read-only."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # dataclasses look their module up here
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(mod)
    finally:
        sys.dont_write_bytecode = dont_write
    return mod
