"""The four benchmark workloads.

Each workload has five parts:

- `setup(spec, text)`: the program calls made before the timed loop (parse the
  graph, validate it, build the monoid presentation, enumerate the bounded
  pools that inputs are drawn from).  Timed as `setup_s`.
- `prepare(state, rng)`: the benchmark's own choices that depend on the
  pools, made once after set-up and outside any timed region.
- `inputs(state, rng)`: an endless stream of text inputs, made by the
  benchmark's own code outside any timed region.
- `run(state, inp)`: one operation, timed.
- `check(state, inp, out, index)`: checks the output of operation number
  `index` outside the timed region; raises `CheckFailed`.

`sepgroid` must be importable before this module is imported.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass, field

from sepgroid import cli
from sepgroid import filters as fl
from sepgroid import groupoid as gp
from sepgroid import lattice as lt
from sepgroid import monoid as mn
from sepgroid import semigroup as sg
from sepgroid.graph import parse_graph, validate_adaptable

import gen


class CheckFailed(Exception):
    """An operation's output failed one of the benchmark's checks."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


@dataclass
class State:
    """What set-up hands to the timed loop."""

    spec: gen.GraphSpec
    g: object
    pres: mn.Presentation
    pool: list  # program-enumerated pool the inputs are drawn from
    words: list[str]  # the pool as text, for the generators
    scan: list = field(default_factory=list)  # germs: the paths an operation scans
    # elements parsed by earlier operations on this graph (words, germs)
    recent: list = field(default_factory=list)


def base_setup(spec: gen.GraphSpec, text: str, pool_fn) -> State:
    g = parse_graph(text)
    violations = validate_adaptable(g)
    if violations:
        raise CheckFailed(f"generated graph is not adaptable: {violations[0]}")
    pres = mn.presentation(g)
    pool = pool_fn(g)
    return State(spec, g, pres, pool, [])


def _idempotent_pool(bounds: lt.Bounds):
    def pool_fn(g):
        return list(lt.enumerate_idempotents(g, bounds))

    return pool_fn


def _expandable(g, e) -> bool:
    """Whether the cylinder of e has a simple expansion (it is not at a sink)."""
    return not (g.is_free(e.m.p) and g.k(e.m.p) == 0)


def _random_expansion(g, rng: random.Random, base, rounds: int):
    """Up to `rounds` random simple expansions of base; returns the pieces
    and the pieces that were expanded on the way, base first."""
    pieces, expanded = [base], []
    for _ in range(rounds):
        cand = [j for j, x in enumerate(pieces) if _expandable(g, x)]
        if not cand:
            break
        j = rng.choice(cand)
        x = pieces[j]
        choice = rng.randint(1, g.k(x.m.p)) if g.is_free(x.m.p) else None
        expanded.append(x)
        pieces[j : j + 1] = lt.simple_expand(g, x, choice)
    return pieces, expanded


def zipf_ranks(rng: random.Random, n: int, s: float = 0.8):
    """Endless ranks in range(n) with Zipf weights 1/(r+1)^s.  The draws are
    a golden-ratio sequence through the weights' distribution function from
    a seeded start, so every stretch of the stream hits each rank about as
    often as its weight says; independent draws would let a run's share of
    its heaviest pairs vary from seed to seed."""
    cum, total = [], 0.0
    for r in range(n):
        total += 1.0 / (r + 1) ** s
        cum.append(total)
    u = rng.random()
    while True:
        u = (u + 0.6180339887498949) % 1.0
        yield min(bisect.bisect_left(cum, u * total), n - 1)


class Workload:
    graphs = 8  # graphs per run; operation i runs on graph i mod graphs

    def prepare(self, st, rng):
        pass


# -- words -----------------------------------------------------------------


class Words(Workload):
    """A stream of distinct generator words over a free tower.  One
    operation parses a word, serializes its normal form, and multiplies the
    previous operation's element by this one and stars the product."""

    name = "words"
    shape = staticmethod(gen.tower_graph)
    trace_ops = 600
    oracle_sample = 64  # the first operations of a run are cross-checked

    def setup(self, spec, text):
        return base_setup(spec, text, lambda g: [])

    def inputs(self, st, rng):
        stream = gen.WordStream(st.spec, rng)
        while True:
            yield stream.next()

    def run(self, st, w):
        g = st.g
        e = sg.parse_word(g, w)
        text = sg.element_to_word(g, e)
        prev = st.recent[-1] if st.recent else sg.ZERO
        st.recent = [e]
        p = sg.mul(g, prev, e)
        return e, text, prev, p, sg.star(g, p)

    def check(self, st, w, out, index):
        from oracle import ZERO, oracle_nf

        g = st.g
        e, text, prev, p, ps = out
        sg.validate_element(g, e)
        sg.validate_element(g, p)
        require(sg.parse_word(g, text) == e, "parse_word(element_to_word(e)) != e")
        require(sg.mul(g, prev, e) == p, "mul is not deterministic")
        require(sg.star(g, ps) == p, "star is not an involution")
        require(sg.mul(g, sg.mul(g, p, ps), p) == p, "p p* p != p")
        if index < self.oracle_sample:
            want = oracle_nf(g, w)
            got = ZERO if sg.is_zero(e) else oracle_nf(g, text)
            require(want == got, f"oracle disagrees on {w!r}")


# -- cylinders -------------------------------------------------------------


class Cylinders(Workload):
    """Compact-open expressions over the idempotents of a graph with large
    regular components.  Three operations in four run the cylinder algebra
    on two parsed expressions; the fourth turns a random orthogonal cover
    into an expansion script, or orthogonalizes a cover with one redundant
    member."""

    name = "cylinders"
    shape = staticmethod(gen.regular_graph)
    graphs = 16
    trace_ops = 250
    bounds = lt.Bounds(max_depth=1, max_exp=1, max_len=2)

    def setup(self, spec, text):
        st = base_setup(spec, text, _idempotent_pool(self.bounds))
        st.words = [sg.element_to_word(st.g, e) for e in st.pool]
        return st

    def inputs(self, st, rng):
        by_start: dict[str, list[int]] = {}
        for i, e in enumerate(st.pool):
            by_start.setdefault(e.gamma.start, []).append(i)
        starts = sorted(by_start)
        expandable = [i for i, e in enumerate(st.pool) if _expandable(st.g, e)]
        while True:
            if rng.random() < 0.75:
                group = by_start[rng.choice(starts)]
                yield ("algebra", self._expr(st, rng, group), self._expr(st, rng, group))
            else:
                yield self._cover(st, rng, rng.choice(expandable))

    def _expr(self, st, rng, group) -> str:
        # The first atom is the shortest of a few draws, so that the later
        # atoms often lie inside it and subtraction has work to do.
        first = min(rng.sample(group, min(3, len(group))))
        out = f"Z({st.words[first]})"
        for _ in range(rng.randint(1, 3)):
            op = rng.choice(("+", "-", "-", "&"))
            out += f" {op} Z({st.words[rng.choice(group)]})"
        return out

    def _cover(self, st, rng, i):
        """A random orthogonal cover of pool element i as words, built with
        simple expansions outside the timed region; with probability one
        half it also carries a redundant member for orthogonalize_cover."""
        g = st.g
        pieces, expanded = _random_expansion(g, rng, st.pool[i], rng.randint(2, 4))
        words = [sg.element_to_word(g, x) for x in pieces]
        rng.shuffle(words)
        if rng.random() < 0.5 and len(expanded) > 1:
            extra = sg.element_to_word(g, rng.choice(expanded[1:]))
            words.insert(rng.randrange(len(words) + 1), extra)
            return ("orthogonalize", st.words[i], tuple(words))
        return ("script", st.words[i], tuple(words))

    def run(self, st, inp):
        g = st.g
        kind, x, y = inp
        if kind == "algebra":
            a = cli.parse_compact_open(g, x)
            b = cli.parse_compact_open(g, y)
            diff = lt.co_subtract(g, a, b)
            meet = lt.co_intersect(g, a, b)
            union = lt.co_union(g, diff, meet)
            return a, b, diff, meet, union, cli.format_compact_open(g, union)
        e = sg.parse_word(g, x)
        sigma = [sg.parse_word(g, w) for w in y]
        if kind == "script":
            return e, sigma, lt.cover_to_expansion(g, e, sigma)
        return e, sigma, lt.orthogonalize_cover(g, e, sigma)

    def check(self, st, inp, out, index):
        g = st.g
        if inp[0] == "algebra":
            a, b, diff, meet, union, text = out
            require(lt.co_eq(g, union, a), "(A-B) + (A&B) != A")
            require(lt.co_is_empty(lt.co_intersect(g, diff, b)), "(A-B) & B is not empty")
            if lt.co_is_empty(union):
                require(text == "(empty)", "empty result not formatted as (empty)")
            else:
                require(cli.parse_compact_open(g, text) == union, "format/parse round trip")
            return
        e, sigma, res = out
        if inp[0] == "script":
            got = sorted(map(repr, lt.expand(g, e, res)))
            require(got == sorted(map(repr, sigma)), "script does not replay the cover")
        else:
            require(lt.is_orthogonal_cover(g, e, res), "result is not an orthogonal cover")


# -- equidecompose ---------------------------------------------------------


class Equidecompose(Workload):
    """Pairs of compact opens on a mixed graph, from a finite pool with
    skewed (Zipf) repeats.  Half the pool is a cylinder against a random
    expansion of it, equal in type by construction; the other half pairs
    random pool cylinders.  One operation parses both sides, decides the
    type equality with mon_eq and runs equidecompose, both under the
    stated budget."""

    name = "equidecompose"
    shape = staticmethod(gen.mixed_graph)
    # Operation costs differ most from graph to graph on this workload, so
    # a run spreads over many graphs, each with a small pool.
    graphs = 32
    trace_ops = 80
    bounds = lt.Bounds(max_depth=1, max_exp=1, max_len=1)
    budget = mn.Budget(max_states=300, max_weight=10)
    pool_pairs = 12

    def setup(self, spec, text):
        st = base_setup(spec, text, _idempotent_pool(self.bounds))
        st.words = [sg.element_to_word(st.g, e) for e in st.pool]
        return st

    def _expansion(self, st, rng, i) -> str:
        pieces, _ = _random_expansion(st.g, rng, st.pool[i], rng.randint(1, 3))
        return " + ".join(f"Z({sg.element_to_word(st.g, x)})" for x in pieces)

    def inputs(self, st, rng):
        pairs = []
        n = len(st.words)
        for j in range(self.pool_pairs):
            i = rng.randrange(n)
            if j % 2 == 0:
                pairs.append((True, f"Z({st.words[i]})", self._expansion(st, rng, i)))
            else:
                pairs.append((False, f"Z({st.words[i]})", f"Z({st.words[rng.randrange(n)]})"))
        rng.shuffle(pairs)
        for r in zipf_ranks(rng, len(pairs)):
            yield pairs[r]

    def run(self, st, inp):
        g = st.g
        _, x, y = inp
        a = cli.parse_compact_open(g, x)
        b = cli.parse_compact_open(g, y)
        eq = mn.mon_eq(st.pres, mn.typ_of(g, a), mn.typ_of(g, b), self.budget)
        return a, b, eq, mn.equidecompose(g, a, b, self.budget)

    def check(self, st, inp, out, index):
        equal_by_construction = inp[0]
        a, b, eq, cert = out
        has_cert = isinstance(cert, mn.EquidecompCertificate)
        if has_cert:
            require(mn.verify_certificate(st.g, cert, a, b), "certificate does not verify")
        if equal_by_construction:
            require(isinstance(eq, mn.Yes), "mon_eq is not Yes on an equal-type pair")
            require(has_cert, "no certificate for an equal-type pair")
        if isinstance(eq, mn.Yes):
            require(has_cert, "mon_eq says Yes but equidecompose found no certificate")
        if isinstance(eq, mn.No):
            require(isinstance(cert, mn.Unknown), "mon_eq says No but a certificate exists")


# -- germs -----------------------------------------------------------------


class Germs(Workload):
    """Infinite paths of a mixed graph, enumerated within fixed bounds.  One
    operation parses a word s, scans a fixed-size sample of the paths for
    those in the source cylinder of s, builds the germ of s at one of them,
    tests it for membership in the bisections of the last few elements
    parsed on the same graph, composes it with its inverse, and round-trips
    two path literals through the command-line syntax."""

    name = "germs"
    shape = staticmethod(gen.mixed_graph)
    graphs = 16
    trace_ops = 300
    bounds = lt.Bounds(max_depth=3, max_exp=2, max_len=2)
    batch = 4
    # The enumerated pool has 600-1150 paths, depending on where the
    # graph's connectors land; an operation scans a fixed-size seeded sample
    # of it, so that its cost does not follow the pool's size.
    scan = 512

    def setup(self, spec, text):
        def pool_fn(g):
            return [
                x for v in sorted(g.vertex_prime)
                for x in fl.enumerate_infinite(g, v, self.bounds)
            ]

        st = base_setup(spec, text, pool_fn)
        st.words = [cli.format_path(st.g, x) for x in st.pool]
        return st

    def prepare(self, st, rng):
        picked = sorted(rng.sample(range(len(st.pool)), min(self.scan, len(st.pool))))
        st.scan = [st.pool[i] for i in picked]

    def inputs(self, st, rng):
        stream = gen.WordStream(st.spec, rng, factors=(1, 2))
        while True:
            yield (
                stream.next(),
                rng.randrange(1 << 16),
                (rng.choice(st.words), rng.choice(st.words)),
            )

    def run(self, st, inp):
        g = st.g
        word, pick, literals = inp
        s = sg.parse_word(g, word)
        paths = tuple(cli.format_path(g, cli.parse_path(g, t)) for t in literals)
        if sg.is_zero(s):
            return s, None, (), (), (), paths
        batch = tuple(st.recent)
        st.recent = (st.recent + [s])[-self.batch :]
        src = sg.mul(g, sg.star(g, s), s)
        xs = [x for x in st.scan if fl.filter_contains(g, x, src)]
        if not xs:
            return s, None, batch, (), (), paths
        germ = gp.germ_of(g, s, xs[pick % len(xs)])
        member = tuple(gp.in_bisection(g, germ, f) for f in batch)
        laws = (
            gp.in_bisection(g, germ, s),
            gp.compose(g, germ, gp.inverse(germ)),
            gp.unit(g, germ.x),
        )
        return s, germ, batch, member, laws, paths

    def check(self, st, inp, out, index):
        g = st.g
        s, germ, batch, member, laws, paths = out
        require(paths == inp[2], "path literal does not round-trip")
        if germ is None:
            if not sg.is_zero(s):
                src = sg.mul(g, sg.star(g, s), s)
                missed = any(fl.filter_contains(g, x, src) for x in st.scan)
                require(not missed, "a path in the source cylinder was missed")
            return
        in_own, loop, unit_x = laws
        require(in_own and gp.in_bisection(g, germ, s), "germ of s is not in Z(s)")
        require(loop == unit_x, "g g^-1 is not the unit at its range")
        require(
            gp.compose(g, gp.inverse(germ), germ) == gp.unit(g, germ.y),
            "g^-1 g is not the unit at its source",
        )
        require(gp.inverse(gp.inverse(germ)) == germ, "inverse is not an involution")
        y = germ.y
        for f, got in zip(batch, member):
            want = (
                fl.filter_contains(g, y, sg.mul(g, sg.star(g, f), f))
                and gp.germ_of(g, f, y) == germ
            )
            require(got == want, "in_bisection disagrees with germ_of")


WORKLOADS = {w.name: w for w in (Words(), Cylinders(), Equidecompose(), Germs())}
