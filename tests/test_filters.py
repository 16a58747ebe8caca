import random

import pytest

from sepgroid import cli, filters as fl, groupoid as gp, lattice as lt, semigroup as sg
from sepgroid.filters import (
    INF,
    FilterError,
    PerTail,
    canonical_periodic,
)
from sepgroid.graph import GraphError, parse_graph
from sepgroid.lattice import Bounds, EPath
from sepgroid.semigroup import CPath, FreeStep


def w(g, text):
    return sg.parse_word(g, text)


def path(g, word, tail):
    e = sg.parse_word(g, word)
    v = sg.cpath_range(g, e.gamma)
    return EPath(e.gamma, g.prime_of_vertex(v), tail)


# -- validation and infiniteness -----------------------------------------


def test_validate_paths(g1, g2, g3):
    fl.validate_path(g2, path(g2, "v:w", ("f1", "f2")))
    fl.validate_path(g2, path(g2, "v:w", PerTail(("f1",), ("f2",))))
    fl.validate_path(g3, path(g3, "v:p", (2,)))
    fl.validate_path(g3, path(g3, "v:p", (INF,)))
    fl.validate_path(g3, path(g3, "b:p.1.1", PerTail((), ("f1",))))
    with pytest.raises((FilterError, GraphError)):
        fl.validate_path(g2, path(g2, "v:w", ("nope",)))
    # g3's p is free with one loop; w of r is regular.  The loop-count check
    # sits here, at the input boundary, and in no constructor.
    for word, tail, msg in (
        ("v:p", [2], "free prime needs a loop-count tail"),
        ("v:p", (), "free prime needs a loop-count tail"),
        ("v:p", (1, 2), "free prime needs a loop-count tail"),
        ("v:p", PerTail((), ("f1",)), "free prime needs a loop-count tail"),
        ("v:p", (-1,), "bad loop count -1"),
        ("v:p", (1.5,), r"bad loop count 1\.5"),
        ("v:p", ("2",), "bad loop count '2'"),
        ("v:p", (True,), "bad loop count True"),  # free(True) would not parse
        ("b:p.1.1", (2,), "regular prime needs a path tail"),
        ("b:p.1.1", (INF,), "regular prime needs a path tail"),
        ("b:p.1.1", ["f1"], "regular prime needs a path tail"),
    ):
        with pytest.raises(FilterError, match=f"^{msg}$"):
            fl.validate_path(g3, path(g3, word, tail))
    # an INF count passes the E-path rules as 0 would; the error names the
    # entry that fails them (g1's p has two loops)
    fl.validate_path(g1, path(g1, "v:p", (INF, 0)))
    with pytest.raises(FilterError, match="^bad loop count -1$"):
        fl.validate_path(g1, path(g1, "v:p", (INF, -1)))


def test_validate_path_checks_the_prefix(g3):
    # g3: free p (k = 1, g(p, 1) = 1) over the regular vertex w of r.  Each
    # prefix ends in r, so only the c-path check can reject it: a free step
    # taken from w, a negative loop count, a connector index past g(p, 1).
    for step, start, msg in (
        (FreeStep("p", 1, 0, 1), "w", "free step at p does not start at w"),
        (FreeStep("p", 1, -2, 1), "p", r"bad free step FreeStep\(p='p', i=1, m=-2, t=1\)"),
        (FreeStep("p", 1, 0, 3), "p", r"bad free step FreeStep\(p='p', i=1, m=0, t=3\)"),
    ):
        mu = EPath(CPath(start, (step,)), "r", ())
        with pytest.raises(FilterError, match=f"^{msg}$"):
            fl.validate_path(g3, mu)


def test_validate_path_rejects_a_connector_in_a_regular_tail():
    g = parse_graph(
        "graph cb\nfree s k=0\nregular r\nvertex w\n"
        "edge f1: w -> w\nedge f2: w -> w\nconnector c: w -> s\n"
    )
    fl.validate_path(g, path(g, "v:w", PerTail(("f2",), ("f1", "f2"))))
    for tail in (("c",), ("f1", "c"), PerTail(("f1",), ("c",)),
                 PerTail(("c",), ("f1",))):
        with pytest.raises(FilterError, match="^tail edge c does not continue at w$"):
            fl.validate_path(g, path(g, "v:w", tail))


def test_is_ultrafilter(g0, g2, g3):
    assert fl.is_ultrafilter(g3, path(g3, "v:p", (INF,)))
    assert not fl.is_ultrafilter(g3, path(g3, "v:p", (3,)))
    assert fl.is_ultrafilter(g2, path(g2, "v:w", PerTail((), ("f1",))))
    assert not fl.is_ultrafilter(g2, path(g2, "v:w", ("f1",)))
    # a point prime has no loops, so the empty tail is vacuously all-infinite
    assert fl.is_ultrafilter(g0, path(g0, "v:p", ()))


# -- filter membership ---------------------------------------------------


def test_filter_contains_free(g3):
    x = path(g3, "v:p", (INF,))
    assert fl.filter_contains(g3, x, w(g3, "v:p"))
    assert fl.filter_contains(g3, x, w(g3, "a:p.1 a:p.1 a:p.1* a:p.1*"))
    assert not fl.filter_contains(g3, x, w(g3, "b:p.1.1 b:p.1.1*"))


def test_filter_contains_descended(g3):
    x = path(g3, "b:p.1.1", PerTail((), ("f1",)))
    assert fl.filter_contains(g3, x, w(g3, "v:p"))
    assert fl.filter_contains(g3, x, w(g3, "b:p.1.1 b:p.1.1*"))
    assert fl.filter_contains(g3, x, w(g3, "b:p.1.1 e:f1 e:f1* b:p.1.1*"))
    assert not fl.filter_contains(g3, x, w(g3, "a:p.1 a:p.1*"))
    assert not fl.filter_contains(g3, x, w(g3, "b:p.1.1 e:f2 e:f2* b:p.1.1*"))


GENERATED = [
    (shape, f"filt-{i}")
    for shape in ("tower_graph", "regular_graph", "mixed_graph")
    for i in (0, 1)
]


def _membership_pairs(g, path_bounds, idem_bounds, same_start):
    """(path, idempotent) pairs: every semifinite path and idempotent within
    the bounds, or only those pairs that start at the same vertex (any other
    pair fails the prefix test at its start)."""
    idems = list(lt.enumerate_idempotents(g, idem_bounds))
    for v in sorted(g.vertex_prime):
        for mu in fl.enumerate_semifinite(g, v, path_bounds):
            for e in idems:
                if not same_start or e.gamma.start == v:
                    yield mu, e


def _deep_idem(g, mu, depth):
    """The idempotent of an initial segment of mu that runs at least `depth`
    loops or edges into its tail (all of a finite one).  For idempotents
    whose tails are shorter than `depth`, e lies in the filter of mu iff
    this idempotent is below e."""
    if g.is_free(mu.p):
        tail = tuple(min(x, depth) for x in mu.tail)
    elif isinstance(mu.tail, PerTail):
        tail = mu.tail.prefix + mu.tail.cycle * depth
    else:
        tail = mu.tail
    return lt.idem_of(g, lt.EPath(mu.gamma, mu.p, tail))


def test_filter_contains_matches_initial_segment(graphs, gen_module):
    # filter_contains reads the E-path off the idempotent; the first
    # reference builds it with epath_of and asks is_initial_segment, the
    # second asks the natural order of the semigroup, which shares no code
    # with the tail rule.
    cases = [(n, g, Bounds(1, 2, 2), Bounds(2, 2, 3), False) for n, g in graphs.items()]
    cases += [
        (f"{shape}/{tag}", parse_graph(getattr(gen_module, shape)(tag).text()),
         Bounds(1, 0, 1), Bounds(2, 1, 1), True)
        for shape, tag in GENERATED
    ]
    seen = set()
    for name, g, path_bounds, idem_bounds, same_start in cases:
        deep = {}
        for mu, e in _membership_pairs(g, path_bounds, idem_bounds, same_start):
            got = fl.filter_contains(g, mu, e)
            assert got == fl.is_initial_segment(g, lt.epath_of(g, e), mu), (name, mu, e)
            if mu not in deep:
                deep[mu] = _deep_idem(g, mu, 1 + max(idem_bounds.max_exp, idem_bounds.max_len))
            assert got == lt.nat_leq(g, deep[mu], e), (name, mu, e)
            if g.is_free(mu.p):
                seen.add("free-inf" if INF in mu.tail else "free")
            else:
                seen.add("periodic" if isinstance(mu.tail, PerTail) else "regular")
            n = len(e.gamma.steps)
            if sg.cpath_is_prefix(e.gamma, mu.gamma):
                seen.add("equal" if n == len(mu.gamma.steps) else "shorter")
                if n < len(mu.gamma.steps) and isinstance(mu.gamma.steps[n], sg.FreeStep):
                    seen.add("free step")
            elif sg.cpath_is_prefix(mu.gamma, e.gamma):
                seen.add("longer")
            seen.add(("out", "in")[got])
    assert seen == {"free", "free-inf", "regular", "periodic", "shorter", "equal",
                    "longer", "free step", "out", "in"}


def test_filter_contains_rejects_non_idempotents(g3):
    mu = path(g3, "v:p", (INF,))
    with pytest.raises(FilterError):
        fl.filter_contains(g3, mu, sg.ZERO)
    with pytest.raises(FilterError):
        fl.filter_contains(g3, mu, w(g3, "a:p.1"))


def test_is_idempotent_compares_paths_by_value(g3):
    e = w(g3, "b:p.1.1 b:p.1.1*")
    copy = sg.Triple(
        sg.CPath(e.gamma.start, e.gamma.steps), e.m, sg.CPath(e.eta.start, e.eta.steps)
    )
    assert copy.gamma is not copy.eta
    assert sg.is_idempotent(copy)
    t = w(g3, "a:p.1 t:p.1 a:p.1*")
    assert t.gamma == t.eta and t.m.tpart
    assert not sg.is_idempotent(t)


def test_filter_axioms(graphs, rng):
    bounds = Bounds(2, 3, 4)
    for name in ("g2", "g3"):
        g = graphs[name]
        idems = list(lt.enumerate_idempotents(g, bounds))
        starts = sorted(g.vertex_prime)
        for v in starts:
            for mu in fl.enumerate_semifinite(g, v, Bounds(1, 2, 2)):
                inside = [e for e in idems if fl.filter_contains(g, mu, e)]
                assert inside  # contains at least the top of its vertex
                for e in inside:
                    for f in inside:
                        m = sg.mul(g, e, f)
                        assert not sg.is_zero(m)
                        assert fl.filter_contains(g, mu, m)
                    for f in idems:
                        if lt.nat_leq(g, e, f):
                            assert fl.filter_contains(g, mu, f)


def test_traces_distinguish_paths(graphs):
    # with the idempotent bound above the path description size, distinct
    # semifinite paths have distinct traces
    for name in ("g2", "g3"):
        g = graphs[name]
        idems = list(lt.enumerate_idempotents(g, Bounds(2, 4, 7)))
        seen = {}
        for v in sorted(g.vertex_prime):
            for mu in fl.enumerate_semifinite(g, v, Bounds(1, 2, 2)):
                tr = frozenset(
                    i for i, e in enumerate(idems) if fl.filter_contains(g, mu, e)
                )
                assert tr not in seen, (mu, seen[tr])
                seen[tr] = mu


def test_reconstruct_inverts_trace(graphs):
    for name in ("g2", "g3"):
        g = graphs[name]
        idems = list(lt.enumerate_idempotents(g, Bounds(2, 4, 7)))
        for v in sorted(g.vertex_prime):
            for mu in fl.enumerate_semifinite(g, v, Bounds(1, 2, 2)):
                if g.is_free(mu.p) and any(x == INF for x in mu.tail):
                    continue  # not finitely generated within bounds
                if isinstance(mu.tail, PerTail):
                    continue
                fam = [e for e in idems if fl.filter_contains(g, mu, e)]
                got = fl.reconstruct_path(g, fam)
                fl.validate_path(g, got)
                assert got == mu


def test_reconstruct_rejects_bad_families(g2):
    with pytest.raises(FilterError):
        fl.reconstruct_path(g2, [])
    e1 = w(g2, "e:f1 e:f1*")
    e2 = w(g2, "e:f2 e:f2*")
    with pytest.raises(FilterError):
        fl.reconstruct_path(g2, [e1, e2])  # not directed


@pytest.mark.parametrize("shape", ["tower_graph", "regular_graph", "mixed_graph"])
def test_reconstruct_on_generated_graphs(gen_module, shape, rng):
    # Within one bound every finite path's own idempotent is in the pool, so
    # its trace determines it.  A pair is rejected as not directed exactly
    # when its semigroup product is zero.
    g = parse_graph(getattr(gen_module, shape)("rec-0").text())
    bounds = Bounds(1, 1, 2)
    by_start = {}
    for e in lt.enumerate_idempotents(g, bounds):
        by_start.setdefault(e.gamma.start, []).append(e)
    for v, pool in by_start.items():
        for mu in fl.enumerate_semifinite(g, v, bounds):
            if isinstance(mu.tail, PerTail) or INF in mu.tail:
                continue  # infinite in some direction: no finite trace
            fam = [e for e in pool if fl.filter_contains(g, mu, e)]
            got = fl.reconstruct_path(g, fam)
            fl.validate_path(g, got)
            assert got == mu
    starts = [v for v, pool in by_start.items() if len(pool) > 1]
    rejected = 0
    for _ in range(200):
        e, f = rng.sample(by_start[rng.choice(starts)], 2)
        if sg.is_zero(sg.mul(g, e, f)):
            with pytest.raises(FilterError, match="not directed"):
                fl.reconstruct_path(g, [e, f])
            rejected += 1
        else:
            got = fl.reconstruct_path(g, [e, f])
            fl.validate_path(g, got)
            assert got == fl.reconstruct_path(g, [sg.mul(g, e, f)])
    assert 0 < rejected < 200


@pytest.mark.parametrize("name", ["g0", "g1", "g2", "g3", "mixed_graph", "regular_graph"])
def test_reconstruction_is_the_product(graphs, gen_module, name):
    # reconstruct_path folds the cylinder meet; the semigroup product of the
    # family is the independent reference: zero exactly when the family is
    # not directed, and otherwise the idempotent of the reconstructed path.
    g = graphs.get(name) or parse_graph(getattr(gen_module, name)("fam-0").text())
    by_start = {}
    for e in lt.enumerate_idempotents(g, Bounds(2, 2, 2)):
        by_start.setdefault(e.gamma.start, []).append(e)
    starts = sorted(by_start)
    rng = random.Random(name)
    directed = 0
    for _ in range(1000):
        fam = rng.choices(by_start[rng.choice(starts)], k=rng.randint(1, 3))
        prod = fam[0]
        for f in fam[1:]:
            prod = sg.mul(g, prod, f)
        if sg.is_zero(prod):
            with pytest.raises(FilterError, match="^family is not directed$"):
                fl.reconstruct_path(g, fam)
        else:
            assert fl.reconstruct_path(g, fam) == lt.epath_of(g, prod), fam
            directed += 1
    assert directed >= 450, directed


# -- ultrafilters --------------------------------------------------------


def test_separation_witness(g3):
    mu = path(g3, "v:p", (2,))
    X, Y = fl.separation_witness(g3, mu)
    for x in X:
        assert fl.filter_contains(g3, mu, x)
    # no infinite path contains all of X while meeting no member of Y
    for nu in fl.enumerate_infinite(g3, "p", Bounds(2, 3, 3)):
        if all(fl.filter_contains(g3, nu, x) for x in X):
            assert any(fl.filter_contains(g3, nu, y) for y in Y)


def test_separation_witness_rejects_infinite(g0, g3):
    with pytest.raises(FilterError):
        fl.separation_witness(g3, path(g3, "v:p", (INF,)))
    # the point prime's trivial path is already an ultrafilter
    with pytest.raises(FilterError):
        fl.separation_witness(g0, path(g0, "v:p", ()))


def test_extend_to_infinite(graphs):
    for name in ("g2", "g3"):
        g = graphs[name]
        for v in sorted(g.vertex_prime):
            for mu in fl.enumerate_semifinite(g, v, Bounds(1, 2, 2)):
                if fl.is_ultrafilter(g, mu):
                    continue
                nu = fl.extend_to_infinite(g, mu)
                fl.validate_path(g, nu)
                assert fl.is_ultrafilter(g, nu)
                assert fl.is_initial_segment(g, lt.EPath(mu.gamma, mu.p, mu.tail), nu)


# -- canonical periodic form ---------------------------------------------


def test_canonical_periodic():
    assert canonical_periodic((), ("f1", "f1")) == ((), ("f1",))
    assert canonical_periodic(("f1",), ("f2", "f1")) == ((), ("f1", "f2"))
    assert canonical_periodic(("f1", "f1"), ("f1",)) == ((), ("f1",))
    assert canonical_periodic(("f2",), ("f1",)) == (("f2",), ("f1",))


def test_periodic_tails_are_canonical_by_construction(g2):
    assert PerTail(("f2",), ("f1", "f2")) == PerTail((), ("f2", "f1"))
    assert PerTail(("f1", "f1"), ("f1", "f1")) == PerTail((), ("f1",))
    assert path(g2, "v:w", PerTail(("f2",), ("f1", "f2"))) == path(
        g2, "v:w", PerTail((), ("f2", "f1"))
    )
    long_form = cli.parse_path(g2, "[v:w] ; reg(f2 ; f1,f2)")
    assert cli.format_path(g2, long_form) == "[v:w] ; reg( ; f2,f1)"
    short_form = cli.parse_path(g2, "[v:w] ; reg( ; f2,f1)")
    germ = gp.germ_of(g2, w(g2, "e:f1"), short_form)
    fl.validate_path(g2, germ.x)
    hand_made_unit = gp.Germ(long_form, gp.ZERO_WEIGHT, long_form)
    assert gp.compose(g2, germ, hand_made_unit) == germ


@pytest.mark.parametrize(
    "shape,tag", [(shape, f"rt-{i}") for shape in ("regular_graph", "mixed_graph") for i in (0, 1, 2)]
)
def test_infinite_paths_round_trip_on_generated_graphs(gen_module, shape, tag):
    g = parse_graph(getattr(gen_module, shape)(tag).text())
    kinds = set()
    for v in sorted(g.vertex_prime):
        for mu in fl.enumerate_infinite(g, v, Bounds(3, 2, 2)):
            back = cli.parse_path(g, cli.format_path(g, mu))
            assert back == mu and hash(back) == hash(mu)
            kinds.add((g.is_free(mu.p), bool(mu.gamma.steps)))
    assert kinds == {(free, deep) for free in (False, True) for deep in (False, True)}


def test_enumerate_canonical_only(g2):
    for mu in fl.enumerate_semifinite(g2, "w", Bounds(1, 2, 3)):
        if isinstance(mu.tail, PerTail):
            assert canonical_periodic(mu.tail.prefix, mu.tail.cycle) == (
                mu.tail.prefix,
                mu.tail.cycle,
            )
