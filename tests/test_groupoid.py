import pytest

from sepgroid import filters as fl, groupoid as gp, lattice as lt, semigroup as sg
from sepgroid.filters import INF, PerTail
from sepgroid.groupoid import GermWeight, GroupoidError
from sepgroid.graph import parse_graph
from sepgroid.lattice import Bounds, EPath

from conftest import alphabet, random_word


def w(g, text):
    return sg.parse_word(g, text)


def path(g, word, tail):
    e = sg.parse_word(g, word)
    v = sg.cpath_range(g, e.gamma)
    return EPath(e.gamma, g.prime_of_vertex(v), tail)


def germ_of(g, s, x):
    """gp.germ_of, with its range path checked as if it came from a caller:
    no constructor checks a tail the library builds."""
    germ = gp.germ_of(g, s, x)
    fl.validate_path(g, germ.x)
    return germ


def infinite_paths(g):
    out = []
    for v in sorted(g.vertex_prime):
        out.extend(fl.enumerate_infinite(g, v, Bounds(1, 2, 2)))
    return out


def random_germs(g, rng, count):
    toks = alphabet(g)
    paths = infinite_paths(g)
    out = []
    while len(out) < count:
        s = w(g, random_word(rng, toks, 5))
        if sg.is_zero(s):
            continue
        ss = sg.mul(g, sg.star(g, s), s)
        xs = [x for x in paths if fl.filter_contains(g, x, ss)]
        if not xs:
            continue
        out.append((s, germ_of(g, s, rng.choice(xs))))
    return out


# -- weights and norms ---------------------------------------------------


def test_norm_length(g1, g2, g3):
    mu = lt.epath_of(g3, w(g3, "a:p.1 a:p.1 a:p.1* a:p.1*"))
    assert gp.norm_length(g3, mu) == (2,)
    nu = lt.epath_of(g2, w(g2, "e:f1 e:f2 e:f2* e:f1*"))
    assert gp.norm_length(g2, nu) == (2,)
    # one entry per loop of p (k = 2), the trailing zero kept
    tau = lt.epath_of(g1, w(g1, "a:p.1 a:p.1*"))
    assert gp.norm_length(g1, tau) == (1, 0)


def test_weight_group_laws():
    a = GermWeight(((1, 2),), (1,))
    b = GermWeight(((1, -2), (2, 1)), (-1, 3))
    assert gp.weight_add(a, gp.weight_neg(a)) == gp.ZERO_WEIGHT
    assert gp.weight_add(a, b) == gp.weight_add(b, a)
    assert gp.weight_add(gp.ZERO_WEIGHT, a) == a


# -- germ construction ---------------------------------------------------


def test_germ_of_loop(g3):
    x = path(g3, "v:p", (INF,))
    germ = germ_of(g3, w(g3, "a:p.1"), x)
    assert germ.x == x and germ.y == x
    assert germ.weight == GermWeight((), (1,))


def test_germ_of_regular_shift(g2):
    x = path(g2, "v:w", PerTail((), ("f2",)))
    germ = germ_of(g2, w(g2, "e:f1 e:f2*"), x)
    assert germ.y == x
    assert germ.x == path(g2, "v:w", PerTail(("f1",), ("f2",)))
    assert germ.weight == gp.ZERO_WEIGHT


def test_germ_of_idempotent_is_unit(g3):
    x = path(g3, "v:p", (INF,))
    e = w(g3, "a:p.1 a:p.1*")
    assert germ_of(g3, e, x) == gp.unit(g3, x)


def test_germ_of_requires_membership(g3):
    # x's tail starts with f1, so it is outside Z(f2 f2*)
    x = path(g3, "b:p.1.1", PerTail((), ("f1",)))
    with pytest.raises(GroupoidError):
        gp.germ_of(g3, w(g3, "e:f2"), x)


def test_germ_of_acts_through_connector(g3):
    # the loop absorbs into the branch step, lengthening the prefix by one
    x = path(g3, "b:p.1.1", PerTail((), ("f1",)))
    germ = germ_of(g3, w(g3, "a:p.1"), x)
    assert germ.y == x
    assert germ.x == path(g3, "a:p.1 b:p.1.1", PerTail((), ("f1",)))
    assert germ.weight == GermWeight((), (1,))


@pytest.mark.parametrize("name", ["g2", "g3", "ger-0", "ger-1", "ger-2"])
def test_germ_of_raises_exactly_outside_the_source_cylinder(graphs, gen_module, rng, name):
    # germ_of decides x in Z(s*s) by its absorption alone; the reference is
    # the filter of x against the product s*s.
    g = graphs.get(name) or parse_graph(gen_module.mixed_graph(name).text())
    toks = alphabet(g)
    paths = infinite_paths(g)
    seen = set()
    for _ in range(60):
        s = w(g, random_word(rng, toks, 4))
        if sg.is_zero(s):
            continue
        ss = sg.mul(g, sg.star(g, s), s)
        for x in rng.sample(paths, min(len(paths), 25)):
            inside = fl.filter_contains(g, x, ss)
            if inside:
                germ_of(g, s, x)
            else:
                with pytest.raises(GroupoidError, match="source cylinder"):
                    gp.germ_of(g, s, x)
            seen.add(inside)
    assert seen == {True, False}


def test_germ_of_requires_infinite(g3):
    x = path(g3, "v:p", (2,))
    with pytest.raises(GroupoidError):
        gp.germ_of(g3, w(g3, "a:p.1"), x)


# -- groupoid laws -------------------------------------------------------


def test_unit_and_inverse_laws(graphs, rng):
    for name in ("g2", "g3"):
        g = graphs[name]
        for s, germ in random_germs(g, rng, 120):
            assert gp.compose(g, germ, gp.unit(g, germ.y)) == germ
            assert gp.compose(g, gp.unit(g, germ.x), germ) == germ
            assert gp.compose(g, germ, gp.inverse(germ)) == gp.unit(g, germ.x)
            assert gp.compose(g, gp.inverse(germ), germ) == gp.unit(g, germ.y)


def test_functoriality(graphs, rng):
    for name in ("g2", "g3"):
        g = graphs[name]
        toks = alphabet(g)
        paths = infinite_paths(g)
        done = 0
        while done < 100:
            s = w(g, random_word(rng, toks, 4))
            t = w(g, random_word(rng, toks, 4))
            st_ = sg.mul(g, s, t)
            if sg.is_zero(st_):
                continue
            prod = sg.mul(g, sg.star(g, st_), st_)
            xs = [x for x in paths if fl.filter_contains(g, x, prod)]
            if not xs:
                continue
            x = rng.choice(xs)
            gt = germ_of(g, t, x)
            gs = germ_of(g, s, gt.x)
            assert germ_of(g, st_, x) == gp.compose(g, gs, gt)
            done += 1


def test_non_composable_raises(g2):
    x = path(g2, "v:w", PerTail((), ("f1",)))
    y = path(g2, "v:w", PerTail((), ("f2",)))
    with pytest.raises(GroupoidError):
        gp.compose(g2, gp.unit(g2, x), gp.unit(g2, y))


# -- bisections ----------------------------------------------------------


def test_in_bisection_of_construction(graphs, rng):
    for name in ("g2", "g3"):
        g = graphs[name]
        for s, germ in random_germs(g, rng, 150):
            assert gp.in_bisection(g, germ, s)


def test_in_bisection_rejects_wrong_weight(graphs, rng):
    for name in ("g2", "g3"):
        g = graphs[name]
        for s, germ in random_germs(g, rng, 80):
            if germ.weight == gp.ZERO_WEIGHT:
                continue
            flipped = gp.Germ(germ.x, gp.weight_neg(germ.weight), germ.y)
            assert not gp.in_bisection(g, flipped, s)


def test_unit_in_idempotent_bisection_iff_member(graphs, rng):
    for name in ("g2", "g3"):
        g = graphs[name]
        idems = [
            e
            for e in lt.enumerate_idempotents(g, Bounds(1, 2, 2))
        ]
        for x in infinite_paths(g):
            for e in idems:
                assert gp.in_bisection(g, gp.unit(g, x), e) == fl.filter_contains(
                    g, x, e
                )


def test_bisection_endpoints(g3):
    s = w(g3, "a:p.1")
    src, rng_ = gp.bisection_endpoints(g3, s)
    assert [sg.element_to_word(g3, lt.idem_of(g3, mu)) for mu in src.cyls] == [
        "v:p"
    ]
    assert [sg.element_to_word(g3, lt.idem_of(g3, mu)) for mu in rng_.cyls] == [
        "a:p.1 a:p.1*"
    ]


def test_bisection_family(g2):
    assert gp.is_bisection_family(
        g2, [w(g2, "e:f1 e:f2*"), w(g2, "e:f2 e:f1*")]
    )
    assert not gp.is_bisection_family(g2, [w(g2, "e:f1"), w(g2, "e:f2")])


@pytest.mark.parametrize("shape", ["tower_graph", "regular_graph", "mixed_graph"])
def test_bisection_family_matches_products_on_generated_graphs(gen_module, shape, rng):
    # The reference: the sources s*s, and the ranges ss*, multiply pairwise
    # to zero.
    g = parse_graph(getattr(gen_module, shape)("bis-0").text())
    toks = alphabet(g)
    seen = set()
    for _ in range(150):
        fam = []
        for _ in range(rng.randint(2, 4)):
            while sg.is_zero(s := w(g, random_word(rng, toks, 4))):
                pass
            fam.append(s)
        ends = (
            [sg.mul(g, sg.star(g, s), s) for s in fam],
            [sg.mul(g, s, sg.star(g, s)) for s in fam],
        )
        expect = all(
            sg.is_zero(sg.mul(g, a, b))
            for es in ends
            for i, a in enumerate(es)
            for b in es[i + 1 :]
        )
        assert gp.is_bisection_family(g, fam) == expect, fam
        seen.add(expect)
    assert seen == {True, False}
