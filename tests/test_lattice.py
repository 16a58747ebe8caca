import random

import pytest

from sepgroid import lattice as lt, monoid as mn, semigroup as sg
from sepgroid.graph import parse_graph
from sepgroid.lattice import Bounds, CompactOpen, LatticeError

from conftest import _random_cover, _top_idem, alphabet, random_word


def w(g, text):
    return sg.parse_word(g, text)


def co(g, *texts):
    return lt.co_of(g, *(w(g, t) for t in texts))


# -- idempotent paths ----------------------------------------------------


def test_epath_round_trip(graphs, rng):
    for g in graphs.values():
        toks = alphabet(g)
        for _ in range(200):
            s = w(g, random_word(rng, toks, 5))
            e = sg.mul(g, sg.star(g, s), s)
            if sg.is_zero(e):
                continue
            assert lt.idem_of(g, lt.epath_of(g, e)) == e


def test_meet_and_order(g3):
    e = w(g3, "a:p.1 a:p.1*")
    f = w(g3, "a:p.1 a:p.1 a:p.1* a:p.1*")
    assert lt.nat_leq(g3, f, e)
    assert not lt.nat_leq(g3, e, f)
    assert lt.meet(g3, e, f) == f
    assert sg.is_zero(lt.meet(g3, e, w(g3, "b:p.1.1 b:p.1.1*")))


def test_join_free(g1):
    a = lt.epath_of(g1, w(g1, "a:p.1 a:p.1* " * 1))
    e = lt.idem_of(g1, lt.EPath(a.gamma, "p", (1, 4)))
    f = lt.idem_of(g1, lt.EPath(a.gamma, "p", (3, 2)))
    j = lt.join_free(g1, e, f)
    assert lt.epath_of(g1, j).tail == (1, 2)
    assert lt.nat_leq(g1, e, j) and lt.nat_leq(g1, f, j)


# -- expansion -----------------------------------------------------------


def test_simple_expand_g3(g3):
    base = w(g3, "v:p")
    out = lt.simple_expand(g3, base, 1)
    words = sorted(sg.element_to_word(g3, x) for x in out)
    assert words == ["a:p.1 a:p.1*", "b:p.1.1 b:p.1.1*"]


def test_simple_expand_g2(g2):
    out = lt.simple_expand(g2, w(g2, "v:w"))
    words = sorted(sg.element_to_word(g2, x) for x in out)
    assert words == ["e:f1 e:f1*", "e:f2 e:f2*"]


def test_expand_script(g3):
    out = lt.expand(g3, w(g3, "v:p"), [(0, 1), (0, 1)])
    words = sorted(sg.element_to_word(g3, x) for x in out)
    assert words == [
        "a:p.1 a:p.1 a:p.1* a:p.1*",
        "a:p.1 b:p.1.1 b:p.1.1* a:p.1*",
        "b:p.1.1 b:p.1.1*",
    ]


def test_expand_point_prime_fails(g1):
    with pytest.raises(LatticeError):
        lt.simple_expand(g1, w(g1, "b:p.1.1 b:p.1.1*"), 1)


# -- covers --------------------------------------------------------------


def test_orthogonal_cover_and_inverse(graphs, rng):
    for name in ("g1", "g2", "g3"):
        g = graphs[name]
        base = _top_idem(g)
        for _ in range(150):
            pieces = [base]
            for _ in range(rng.randint(0, 3)):
                cand = [
                    i
                    for i, x in enumerate(pieces)
                    if not _is_point(g, lt.epath_of(g, x))
                ]
                if not cand:
                    break
                pos = rng.choice(cand)
                mu = lt.epath_of(g, pieces[pos])
                ch = rng.randint(1, g.k(mu.p)) if g.is_free(mu.p) else None
                pieces[pos : pos + 1] = lt.simple_expand(g, pieces[pos], ch)
            assert lt.is_orthogonal_cover(g, base, pieces)
            script = lt.cover_to_expansion(g, base, pieces)
            replay = lt.expand(g, base, script)
            assert sorted(map(repr, replay)) == sorted(map(repr, pieces))


def test_cover_rejects_overlap(g3):
    base = w(g3, "v:p")
    e = w(g3, "a:p.1 a:p.1*")
    assert not lt.is_orthogonal_cover(g3, base, [e, e])
    assert not lt.is_orthogonal_cover(g3, base, [e])  # misses the connector


def test_orthogonalize_cover(g1):
    base = w(g1, "v:p")
    a = lt.idem_of(g1, lt.EPath(lt.epath_of(g1, base).gamma, "p", (1, 0)))
    b = lt.idem_of(g1, lt.EPath(lt.epath_of(g1, base).gamma, "p", (0, 1)))
    sigma = [base, a, b]
    out = lt.orthogonalize_cover(g1, base, sigma)
    assert lt.is_orthogonal_cover(g1, base, out)
    assert lt.co_eq(g1, lt.co_of(g1, *out), lt.co_of(g1, base))


# -- covers against their definitions by products ------------------------


def _defects(g, e, sigma):
    """What keeps sigma from being an orthogonal cover of e, by products
    alone: the error for the first member that is not a nonzero idempotent
    (f f != f) or not below e (f e != f), else whether two members meet (a
    nonzero f h) and whether their union is Z(e)."""
    bad_member = None
    for f in sigma:
        if sg.is_zero(f) or sg.mul(g, f, f) != f:
            bad_member = "cover member is not a nonzero idempotent"
        elif sg.mul(g, f, e) != f:
            bad_member = "cover member not below e"
        if bad_member:
            return bad_member, None, None
    overlap = any(
        not sg.is_zero(sg.mul(g, f, h)) for i, f in enumerate(sigma) for h in sigma[i + 1 :]
    )
    covering = lt.co_eq(g, lt.co_of(g, *sigma), lt.co_of(g, e))
    return None, overlap, covering


def _cover_cases(g, rng, count):
    """(e, sigma) pairs: random orthogonal covers of pool idempotents, each
    kept as it is or broken by an overlapping pair, a member not below e, a
    missing piece or a non-idempotent member (one or two of these)."""
    pool = list(lt.enumerate_idempotents(g, Bounds(1, 1, 2)))
    toks = alphabet(g)
    for _ in range(count):
        e = rng.choice(pool)
        cover = _random_cover(g, rng, e, rng.randint(0, 3))
        sigma = list(cover)
        for fault in rng.sample(["none", "overlap", "outside", "missing", "stray"], rng.randint(1, 2)):
            if fault == "overlap":  # a copy, e itself, or a piece of a member
                f = rng.choice(cover)
                sigma.append(rng.choice([f, e] + _random_cover(g, rng, f, 1)))
            elif fault == "outside":
                sigma.append(rng.choice(pool))
            elif fault == "missing" and sigma:
                del sigma[rng.randrange(len(sigma))]
            elif fault == "stray":
                sigma.append(rng.choice([sg.ZERO, sg.parse_word(g, random_word(rng, toks, 3))]))
        rng.shuffle(sigma)
        yield e, sigma


def _check_covers_by_products(g, rng, count, monkeypatch):
    """is_orthogonal_cover, orthogonalize_cover and cover_to_expansion agree
    with _defects on every case, and each turns every idempotent it is
    given into its E-path once (fewer times when it stops early).  Returns
    the kinds of case seen: the bad member's error, else (overlap,
    covering)."""
    calls = []
    real = lt._epath

    def counted(e, name):
        calls.append(e)
        return real(e, name)

    monkeypatch.setattr(lt, "_epath", counted)
    kinds = set()
    for e, sigma in _cover_cases(g, rng, count):
        bad_member, overlap, covering = _defects(g, e, sigma)
        ortho_cover = bad_member is None and not overlap and covering
        kinds.add(bad_member or (overlap, covering))
        calls.clear()
        assert lt.is_orthogonal_cover(g, e, sigma) == ortho_cover, (e, sigma)
        assert len(calls) <= len(sigma) + 1
        assert len(calls) == len(sigma) + 1 or not ortho_cover

        calls.clear()
        if ortho_cover:
            script = lt.cover_to_expansion(g, e, sigma)
            assert len(calls) == len(sigma) + 1
        else:
            with pytest.raises(LatticeError, match="not an orthogonal cover"):
                lt.cover_to_expansion(g, e, sigma)

        calls.clear()
        if bad_member or not covering:
            with pytest.raises(LatticeError, match=bad_member or "input is not a cover of e"):
                lt.orthogonalize_cover(g, e, sigma)
            out = None
        else:
            out = lt.orthogonalize_cover(g, e, sigma)
            assert len(calls) == len(sigma) + 1

        if ortho_cover:
            replay = lt.expand(g, e, script)
            assert sorted(map(repr, replay)) == sorted(map(repr, sigma))
            assert sorted(map(repr, out)) == sorted(map(repr, sigma))
        if out is not None:
            assert _defects(g, e, out) == (None, False, True), (e, sigma, out)
    return kinds


COVER_KINDS = {
    "cover member is not a nonzero idempotent",
    "cover member not below e",
    (False, True),  # an orthogonal cover
    (True, True),  # an overlapping cover
    (False, False),  # a piece missing
}


@pytest.mark.parametrize("name", ["g0", "g1", "g2", "g3"])
def test_cover_predicates_match_their_definitions_on_fixtures(graphs, name, monkeypatch):
    kinds = _check_covers_by_products(graphs[name], random.Random(name), 300, monkeypatch)
    # g0 has a single vertex, a point: every idempotent lies below every other
    assert kinds >= COVER_KINDS - ({"cover member not below e"} if name == "g0" else set())


@pytest.mark.parametrize("shape", ["tower_graph", "regular_graph", "mixed_graph"])
def test_cover_predicates_match_their_definitions_on_generated(gen_module, shape, monkeypatch):
    g = parse_graph(getattr(gen_module, shape)("cover-0").text())
    assert _check_covers_by_products(g, random.Random(shape), 200, monkeypatch) >= COVER_KINDS


# -- cylinder algebra ----------------------------------------------------


def test_subtract_examples(g3, g2):
    diff = lt.co_subtract(
        g3, co(g3, "v:p"), co(g3, "a:p.1 a:p.1*")
    )
    assert [sg.element_to_word(g3, lt.idem_of(g3, mu)) for mu in diff.cyls] == [
        "b:p.1.1 b:p.1.1*"
    ]
    diff2 = lt.co_subtract(g2, co(g2, "v:w"), co(g2, "e:f1 e:f1*"))
    assert [sg.element_to_word(g2, lt.idem_of(g2, mu)) for mu in diff2.cyls] == [
        "e:f2 e:f2*"
    ]


def test_free_subtract_decomposition(g1):
    # Z(v:p) minus Z(a:p.1 a:p.1*) leaves the exponent-0 slab of class 1
    diff = lt.co_subtract(g1, co(g1, "v:p"), co(g1, "a:p.1 a:p.1*"))
    words = sorted(
        sg.element_to_word(g1, lt.idem_of(g1, mu)) for mu in diff.cyls
    )
    assert words == ["b:p.1.1 b:p.1.1*"]


def test_boolean_ring_laws(graphs, rng):
    for name in ("g1", "g2", "g3"):
        g = graphs[name]
        toks = alphabet(g)

        def rand_co():
            cyls = []
            for _ in range(rng.randint(1, 3)):
                s = w(g, random_word(rng, toks, 4))
                e = sg.mul(g, sg.star(g, s), s)
                if not sg.is_zero(e):
                    cyls.append(e)
            return lt.co_of(g, *cyls)

        for _ in range(40):
            a, b, c = rand_co(), rand_co(), rand_co()
            assert lt.co_eq(g, lt.co_intersect(g, a, b), lt.co_intersect(g, b, a))
            assert lt.co_eq(
                g,
                lt.co_intersect(g, a, lt.co_union(g, b, c)),
                lt.co_union(
                    g, lt.co_intersect(g, a, b), lt.co_intersect(g, a, c)
                ),
            )
            amb = lt.co_subtract(g, a, b)
            assert lt.co_is_empty(lt.co_intersect(g, amb, b))
            assert lt.co_eq(
                g, lt.co_union(g, amb, lt.co_intersect(g, a, b)), a
            )


def test_co_eq_compares_canonical_forms_first(g3, monkeypatch):
    whole = co(g3, "v:p")
    halves = lt.co_of(g3, *lt.simple_expand(g3, w(g3, "v:p"), 1))
    # different forms of one set: decided by subtraction
    assert whole != halves
    assert lt.co_eq(g3, whole, halves) and lt.co_eq(g3, halves, whole)
    assert not lt.co_eq(g3, whole, co(g3, "v:w"))
    assert not lt.co_eq(g3, halves, co(g3, "a:p.1 a:p.1*"))

    def no_subtraction(*args):
        raise AssertionError("identical forms need no subtraction")

    monkeypatch.setattr(lt, "co_subtract", no_subtraction)
    assert lt.co_eq(g3, halves, CompactOpen(halves.cyls))


def test_empty_compact_open(g1):
    empty = CompactOpen(())
    assert lt.co_is_empty(empty)
    a = co(g1, "v:p")
    assert lt.co_eq(g1, lt.co_intersect(g1, a, empty), empty)
    assert lt.co_eq(g1, lt.co_union(g1, a, empty), a)


def test_enumerations_are_bounded(graphs):
    for g in graphs.values():
        idems = list(lt.enumerate_idempotents(g, Bounds(1, 2, 3)))
        assert idems
        for e in idems:
            assert sg.is_idempotent(e)
        assert len(set(idems)) == len(idems)


# -- the meet rule against the semigroup product -------------------------


MEET_BOUNDS = Bounds(2, 2, 3)


def _epath_pool(g):
    """The E-paths of g within MEET_BOUNDS, grouped by every prefix of
    their c-paths (the empty prefix groups them by start)."""
    by_prefix = {}
    for v in sorted(g.vertex_prime):
        for mu in lt.enumerate_epaths(g, v, MEET_BOUNDS):
            steps = mu.gamma.steps
            for n in range(len(steps) + 1):
                by_prefix.setdefault((v, steps[:n]), []).append(mu)
    return by_prefix


def _pairs(g, rng, count):
    """count pairs of E-paths with one start: half drawn at random, half
    sharing a c-path prefix, so that many of them meet."""
    by_prefix = _epath_pool(g)
    starts = [key for key in by_prefix if not key[1]]
    for k in range(count):
        mu = rng.choice(by_prefix[rng.choice(starts)])
        steps = mu.gamma.steps
        n = rng.randint(0, len(steps)) if k % 2 else 0
        yield mu, rng.choice(by_prefix[(mu.gamma.start, steps[:n])])


def _product_meet(g, mu, rho):
    m = sg.mul(g, lt.trusted_idem(g, mu), lt.trusted_idem(g, rho))
    return None if sg.is_zero(m) else lt.epath_of(g, m)


def _check_meets(g, pairs):
    """Every meet operation agrees with the product on every pair; returns
    the number of nonzero meets."""
    nonzero = 0
    for mu, rho in pairs:
        e, f = lt.trusted_idem(g, mu), lt.trusted_idem(g, rho)
        ef = sg.mul(g, e, f)
        expect = None if sg.is_zero(ef) else lt.epath_of(g, ef)
        assert lt._cyl_meet(g, mu, rho) == expect, (mu, rho)
        assert lt._cyl_meet(g, rho, mu) == expect, (rho, mu)
        assert lt.meet(g, e, f) == ef
        assert lt.nat_leq(g, e, f) == (ef == e)
        assert (lt.disjoint_union(g, [e, f]) is None) == (expect is not None)
        nonzero += expect is not None
    return nonzero


def _covered_by_products(g, x, parts):
    """Whether the cylinders of parts cover Z(x), decided by semigroup
    products alone: descend by simple expansions towards a part that meets
    x until every branch lies in a part or meets none."""
    meets = [sg.mul(g, x, p) for p in parts]
    if x in meets:
        return True
    below = [m for m in meets if not sg.is_zero(m)]
    if not below:
        return False
    mu = lt.epath_of(g, x)
    choice = lt._direction(g, mu, lt.epath_of(g, below[0])) if g.is_free(mu.p) else None
    return all(_covered_by_products(g, c, parts) for c in lt.simple_expand(g, x, choice))


def _check_single_subtractions(g, pairs):
    """Z(mu) - Z(rho) from co_subtract, checked with products: the pieces
    are pairwise orthogonal, lie below mu, miss rho, and with the meet they
    cover mu."""
    for mu, rho in pairs:
        e, f = lt.trusted_idem(g, mu), lt.trusted_idem(g, rho)
        diff = lt.co_subtract(g, CompactOpen((mu,)), CompactOpen((rho,)))
        pieces = [lt.trusted_idem(g, c) for c in diff.cyls]
        for i, p in enumerate(pieces):
            assert sg.mul(g, p, e) == p
            assert sg.is_zero(sg.mul(g, p, f))
            for q in pieces[i + 1 :]:
                assert sg.is_zero(sg.mul(g, p, q))
        ef = sg.mul(g, e, f)
        parts = pieces + ([] if sg.is_zero(ef) else [ef])
        assert _covered_by_products(g, e, parts), (mu, rho)


@pytest.mark.parametrize("name", ["g0", "g1", "g2", "g3"])
def test_meet_rule_matches_the_product_on_fixtures(graphs, name):
    g = graphs[name]
    by_prefix = _epath_pool(g)
    pairs = [
        (mu, rho)
        for key, group in by_prefix.items()
        if not key[1]
        for mu in group
        for rho in group
    ]
    assert _check_meets(g, pairs) > 0
    _check_single_subtractions(g, random.Random(name).sample(pairs, min(300, len(pairs))))


@pytest.mark.parametrize("shape", ["tower_graph", "regular_graph", "mixed_graph"])
def test_meet_rule_matches_the_product_on_generated(gen_module, shape):
    nonzero = 0
    for tag in ("meet-0", "meet-1"):
        g = parse_graph(getattr(gen_module, shape)(tag).text())
        rng = random.Random(f"{shape}/{tag}")
        nonzero += _check_meets(g, _pairs(g, rng, 4000))
        _check_single_subtractions(g, _pairs(g, rng, 200))
    assert nonzero >= 500


# -- the trust boundary --------------------------------------------------


GENERATED = [
    (shape, tag) for shape in ("tower_graph", "regular_graph", "mixed_graph")
    for tag in ("trust-0", "trust-1")
]


def _valid(g, e):
    sg.validate_element(g, e)
    return e


def _check_cylinders(g, a):
    for mu in a.cyls:
        assert lt.epath_of(g, _valid(g, lt.trusted_idem(g, mu))) == mu


def _check_library_built_elements(g, rng):
    pool = [_valid(g, e) for e in lt.enumerate_idempotents(g, Bounds(1, 1, 2))]
    expandable = [e for e in pool if not _is_point(g, lt.epath_of(g, e))] or pool
    budget = mn.Budget(max_states=300, max_weight=10)
    for _ in range(12):
        base = rng.choice(expandable)
        pieces, script = [base], []
        for _ in range(rng.randint(1, 3)):
            cand = [i for i, x in enumerate(pieces) if not _is_point(g, lt.epath_of(g, x))]
            if not cand:
                break
            pos = rng.choice(cand)
            mu = lt.epath_of(g, pieces[pos])
            ch = rng.randint(1, g.k(mu.p)) if g.is_free(mu.p) else None
            script.append((pos, ch))
            pieces[pos : pos + 1] = [_valid(g, x) for x in lt.simple_expand(g, pieces[pos], ch)]
        assert [_valid(g, x) for x in lt.expand(g, base, script)] == pieces
        replay = lt.expand(g, base, lt.cover_to_expansion(g, base, pieces))
        assert sorted(map(repr, (_valid(g, x) for x in replay))) == sorted(map(repr, pieces))
        redundant = pieces + [base]
        for x in lt.orthogonalize_cover(g, base, redundant):
            _valid(g, x)

        a = lt.co_of(g, base)
        b = lt.co_of(g, *rng.sample(pieces, rng.randint(1, len(pieces))))
        c = lt.co_of(g, rng.choice(pool), rng.choice(pool))
        for x in (a, b, c):
            _check_cylinders(g, x)
        for x, y in ((a, b), (a, c), (c, b)):
            _check_cylinders(g, lt.co_subtract(g, x, y))
            _check_cylinders(g, lt.co_intersect(g, x, y))
            _check_cylinders(g, lt.co_union(g, x, y))

        cert = mn.equidecompose(g, a, lt.co_of(g, *pieces), budget)
        assert isinstance(cert, mn.EquidecompCertificate)
        for x in cert.elements + cert.sources + cert.ranges:
            _valid(g, x)


@pytest.mark.parametrize("name", ["g0", "g1", "g2", "g3"])
def test_library_built_elements_validate_on_fixtures(graphs, name):
    _check_library_built_elements(graphs[name], random.Random(name))


@pytest.mark.parametrize("shape,tag", GENERATED)
def test_library_built_elements_validate_on_generated(gen_module, shape, tag):
    g = parse_graph(getattr(gen_module, shape)(tag).text())
    _check_library_built_elements(g, random.Random(f"{shape}/{tag}"))


def test_public_idem_of_rejects_malformed_epaths(g1, g3):
    top = lt.epath_of(g1, w(g1, "v:p"))
    with pytest.raises(LatticeError, match="^free prime needs a loop-count tail$"):
        lt.idem_of(g1, lt.EPath(top.gamma, "p", (1, 0, 0)))
    g = parse_graph(
        "graph two\nregular r\nvertex u v\n"
        "edge e1: u -> v\nedge e2: u -> u\nedge e3: v -> u\nedge e4: v -> v\n"
    )
    at_u = lt.epath_of(g, w(g, "v:u"))
    assert lt.idem_of(g, lt.EPath(at_u.gamma, "r", ("e1", "e3"))) == w(g, "e:e1 e:e3 e:e3* e:e1*")
    with pytest.raises(LatticeError, match="^tail edge e1 does not continue at v$"):
        lt.idem_of(g, lt.EPath(at_u.gamma, "r", ("e1", "e1")))
    below = lt.epath_of(g3, w(g3, "b:p.1.1 b:p.1.1*"))
    with pytest.raises(LatticeError, match="^prefix ends at w, not in p$"):
        lt.idem_of(g3, lt.EPath(below.gamma, "p", (0,)))
    # a loop exponent is an int >= 0; a float, a string or a bool would
    # make an element that element_to_word or validate_element trips on
    at_p = lt.epath_of(g3, w(g3, "v:p"))
    for tail, x in (((1.5,), r"1\.5"), (("2",), "'2'"), ((True,), "True"), ((-1,), "-1")):
        with pytest.raises(LatticeError, match=f"^bad loop count {x}$"):
            lt.idem_of(g3, lt.EPath(at_p.gamma, "p", tail))


# -- helpers -------------------------------------------------------------


def _is_point(g, mu):
    return g.is_free(mu.p) and g.k(mu.p) == 0
