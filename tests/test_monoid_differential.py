"""The integer-vector search of `sepgroid.monoid` against the searches it
replaced, kept in `monoid_reference.py`, on the fixtures and on graphs from
the benchmark's seeded generator."""

import random
from collections import Counter
from itertools import combinations
from operator import le

import pytest

from sepgroid import lattice as lt, monoid as mn, semigroup as sg
from sepgroid.graph import parse_graph
from sepgroid.monoid import Budget, MonoidError, No, Unknown, Yes, mon_add, mon_of

import monoid_reference as ref
from conftest import _random_cover, _top_idem

BUDGETS = [Budget(3, 6), Budget(50, 8), Budget(300, 10)]
GRAPHS = ["g0", "g1", "g2", "g3"] + [
    f"{shape}/diff-{i}"
    for shape in ("tower_graph", "regular_graph", "mixed_graph")
    for i in (0, 1)
]


def _graph(name, graphs, gen_module):
    if name in graphs:
        return graphs[name]
    shape, tag = name.split("/")
    return parse_graph(getattr(gen_module, shape)(tag).text())


def _random_elem(rng, verts, max_weight):
    d = {}
    for _ in range(rng.randint(1, max_weight)):
        v = rng.choice(verts)
        d[v] = d.get(v, 0) + 1
    return mon_of(d)


def _expanded(rng, pres, x, steps):
    """x after up to `steps` random relations applied left to right."""
    for _ in range(steps):
        rels = [r for r in pres.relations if ref.mon_geq(x, mn.mon_unit(r.vertex))]
        if not rels:
            break
        r = rng.choice(rels)
        x = mon_add(ref.mon_sub(x, mn.mon_unit(r.vertex)), r.rhs)
    return x


def _both(fn_new, fn_ref, *args):
    """Both results, with a MonoidError standing for its message."""
    out = []
    for fn in (fn_new, fn_ref):
        try:
            out.append(fn(*args))
        except MonoidError as exc:
            out.append(("MonoidError", str(exc)))
    return out


def _system(pres, budget):
    """The graph's completed system, which must pass verify_inequality, or
    None when completion gave up."""
    system = mn.complete(pres, budget)
    if isinstance(system, Unknown):
        return None
    assert mn.verify_inequality(pres, system)
    return system


def _proves_unequal(pres, x, y, budget):
    """Whether the graph's completed system gives x and y different normal
    forms."""
    system = _system(pres, budget)
    if system is None:
        return False
    return system.normal_form(mn._vector(pres, x)) != system.normal_form(mn._vector(pres, y))


def _proves_equal(pres, x, y, budget):
    """Whether x = y is shown without the search under test: by a Yes of the
    reference search under a weight cap that covers both sides, or by equal
    normal forms of the graph's completed system."""
    cap = max(ref.mon_weight(x), ref.mon_weight(y))
    if isinstance(ref.mon_eq(pres, x, y, Budget(2000, cap)), Yes):
        return True
    system = _system(pres, budget)
    if system is None:
        return False
    return system.normal_form(mn._vector(pres, x)) == system.normal_form(mn._vector(pres, y))


def _expansion_closures(pres, x, y, budget):
    """The reference's expansion-only closures of x and y, each run until it
    is exhausted or over the state cap."""
    return [ref._expansion_closure(pres, mn._vector(pres, u), budget) for u in (x, y)]


def _closures_prove_unequal(pres, x, y, budget):
    """Whether the two expansion-only closures prove x and y unequal: both
    exhausted, both starts within the weight cap, one with nothing pruned
    (it then holds every expansion of its start, which the other would have
    reached), and no state in common."""
    a, b = _expansion_closures(pres, x, y, budget)
    return (
        not (a.queue or b.queue or (a.pruned and b.pruned))
        and max(ref.mon_weight(x), ref.mon_weight(y)) <= budget.max_weight
        and not set(a.parents) & set(b.parents)
    )


def _relation_step(pres, u, v):
    """Whether v is u with one relation applied, either way round."""
    return any(
        ref.mon_geq(u, l) and v == mon_add(ref.mon_sub(u, l), r)
        for rel in pres.relations
        for l, r in ((mn.mon_unit(rel.vertex), rel.rhs), (rel.rhs, mn.mon_unit(rel.vertex)))
    )


def _check_mon_eq(pres, x, y, budget, new, old):
    """An answer of mon_eq's search against the reference BFS's answer
    `old`.  It never contradicts a reference Yes or No.  A Yes path is a
    chain of relation steps from x to y.  A No is proven by normal forms or
    by the reference's expansion-only closures.  A reference No never
    becomes Unknown, and a reference Yes becomes Unknown only where an
    expansion-only closure, capped alone, is cut by the state cap (the
    reference caps its two sides together and may meet through
    contractions)."""
    case = (x, y, budget, new, old)
    if isinstance(new, Yes):
        assert not isinstance(old, No), case
        assert new.path[0] == x and new.path[-1] == y, case
        assert all(_relation_step(pres, u, v) for u, v in zip(new.path, new.path[1:])), case
    elif isinstance(new, No):
        assert not isinstance(old, Yes), case
        assert _proves_unequal(pres, x, y, budget) or _closures_prove_unequal(pres, x, y, budget), case
    else:
        assert isinstance(new, Unknown) and not isinstance(old, No), case
        assert new.reason in ("state cap", "weight cap", "completion budget"), case
        if isinstance(old, Yes):
            assert any(c.queue for c in _expansion_closures(pres, x, y, budget)), case


def _check_refinement(pres, quad, budget):
    """refinement_witness asks the search one question, whether a+b = c+d,
    and answers as mon_eq would: MonoidError on its No, its Unknown, and a
    witness on its Yes.  That answer is checked as `_check_mon_eq` checks
    mon_eq's against the reference BFS.  The witness, split from the trails
    of that Yes, may be heavier than the budget's weight cap, so its
    coefficients must be positive and each of its four equations is shown
    independently (`_proves_equal`)."""
    a, b, c, d = quad
    x, y = mon_add(a, b), mon_add(c, d)
    eq = ref.mon_eq(pres, x, y, budget)
    try:
        new = mn.refinement_witness(pres, *quad, budget)
    except MonoidError as exc:
        assert str(exc) == "a+b and c+d are unequal", (quad, budget, exc)
        _check_mon_eq(pres, x, y, budget, No(), eq)
        return
    if isinstance(new, Unknown):
        _check_mon_eq(pres, x, y, budget, new, eq)
        return
    assert not isinstance(eq, No), (quad, budget, new)
    assert isinstance(new, tuple) and all(isinstance(m, mn.MonElem) for m in new), (quad, budget, new)
    assert all(n > 0 for m in new for _, n in m.counts), (quad, budget, new)
    w, x, y, z = new
    for part, whole in ((mon_add(w, x), a), (mon_add(y, z), b), (mon_add(w, y), c), (mon_add(x, z), d)):
        assert _proves_equal(pres, part, whole, budget), (quad, budget, new)


def _leq_closures(pres, x, y, budget):
    """The reference's expansion-only closures of x and y, for a pair scan:
    y's at the budget, and x's at the weight of y's heaviest state and no
    state cap, so that it holds every expansion of x that can lie below a
    state of y's."""
    b = ref._expansion_closure(pres, mn._vector(pres, y), budget)
    cap = max(map(sum, b.parents))
    a = ref._expansion_closure(pres, mn._vector(pres, x), Budget(10**6, cap))
    assert not a.queue
    return a, b


def _check_mon_leq(pres, x, y, budget, new, old):
    """An answer of mon_leq against the reference's `old`, which reads y's
    class through contractions and never answers No.  mon_leq never
    contradicts it.  A Yes(z) shows x + z = y: by equal normal forms where
    completion finished, else by a Yes of the reference search in at most
    2000 states, at the budget's weight cap or the weight of either side if
    that is more; and mon_eq never answers No on it.  A No is proven
    by y's closure, exhausted with nothing pruned, and a pair scan in which
    no expansion of x lies below a state of it.  A reference Yes becomes
    Unknown only at the state or weight cap."""
    case = (x, y, budget, new, old)
    if isinstance(new, Yes):
        (z,) = new.path
        xz = mon_add(x, z)
        system = _system(pres, budget)
        if system is not None:
            nf = system.normal_form
            assert nf(mn._vector(pres, xz)) == nf(mn._vector(pres, y)), case
        else:
            cap = max(budget.max_weight, ref.mon_weight(xz), ref.mon_weight(y))
            assert isinstance(ref.mon_eq(pres, xz, y, Budget(2000, cap)), Yes), case
        assert not isinstance(mn.mon_eq(pres, xz, y, budget), No), case
    elif isinstance(new, No):
        assert not isinstance(old, Yes), case
        a, b = _leq_closures(pres, x, y, budget)
        assert not (b.queue or b.pruned), case
        assert not any(all(map(le, u, v)) for u in a.parents for v in b.parents), case
    else:
        assert isinstance(new, Unknown), case
        assert new.reason in ("state cap", "weight cap"), case


def _compact_opens(rng, g, pool):
    base = rng.choice(pool)
    yield lt.co_of(g, base), lt.co_of(g, *_random_cover(g, rng, base, rng.randint(1, 3)))
    yield lt.co_of(g, rng.choice(pool)), lt.co_of(g, rng.choice(pool), rng.choice(pool))


def test_connect_idempotents(g2, g3):
    e1, e2 = sg.parse_word(g3, "v:p"), sg.parse_word(g3, "a:p.1 a:p.1*")
    s = ref.connect_idempotents(g3, e1, e2)
    assert sg.mul(g3, s, sg.star(g3, s)) == e1
    assert sg.mul(g3, sg.star(g3, s), s) == e2
    f1, f2 = sg.parse_word(g2, "e:f1 e:f1*"), sg.parse_word(g2, "e:f2 e:f2*")
    t = ref.connect_idempotents(g2, f1, f2)
    assert sg.mul(g2, t, sg.star(g2, t)) == f1
    assert sg.mul(g2, sg.star(g2, t), t) == f2


@pytest.mark.parametrize("name", GRAPHS)
def test_one_search_matches_the_reference(graphs, gen_module, name):
    g = _graph(name, graphs, gen_module)
    rng = random.Random(name)
    pres = mn.presentation(g)
    verts = list(pres.vertices)
    pool = list(lt.enumerate_idempotents(g, lt.Bounds(max_depth=1, max_exp=1, max_len=1)))
    leq_rng = random.Random(name + "/leq")
    for budget in BUDGETS:
        for _ in range(6):
            x = _random_elem(rng, verts, 3)
            for y in (_random_elem(rng, verts, 3), _expanded(rng, pres, x, 3)):
                new, old = _both(mn.mon_eq, ref.mon_eq, pres, x, y, budget)
                _check_mon_eq(pres, x, y, budget, new, old)

            z = _random_elem(rng, verts, 2)
            ys = [_expanded(rng, pres, mon_add(x, z), 2)]
            # unrelated pairs, where No can come; the reference's closure
            # costs seconds at the largest budget
            if budget.max_states <= 50:
                ys.append(_random_elem(leq_rng, verts, 3))
            for y in ys:
                new, old = _both(mn.mon_leq, ref.mon_leq, pres, x, y, budget)
                _check_mon_leq(pres, x, y, budget, new, old)

        for _ in range(2):
            w, x, y, z = (_random_elem(rng, verts, 1) for _ in range(4))
            quad = (mon_add(w, x), mon_add(y, z), mon_add(w, y), _expanded(rng, pres, mon_add(x, z), 2))
            _check_refinement(pres, quad, budget)

        for a, b in _compact_opens(rng, g, pool):
            new, old = _both(mn.equidecompose, ref.equidecompose, g, a, b, budget)
            ta, tb = mn.typ_of(g, a), mn.typ_of(g, b)
            gate = ref.mon_eq(pres, ta, tb, budget)
            if not isinstance(new, Unknown):
                assert not isinstance(gate, mn.No), (a, b, budget)
            elif new.reason == "types unequal":
                assert not isinstance(gate, Yes), (a, b, budget)
                assert _proves_unequal(pres, ta, tb, budget) or _closures_prove_unequal(
                    pres, ta, tb, budget), (a, b, budget)
            # The reference still runs its mon_eq gate first; the new code
            # answers from its expansion-only closures alone, so it may find
            # a certificate where that gate gives up.
            if isinstance(old, Unknown) and not isinstance(new, Unknown) and not isinstance(gate, Yes):
                assert mn.verify_certificate(g, new, a, b), (a, b, budget)
                continue
            if isinstance(new, Unknown) or isinstance(old, Unknown):
                assert new == old == Unknown(), (a, b, budget)
                continue
            assert mn.verify_certificate(g, new, a, b) and mn.verify_certificate(g, old, a, b)
            assert len(new.elements) == len(old.elements)


@pytest.mark.parametrize("name", ["g0", "g1", "g2", "g3"] + [
    f"{shape}/below-{i}" for shape in ("tower_graph", "regular_graph", "mixed_graph") for i in (0, 1)
])
def test_below_matches_the_expansion_closure(graphs, gen_module, name):
    """`_below(u, b)` is None exactly when the reference expansion-only
    closure of u, at weight cap sum(b) and exhausted, holds no state <= b,
    and otherwise a state of it <= b.  u weighs at most 3; b is drawn from
    a partial closure at weight cap 9, of u plus a small z (where an answer
    always exists) or of an unrelated state."""
    g = _graph(name, graphs, gen_module)
    pres = mn.presentation(g)
    lower = {v: change for v, change, _, _ in pres._moves if (v, -1) in change}
    rng = random.Random(name)
    verts = list(pres.vertices)
    answers = Counter()
    for _ in range(40):
        x = _random_elem(rng, verts, 3)
        y = mon_add(x, _random_elem(rng, verts, 2)) if rng.random() < 0.5 else _random_elem(rng, verts, 3)
        u = mn._vector(pres, x)
        closure = ref._expansion_closure(pres, mn._vector(pres, y), Budget(200, 9))
        for b in rng.sample(list(closure.parents), min(5, len(closure.parents))):
            got = mn._below(lower, u, b)
            assert got == ref.below_one_copy(lower, u, b), (x, b)
            reach = ref._expansion_closure(pres, u, Budget(10**6, sum(b)))
            assert not reach.queue, (x, b)
            below = [a for a in reach.parents if all(map(le, a, b))]
            assert (got is None) == (not below), (x, b, got)
            if got is not None:
                assert got in reach.parents and all(map(le, got, b)), (x, b, got)
            answers[got is None] += 1
    # both answers occur on every graph
    assert answers[False] and answers[True], answers


def test_mon_leq_stops_at_its_first_witness(graphs, gen_module, monkeypatch):
    """At the default budget each of these needs one expansion of y's
    closure, where running y's class to the state cap took 820 and 44,768."""
    expand = mn._Search.expand
    expanded = []

    def counted(search):
        expanded.append(search.queue[0])
        return expand(search)

    monkeypatch.setattr(mn._Search, "expand", counted)
    tower = _graph("tower_graph/diff-0", graphs, gen_module)
    for g, x, y in ((graphs["g1"], "q1", "p"), (tower, "p2", "p3")):
        expanded.clear()
        res = mn.mon_leq(mn.presentation(g), mn.mon_unit(x), mn.mon_unit(y))
        assert isinstance(res, Yes), (x, y, res)
        assert 0 < len(expanded) < 10, (x, y, len(expanded))


def test_normal_forms_agree_with_the_search(gen_module):
    """On generated graphs the completed system verifies, and its normal
    forms are equal wherever the reference search proves Yes and differ
    wherever it proves No (pairs of vertices give most of the No answers).
    Tower graphs need up to about 600 critical pairs."""
    answers = Counter()
    for name in [f"mixed_graph/nf-{i}" for i in range(6)] + ["tower_graph/diff-0", "tower_graph/diff-1"]:
        g = _graph(name, {}, gen_module)
        pres = mn.presentation(g)
        system = mn.complete(pres, Budget(1000, 10))
        assert isinstance(system, mn.RewritingSystem), name
        assert mn.verify_inequality(pres, system), name
        rng = random.Random(name)
        verts = list(pres.vertices)
        pairs = [(mn.mon_unit(v), mn.mon_unit(u)) for v, u in combinations(verts, 2)]
        for _ in range(30):
            x = _random_elem(rng, verts, 3)
            pairs += [(x, _random_elem(rng, verts, 3)), (x, _expanded(rng, pres, x, 3))]
        for x, y in pairs:
            bfs = ref.mon_eq(pres, x, y, Budget(50, 10))
            same = system.normal_form(mn._vector(pres, x)) == system.normal_form(mn._vector(pres, y))
            if not isinstance(bfs, Unknown):
                assert same == isinstance(bfs, Yes), (name, x, y, bfs)
            answers[type(bfs).__name__] += 1
    assert answers["Yes"] >= 200 and answers["No"] >= 15, answers


def test_completion_out_of_budget_leaves_the_search(gen_module):
    """regular_graph("diff-0") does not complete within 300 critical pairs;
    mon_eq then answers from its expansion-only closures alone, checked
    against the reference search as everywhere, and its Unknowns name the
    completion budget.  Its No answers are all proven by the closures."""
    g = _graph("regular_graph/diff-0", {}, gen_module)
    pres = mn.presentation(g)
    budget = Budget(300, 10)
    assert mn.complete(pres, budget).reason == "completion budget"
    rng = random.Random("regular_graph/diff-0")
    verts = list(pres.vertices)
    answers = Counter()
    for _ in range(20):
        x = _random_elem(rng, verts, 3)
        for y in (_random_elem(rng, verts, 3), _expanded(rng, pres, x, 3)):
            new = mn.mon_eq(pres, x, y, budget)
            _check_mon_eq(pres, x, y, budget, new, ref.mon_eq(pres, x, y, budget))
            if isinstance(new, Unknown):
                assert new.reason == "completion budget", (x, y)
            answers[type(new).__name__] += 1
    assert answers["Yes"] >= 10 and answers["No"] >= 1, answers


# -- the early stop of equidecompose ---------------------------------------

EARLY_STOP_BUDGETS = [Budget(2, 6), Budget(20, 8), Budget(300, 10)]
POOL_BOUNDS = lt.Bounds(max_depth=1, max_exp=1, max_len=1)


def _expansion(g, rng, e):
    return lt.co_of(g, *_random_cover(g, rng, e, rng.randint(1, 3)))


def _fixture_pairs(g, rng):
    """Every ordered pair of pool cylinders, each pool cylinder against a
    random expansion of it, and two random expansions of it."""
    pool = list(lt.enumerate_idempotents(g, POOL_BOUNDS))
    for e in pool:
        for f in pool:
            yield lt.co_of(g, e), lt.co_of(g, f)
    for e in pool:
        yield lt.co_of(g, e), _expansion(g, rng, e)
        yield _expansion(g, rng, e), _expansion(g, rng, e)


def _generated_pairs(g, rng, n):
    """Pairs drawn as the benchmark draws them (a pool cylinder against a
    random expansion of it, or two random pool cylinders), and pairs of
    two random expansions of one pool cylinder, where common types of
    equal weight tie most often."""
    pool = list(lt.enumerate_idempotents(g, POOL_BOUNDS))
    for j in range(n):
        e = rng.choice(pool)
        if j % 3 == 0:
            yield lt.co_of(g, e), _expansion(g, rng, e)
        elif j % 3 == 1:
            yield lt.co_of(g, e), lt.co_of(g, rng.choice(pool))
        else:
            yield _expansion(g, rng, e), _expansion(g, rng, e)


@pytest.mark.parametrize("name", ["g0", "g1", "g2", "g3"] + [
    f"{shape}/stop-{i}" for shape in ("mixed_graph", "tower_graph") for i in range(3)
])
def test_early_stop_matches_the_closures_run_to_the_cap(graphs, gen_module, name):
    """The certificate, or the Unknown with its reason, is the one the two
    closures run to the state cap give.  mon_eq on the types reads the same
    search: it answers Yes exactly when equidecompose gives a certificate,
    and No exactly when it answers Unknown("types unequal")."""
    g = _graph(name, graphs, gen_module)
    pres = mn.presentation(g)
    rng = random.Random(name)
    pairs = list(_fixture_pairs(g, rng) if name in graphs else _generated_pairs(g, rng, 60))
    certs = 0
    for budget in EARLY_STOP_BUDGETS:
        for a, b in pairs:
            new = mn.equidecompose(g, a, b, budget)
            assert repr(new) == repr(ref.equidecompose_to_cap(g, a, b, budget)), (a, b, budget)
            certs += isinstance(new, mn.EquidecompCertificate)
            eq = mn.mon_eq(pres, mn.typ_of(g, a), mn.typ_of(g, b), budget)
            assert isinstance(eq, Yes) == isinstance(new, mn.EquidecompCertificate), (a, b, budget)
            assert isinstance(eq, No) == (repr(new) == "Unknown(reason='types unequal')"), (a, b, budget)
    assert certs >= len(pairs) // 2


def test_early_stop_expands_few_states(gen_module, monkeypatch):
    """At the default budget a cylinder against its 3-step expansion needs a
    handful of expansions, where the two closures run to the cap expand
    about 150,000 states."""
    g = parse_graph(gen_module.mixed_graph("1-0").text())
    base = _top_idem(g)
    a = lt.co_of(g, base)
    b = lt.co_of(g, *_random_cover(g, random.Random(0), base, 3))
    expanded = []
    expand = mn._Search.expand

    def counted(search):
        expanded.append(search.queue[0])
        return expand(search)

    monkeypatch.setattr(mn._Search, "expand", counted)
    assert isinstance(mn.equidecompose(g, a, b), mn.EquidecompCertificate)
    assert 0 < len(expanded) < Budget().max_states // 1000


def _tampered(g, cert, rng, pool):
    """The certificate with its pieces (element, source, range) changed:
    two elements swapped, a piece dropped, a piece duplicated, a piece cut
    down to its source's first simple-expansion child, or an extra pool
    cylinder added as a piece."""
    pieces = list(zip(cert.elements, cert.sources, cert.ranges))
    out = [pieces[1:], pieces + pieces[:1]]
    if len(pieces) >= 2:
        (s0, *rest0), (s1, *rest1) = pieces[:2]
        out.append([(s1, *rest0), (s0, *rest1)] + pieces[2:])
    s, src, _ = pieces[0]
    mu = lt.epath_of(g, src)
    if not (g.is_free(mu.p) and g.k(mu.p) == 0):
        child = lt.simple_expand(g, src, 1 if g.is_free(mu.p) else None)[0]
        t = sg.mul(g, s, child)
        out.append([(t, child, sg.mul(g, t, sg.star(g, t)))] + pieces[1:])
    e = rng.choice(pool)
    out.append(pieces + [(e, e, e)])
    return [mn.EquidecompCertificate(*(tuple(p[i] for p in ps) for i in range(3))) for ps in out]


@pytest.mark.parametrize("name", ["g1", "g2", "g3", "mixed_graph/tamper-0", "mixed_graph/tamper-1"])
def test_tampered_certificates_fail_as_with_co_of(graphs, gen_module, name):
    """The verifier that builds each union once and compares canonical
    forms first answers as the one that builds it with `co_of`: True on the
    certificates equidecompose gives, False on each tampered one."""
    g = _graph(name, graphs, gen_module)
    rng = random.Random(name)
    pool = list(lt.enumerate_idempotents(g, POOL_BOUNDS))
    pairs = list(_fixture_pairs(g, rng) if name in graphs else _generated_pairs(g, rng, 60))
    tampered = 0
    for a, b in pairs:
        cert = mn.equidecompose(g, a, b, Budget(300, 10))
        if not isinstance(cert, mn.EquidecompCertificate):
            continue
        assert mn.verify_certificate(g, cert, a, b) and ref.verify_certificate_by_co_of(g, cert, a, b)
        for bad in _tampered(g, cert, rng, pool):
            assert not mn.verify_certificate(g, bad, a, b), (a, b, bad)
            assert not ref.verify_certificate_by_co_of(g, bad, a, b), (a, b, bad)
            tampered += 1
    assert tampered >= 3 * len(pairs) // 4
