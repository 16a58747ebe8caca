import os
import pathlib
import subprocess
import sys

import pytest

from sepgroid import cli, fixture_path, lattice as lt, load_fixture, monoid as mn, semigroup as sg
from sepgroid.graph import parse_graph
from sepgroid.monoid import (
    Budget,
    MonoidError,
    No,
    Unknown,
    Yes,
    mon_add,
    mon_of,
    mon_unit,
    parse_monelem,
    format_monelem,
)

from conftest import TWO_WAY, _top_idem, alphabet, random_word
from monoid_reference import mon_geq, mon_sub


def w(g, text):
    return sg.parse_word(g, text)


def co(g, *texts):
    return lt.co_of(g, *(w(g, t) for t in texts))


# -- element arithmetic and literals -------------------------------------


def test_monelem_literals(g1):
    x = parse_monelem(g1, "3*a:p + a:q1")
    assert x == mon_of({"p": 3, "q1": 1})
    assert format_monelem(x) == "3*a:p + a:q1"
    assert parse_monelem(g1, "0") == mn.ZERO_ELEM
    assert format_monelem(mn.ZERO_ELEM) == "0"
    with pytest.raises(MonoidError):
        parse_monelem(g1, "a:nosuch")


def test_mon_arithmetic():
    a = mon_of({"p": 2})
    b = mon_of({"p": 1, "q1": 1})
    assert mon_add(a, b) == mon_of({"p": 3, "q1": 1})
    assert mon_geq(a, mon_unit("p"))
    assert not mon_geq(a, b)
    assert mon_sub(mon_add(a, b), b) == a


# -- presentations -------------------------------------------------------


def test_presentation_g1(g1):
    rels = mn.presentation(g1).relations
    by = {(r.vertex, r.index): r.rhs for r in rels}
    assert by[("p", 1)] == mon_of({"p": 1, "q1": 1})
    assert by[("p", 2)] == mon_of({"p": 1, "q2": 1})


def test_presentation_g2(g2):
    rels = mn.presentation(g2).relations
    assert len(rels) == 1
    assert rels[0].vertex == "w" and rels[0].rhs == mon_of({"w": 2})


def test_presentation_g3(g3):
    by = {(r.vertex, r.index): r for r in mn.presentation(g3).relations}
    assert by[("p", 1)].rhs == mon_of({"p": 1, "w": 1})
    assert by[("w", None)].rhs == mon_of({"w": 2})


def test_presentation_is_built_once_per_graph():
    g, fresh = load_fixture("g3.sg"), load_fixture("g3.sg")
    assert mn.presentation(g) is mn.presentation(g)
    assert fresh.monoid_presentation is None
    # the stored presentation is not part of the graph's value
    assert g == fresh and repr(g) == repr(fresh)


def test_expansions_meet_the_diamond_lemma(graphs, gen_module):
    """The two conditions under which any two one-step expansions of a
    state close in at most one further step each, so that expansion is
    confluent and equidecompose's expansion-only closures meet exactly
    when the types are equal; and that every expansion gains weight, which
    `_verdict`'s proof, the early stop of `_common_type` and `_below` rely
    on.  A graph feature that breaks them fails here."""
    generated = [
        parse_graph(getattr(gen_module, shape)(f"diamond-{k}").text())
        for shape in ("mixed_graph", "tower_graph", "regular_graph")
        for k in range(4)
    ]
    branching = 0
    for g in list(graphs.values()) + generated:
        pres = mn.presentation(g)
        expansions = {}
        for v, change, dw, rel in pres._moves:
            # one copy of one vertex, and only that vertex falls, by one
            assert v == pres._index[rel.vertex]
            assert all(n >= 0 or (i == v and n == -1) for i, n in change)
            assert dw == sum(n for _, n in change) >= 1
            expansions.setdefault(rel.vertex, []).append(rel)
        for vertex, rels in expansions.items():
            if len(rels) >= 2:
                branching += 1
                assert g.vertex_prime[vertex] == vertex and g.is_free(vertex)
                assert all(dict(rel.rhs.counts).get(vertex, 0) >= 1 for rel in rels)
    assert branching > 0


# -- word problem --------------------------------------------------------


def test_mon_eq_g1(g1):
    pres = mn.presentation(g1)
    res = mn.mon_eq(pres, mon_unit("p"), mon_of({"p": 1, "q1": 1}))
    assert isinstance(res, Yes)
    # the path really connects the endpoints by single relation steps
    assert res.path[0] == mon_unit("p")
    assert res.path[-1] == mon_of({"p": 1, "q1": 1})
    assert isinstance(mn.mon_eq(pres, mon_unit("q1"), mon_unit("q2")), No)


def test_mon_eq_g2_collapse(g2):
    pres = mn.presentation(g2)
    for n in range(1, 7):
        assert isinstance(mn.mon_eq(pres, mon_unit("w"), mon_of({"w": n})), Yes)


def test_mon_eq_g0_is_free(g0):
    pres = mn.presentation(g0)
    for m in range(7):
        for n in range(7):
            res = mn.mon_eq(pres, mon_of({"p": m}), mon_of({"p": n}))
            if m == n:
                assert isinstance(res, Yes)
            else:
                assert isinstance(res, No)


def test_mon_eq_path_steps_are_relations(g1, g2):
    for g in (g1, g2):
        pres = mn.presentation(g)
        rels = pres.relations
        res = mn.mon_eq(pres, mon_unit(rels[0].vertex), rels[0].rhs)
        assert isinstance(res, Yes)
        for a, b in zip(res.path, res.path[1:]):
            assert any(
                (
                    mon_geq(a, mon_unit(r.vertex))
                    and b == mon_add(mon_sub(a, mon_unit(r.vertex)), r.rhs)
                )
                or (
                    mon_geq(a, r.rhs)
                    and b == mon_add(mon_sub(a, r.rhs), mon_unit(r.vertex))
                )
                for r in rels
            )


def test_mon_leq(g3):
    pres = mn.presentation(g3)
    res = mn.mon_leq(pres, mon_unit("w"), mon_unit("p"))
    assert isinstance(res, Yes)
    z = res.path[0]
    assert isinstance(mn.mon_eq(pres, mon_add(mon_unit("w"), z), mon_unit("p")), Yes)


def test_small_budget_gives_unknown(g2):
    pres = mn.presentation(g2)
    res = mn.mon_eq(
        pres, mon_unit("w"), mon_of({"w": 6}), Budget(max_states=3, max_weight=6)
    )
    assert isinstance(res, Unknown)


def test_mon_leq_proves_no(g1, g2):
    # The expansion-only closure of q2 is {q2}, exhausted with nothing
    # pruned: it holds every expansion of q2, and none of them lies above
    # an expansion of q1.
    pres = mn.presentation(g1)
    assert mn.mon_leq(pres, mon_unit("q1"), mon_unit("q2")) == No()
    assert isinstance(mn.mon_leq(pres, mon_unit("q1"), mon_unit("p")), Yes)
    # w = 3w in g2, but a cut or pruned closure proves nothing
    pres = mn.presentation(g2)
    three, one = mon_of({"w": 3}), mon_unit("w")
    assert mn.mon_leq(pres, three, one, Budget(1, 40)).reason == "state cap"
    assert mn.mon_leq(pres, three, one, Budget(100, 1)).reason == "weight cap"
    assert isinstance(mn.mon_leq(pres, three, one), Yes)


def test_mon_leq_time_does_not_grow_with_y():
    # In TWO_WAY, u = 2v + z and v = 2u.  y = N z has no expansion, and
    # every expansion of u keeps a copy of u or v, so u <= y is false.
    # _below makes all of a vertex's excess expansions in one step, so it
    # reaches weight N in about log N steps, where a step per copy would
    # take about N.
    pres = mn.presentation(parse_graph(TWO_WAY))
    assert mn.mon_leq(pres, mon_unit("u"), mon_of({"z": 10**12}), Budget(1, 1)) == No()
    assert isinstance(mn.mon_leq(pres, mon_unit("u"), mon_of({"u": 1, "z": 10**12})), Yes)


def test_unknown_names_the_limit_it_hit(g1, g2):
    assert Unknown("state cap") == Unknown()
    pres = mn.presentation(g2)
    w, six = mon_unit("w"), mon_of({"w": 6})
    assert mn.mon_eq(pres, w, six, Budget(3, 6)).reason == "state cap"
    assert mn.mon_eq(pres, w, six, Budget(100, 5)).reason == "weight cap"
    # g1's completion processes one critical pair: none are allowed here,
    # and the search is cut as well (a fresh graph: the shared one may
    # already hold its system)
    pres = mn.presentation(load_fixture("g1.sg"))
    x, y = mon_of({"p": 1, "q1": 1}), mon_of({"p": 1, "q2": 1})
    assert mn.mon_eq(pres, x, y, Budget(0, 40)).reason == "completion budget"
    assert isinstance(mn.mon_eq(pres, x, y), Yes)
    cert = mn.equidecompose(g1, co(g1, "v:q1"), co(g1, "v:q2"))
    assert cert == Unknown() and cert.reason == "types unequal"


def test_completion_decides_the_fixtures(graphs):
    for g in graphs.values():
        pres = mn.presentation(g)
        system = mn.complete(pres)
        assert mn.verify_inequality(pres, system)
        assert mn.complete(pres) is system
    pres = mn.presentation(graphs["g1"])
    system = mn.complete(pres)
    # p + q1 -> p and p + q2 -> p; q1 and q2 are normal forms
    assert system.rules == (((1, 1, 0), (1, 0, 0)), ((1, 0, 1), (1, 0, 0)))
    # g1 needs one critical pair
    assert mn.mon_eq(pres, mon_unit("q1"), mon_unit("q2"), Budget(1, 0)) == No()
    # a system that does not join a relation proves nothing
    assert not mn.verify_inequality(pres, mn.RewritingSystem(system.rules[:1]))
    # nor does one with a rule that does not decrease
    assert not mn.verify_inequality(pres, mn.RewritingSystem(
        system.rules + (((1, 0, 0), (1, 1, 0)),)))
    # nor one whose critical pair q1 <- q1 + q2 -> q2 does not join
    assert not mn.verify_inequality(pres, mn.RewritingSystem(
        system.rules + (((0, 1, 1), (0, 1, 0)), ((0, 1, 1), (0, 0, 1)))))


def test_completion_that_gave_up_is_not_retried(monkeypatch):
    pres = mn.presentation(load_fixture("g1.sg"))
    runs = []
    complete = mn._complete

    def counted(pres, max_pairs):
        runs.append(max_pairs)
        return complete(pres, max_pairs)

    monkeypatch.setattr(mn, "_complete", counted)
    assert mn.complete(pres, Budget(0)) == Unknown()
    assert mn.complete(pres, Budget(0)).reason == "completion budget"
    assert runs == [0]
    system = mn.complete(pres, Budget(1))
    assert isinstance(system, mn.RewritingSystem) and runs == [0, 1]
    # the kept system needed one pair: a budget of none still gets no system
    assert mn.complete(pres, Budget(0)).reason == "completion budget" and runs == [0, 1]
    assert mn.complete(pres, Budget(1)) is system and runs == [0, 1]


# -- refinement ----------------------------------------------------------


def test_refinement_trivial(g1):
    pres = mn.presentation(g1)
    a = mon_of({"p": 1})
    out = mn.refinement_witness(pres, a, a, a, a)
    assert not isinstance(out, Unknown)
    ww, xx, yy, zz = out
    assert isinstance(mn.mon_eq(pres, mon_add(ww, xx), a), Yes)
    assert isinstance(mn.mon_eq(pres, mon_add(yy, zz), a), Yes)
    assert isinstance(mn.mon_eq(pres, mon_add(ww, yy), a), Yes)
    assert isinstance(mn.mon_eq(pres, mon_add(xx, zz), a), Yes)


def test_refinement_requires_precondition(g1):
    pres = mn.presentation(g1)
    with pytest.raises(MonoidError, match="^a\\+b and c\\+d are unequal$"):
        mn.refinement_witness(
            pres, mon_unit("q1"), mn.ZERO_ELEM, mon_unit("q2"), mn.ZERO_ELEM
        )
    q1, q2 = mon_unit("q1"), mon_unit("q2")
    with pytest.raises(MonoidError, match="^a\\+b and c\\+d are unequal$"):
        mn.refinement_witness(pres, q1, q2, q1, q1)


def test_refinement_out_of_budget_is_unknown(g2):
    # w + 2w = 3w = w holds, but with one state each the closures of w and
    # 3w reach only 2w and 4w.
    pres = mn.presentation(g2)
    w, two, one = mon_unit("w"), mon_of({"w": 2}), Budget(max_states=1)
    assert mn.mon_eq(pres, mon_add(w, two), w, one).reason == "state cap"
    out = mn.refinement_witness(pres, w, mn.ZERO_ELEM, two, w, one)
    assert out == Unknown() and out.reason == "state cap"
    assert not isinstance(mn.refinement_witness(pres, w, mn.ZERO_ELEM, two, w), Unknown)


def _closure(pres, trail):
    """An expansion-only search whose parents hold one trail of (state,
    relation that reached it) pairs, from its start on."""
    search = mn._Search(pres, trail[0][0], 40)
    for (u, _), (v, rel) in zip(trail, trail[1:]):
        search.parents[v] = (u, rel)
    return search


def test_refinement_splits_the_trails_and_checks_them(g1, monkeypatch):
    # q1 + p expands by p = p + q2 to the common state p + q1 + q2 of
    # q1 + q2 + p: the expansion is charged to p, the summand that holds a
    # copy of p.
    pres = mn.presentation(g1)
    r1, r2 = pres.relations
    q1, q2, p = mon_unit("q1"), mon_unit("q2"), mon_unit("p")
    t = (1, 1, 1)
    closures = (_closure(pres, [((1, 1, 0), None), (t, r2)]), _closure(pres, [(t, None)]), t)
    monkeypatch.setattr(mn, "_common_type", lambda *args: closures)
    assert mn.refinement_witness(pres, q1, p, mon_add(q1, q2), p) == (q1, mn.ZERO_ELEM, q2, p)
    # trails that do not join a+b to c+d
    for quad, trail, message in (
        ((q1, q2, q1, q2), [((0, 1, 1), None), ((0, 2, 1), r1)], "no copy of 'p'"),
        ((p, q1, p, q1), [((1, 1, 0), None), ((1, 2, 0), r1)], "valley differ"),
    ):
        end = trail[-1][0]
        closures = (_closure(pres, trail), _closure(pres, [(end, None)]), end)
        monkeypatch.setattr(mn, "_common_type", lambda *args, found=closures: found)
        with pytest.raises(MonoidError, match=message):
            mn.refinement_witness(pres, *quad)


# -- the type map --------------------------------------------------------


def test_vertex_of_idempotent(g2, g3):
    # the type vertex of Z(e) is where e's E-path ends
    for g, word, v in ((g3, "a:p.1 a:p.1*", "p"), (g3, "b:p.1.1 b:p.1.1*", "w"),
                       (g2, "e:f1 e:f2 e:f2* e:f1*", "w")):
        assert lt.epath_end(g, lt.epath_of(g, w(g, word))) == v
        assert mn.typ_of(g, lt.co_of(g, w(g, word))) == mon_unit(v)


def test_typ_of(g3):
    assert mn.typ_of(g3, co(g3, "v:p")) == mon_unit("p")
    both = lt.co_union(g3, co(g3, "v:p"), co(g3, "v:w"))
    assert mn.typ_of(g3, both) == mon_of({"p": 1, "w": 1})


def test_typ_invariant_under_expansion(graphs, rng):
    for name in ("g1", "g2", "g3"):
        g = graphs[name]
        pres = mn.presentation(g)
        from test_lattice import _is_point

        base = _top_idem(g)
        for _ in range(30):
            pieces = [base]
            for _ in range(rng.randint(1, 3)):
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
                before = mn.typ_of(g, lt.co_of(g, *pieces))
                pieces[pos : pos + 1] = lt.simple_expand(g, pieces[pos], ch)
                after = mn.typ_of(g, lt.co_of(g, *pieces))
                assert isinstance(mn.mon_eq(pres, before, after), Yes)


# -- equidecomposition ---------------------------------------------------


def test_equidecompose_spec_example(g3):
    cert = mn.equidecompose(g3, co(g3, "v:p"), co(g3, "a:p.1 a:p.1*"))
    assert not isinstance(cert, Unknown)
    assert [sg.element_to_word(g3, s) for s in cert.elements] == ["a:p.1"]
    assert mn.verify_certificate(
        g3, cert, co(g3, "v:p"), co(g3, "a:p.1 a:p.1*")
    )


def test_equidecompose_g2_double(g2):
    a = co(g2, "v:w")
    b = lt.co_of(g2, w(g2, "e:f1 e:f1*"), w(g2, "e:f2 e:f2*"))
    cert = mn.equidecompose(g2, a, b)
    assert not isinstance(cert, Unknown)
    assert mn.verify_certificate(g2, cert, a, b)


def test_equidecompose_identity(g1):
    a = co(g1, "v:p")
    cert = mn.equidecompose(g1, a, a)
    assert not isinstance(cert, Unknown)
    assert mn.verify_certificate(g1, cert, a, a)


def test_equidecompose_needs_no_mon_eq(g1, monkeypatch, capsys):
    # mon_eq and equidecompose read one search: at one state each, its
    # closures meet at p + q2, which gives mon_eq its path and equidecompose
    # its certificate.  Neither equidecompose nor the command line then runs
    # mon_eq, not even to tell No from Unknown.
    a, b = co(g1, "v:p"), lt.co_of(g1, w(g1, "a:p.2 a:p.2*"), w(g1, "b:p.2.1 b:p.2.1*"))
    budget = Budget(1, 6)
    eq = mn.mon_eq(mn.presentation(g1), mn.typ_of(g1, a), mn.typ_of(g1, b), budget)
    assert eq == Yes((mon_unit("p"), mon_of({"p": 1, "q2": 1})))
    monkeypatch.setattr(mn, "mon_eq", None)
    cert = mn.equidecompose(g1, a, b, budget)
    assert len(cert.elements) == 2
    assert mn.verify_certificate(g1, cert, a, b)
    assert cli.main(["equidecompose", fixture_path("g1.sg"), "Z(v:q1)", "Z(v:q2)"]) == 1
    assert capsys.readouterr().out == "No\n"


@pytest.mark.parametrize("shape", ["regular_graph", "tower_graph"])
def test_exhausted_closures_prove_types_unequal(gen_module, shape):
    # Completion gives up at this budget.  The sink z has no relation, so
    # each expansion-only closure is its start alone, exhausted with nothing
    # pruned; equal types would share an expansion (the diamond lemma).
    g = parse_graph(getattr(gen_module, shape)("diff-0").text())
    pres, budget = mn.presentation(g), Budget(300, 10)
    at_z = [
        e for e in lt.enumerate_idempotents(g, lt.Bounds(1, 0, 0))
        if lt.epath_end(g, lt.epath_of(g, e)) == "z" and e != w(g, "v:z")
    ]
    a, b = co(g, "v:z"), lt.co_of(g, *at_z[:2])
    assert len(b.cyls) == 2 and mn.typ_of(g, b) == mon_of({"z": 2})
    assert mn.complete(pres, budget).reason == "completion budget"
    assert repr(mn.equidecompose(g, a, b, budget)) == "Unknown(reason='types unequal')"
    assert mn.mon_eq(pres, mn.typ_of(g, a), mn.typ_of(g, b), budget) == No()
    # One unpruned closure is enough: z's closure {z} holds every expansion
    # of z, while rbv2's closure is exhausted with some moves pruned.
    z, rbv2 = mon_unit("z"), mon_unit("rbv2")
    closure = mn._Search(pres, mn._vector(pres, rbv2), budget.max_weight)
    while closure.queue:
        closure.expand()
    assert closure.pruned and len(closure.parents) <= budget.max_states
    assert repr(mn.mon_eq(pres, z, rbv2, budget)) == "No()"
    c = co(g, "v:rbv2")
    assert repr(mn.equidecompose(g, a, c, budget)) == "Unknown(reason='types unequal')"


def test_equidecompose_iff_mon_eq_sample(graphs, rng):
    for name in ("g1", "g2", "g3"):
        g = graphs[name]
        pres = mn.presentation(g)
        toks = alphabet(g)

        def rand_co():
            cyls = []
            for _ in range(rng.randint(1, 2)):
                s = w(g, random_word(rng, toks, 4))
                e = sg.mul(g, sg.star(g, s), s)
                if not sg.is_zero(e):
                    cyls.append(e)
            return lt.co_of(g, *cyls)

        for _ in range(15):
            a, b = rand_co(), rand_co()
            eq = mn.mon_eq(pres, mn.typ_of(g, a), mn.typ_of(g, b))
            cert = mn.equidecompose(g, a, b)
            if isinstance(eq, Yes):
                assert not isinstance(cert, Unknown)
            if not isinstance(cert, Unknown):
                # a certificate never comes with a No from mon_eq
                assert not isinstance(eq, No)
                assert mn.verify_certificate(g, cert, a, b)


def test_certificate_with_a_zero_piece_does_not_verify(g1):
    a = co(g1, "v:q1")
    cert = mn.equidecompose(g1, a, a)
    assert mn.verify_certificate(g1, cert, a, a)
    zero = mn.EquidecompCertificate(
        cert.elements + (sg.ZERO,), cert.sources + (sg.ZERO,), cert.ranges + (sg.ZERO,)
    )
    assert mn.verify_certificate(g1, zero, a, a) is False


def test_equidecompose_verifies_every_connector(g3, monkeypatch):
    # equidecompose builds its connectors unchecked; verify_certificate
    # is the one check of s s* and s* s.
    a, b = co(g3, "v:p"), co(g3, "a:p.1 a:p.1*")
    assert isinstance(mn.equidecompose(g3, a, b), mn.EquidecompCertificate)
    real = mn.trusted_isometry
    monkeypatch.setattr(mn, "trusted_isometry", lambda g, mu, rho: sg.star(g, real(g, mu, rho)))
    with pytest.raises(MonoidError, match="failed verification"):
        mn.equidecompose(g3, a, b)


def test_verify_certificate_reads_each_piece_once(g2, monkeypatch):
    a = co(g2, "v:w")
    b = lt.co_of(g2, *lt.expand(g2, w(g2, "v:w"), [(0, None), (0, None)]))
    cert = mn.equidecompose(g2, a, b)
    assert len(cert.sources) >= 2
    calls = []
    real = lt._epath
    monkeypatch.setattr(lt, "_epath", lambda e, name: calls.append(e) or real(e, name))
    assert mn.verify_certificate(g2, cert, a, b)
    assert sorted(map(repr, calls)) == sorted(map(repr, cert.sources + cert.ranges))


def test_unknown_vertex_is_rejected_at_the_boundary(g1):
    pres = mn.presentation(g1)
    stray = mon_unit("nosuch")
    with pytest.raises(MonoidError, match="nosuch"):
        mn.mon_eq(pres, stray, stray)
    with pytest.raises(MonoidError, match="nosuch"):
        mn.mon_leq(pres, mon_unit("p"), stray)
    with pytest.raises(MonoidError, match="nosuch"):
        mn.refinement_witness(pres, stray, mn.ZERO_ELEM, stray, mn.ZERO_ELEM)


_CERTIFICATE_SCRIPT = """
import sys
import conftest
from sepgroid import cli, monoid as mn
from sepgroid.graph import parse_graph

g = parse_graph(conftest._load_perfbench_gen().mixed_graph("d-0").text())
a = cli.parse_compact_open(g, sys.argv[1])
b = cli.parse_compact_open(g, sys.argv[2])
print(repr(mn.equidecompose(g, a, b, mn.Budget(max_states=300, max_weight=10))))
"""


def test_certificate_does_not_depend_on_the_hash_seed():
    # Two common types of weight 4 tie here; the choice between them must
    # not follow the order of a set of strings.
    tests = pathlib.Path(__file__).resolve().parent
    src = pathlib.Path(mn.__file__).resolve().parents[1]
    certs = set()
    for seed in ("1", "2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONDONTWRITEBYTECODE="1",
                   PYTHONPATH=os.pathsep.join([str(src), str(tests)]))
        out = subprocess.run(
            [sys.executable, "-c", _CERTIFICATE_SCRIPT,
             "Z(e:rbe1 e:rbe1*) + Z(b:p3.1.1 a:p2.1 a:p2.1* b:p3.1.1*)",
             "Z(v:rav1) + Z(a:p2.2 a:p2.2*)"],
            env=env, capture_output=True, text=True, check=True,
        ).stdout
        assert out.startswith("EquidecompCertificate(")
        certs.add(out)
    assert len(certs) == 1
