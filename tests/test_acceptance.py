"""Acceptance gate: one test per criterion, one pass/fail line each.

Every numeric claim in a pass line is checked by assertion; sample sizes
and runtime targets are enforced, not advisory.
"""

import random
import time
from collections import Counter
from itertools import combinations_with_replacement

from sepgroid import filters as fl, groupoid as gp, lattice as lt
from sepgroid import monoid as mn, semigroup as sg
from sepgroid.graph import parse_graph
from sepgroid.filters import INF, PerTail
from sepgroid.lattice import Bounds
from sepgroid.monoid import Budget, No, Unknown, Yes

from conftest import _expandable, _random_cover, _top_idem, alphabet, random_word
from oracle import ZERO, oracle_nf

SIX_TOKEN_ALPHABETS = {
    "g1": ["a:p.1", "a:p.1*", "a:p.2", "b:p.1.1", "b:p.1.1*", "t:p.1"],
    "g2": ["e:f1", "e:f1*", "e:f2", "e:f2*", "v:w", "t:w.1"],
    "g3": ["a:p.1", "a:p.1*", "b:p.1.1", "b:p.1.1*", "e:f1", "e:f2*"],
}


def test_criterion_01_semigroup_laws(graphs):
    t0 = time.time()
    rng = random.Random(0)
    total = 0
    for name in ("g1", "g2", "g3"):
        g = graphs[name]
        toks = alphabet(g)
        for _ in range(3334):
            a, b, c = (
                sg.parse_word(g, random_word(rng, toks, 6)) for _ in range(3)
            )
            assert sg.mul(g, sg.mul(g, a, b), c) == sg.mul(g, a, sg.mul(g, b, c))
            assert sg.mul(g, a, sg.mul(g, sg.star(g, a), a)) == a
            assert sg.star(g, sg.mul(g, a, b)) == sg.mul(
                g, sg.star(g, b), sg.star(g, a)
            )
            total += 1
    elapsed = time.time() - t0
    assert total >= 10_000 and elapsed < 30
    print(
        f"criterion 1 PASS: {total} random triples on g1-g3 satisfy "
        f"associativity, s=ss*s, involution ({elapsed:.1f}s < 30s)"
    )


def test_criterion_02_oracle_equivalence(graphs):
    t0 = time.time()
    grand_checked = grand_covered = 0
    for name, alpha in SIX_TOKEN_ALPHABETS.items():
        g = graphs[name]
        gen = {a: sg.parse_word(g, a) for a in alpha}
        cache = {}
        stats = {"checked": 0, "covered": 0}

        def rec(elem, word, depth):
            for a in alpha:
                w2 = f"{word} {a}" if word else a
                e2 = sg.mul(g, elem, gen[a]) if word else gen[a]
                nf = oracle_nf(g, w2)
                stats["checked"] += 1
                stats["covered"] += 1
                if sg.is_zero(e2):
                    # the oracle's rewrite of this prefix to Zero applies
                    # verbatim inside every extension, and Zero absorbs in
                    # the library, so the whole subtree agrees
                    assert nf == ZERO, w2
                    rem = 8 - depth
                    stats["covered"] += sum(
                        len(alpha) ** i for i in range(1, rem + 1)
                    )
                    continue
                if e2 not in cache:
                    cache[e2] = oracle_nf(g, sg.element_to_word(g, e2))
                assert nf == cache[e2], w2
                if depth < 8:
                    rec(e2, w2, depth + 1)

        rec(None, "", 1)
        full = sum(len(alpha) ** i for i in range(1, 9))
        assert stats["covered"] == full >= 100_000
        grand_checked += stats["checked"]
        grand_covered += stats["covered"]
    assert grand_checked >= 100_000
    elapsed = time.time() - t0
    assert elapsed < 300
    print(
        f"criterion 2 PASS: all {grand_covered} words of <=8 tokens over "
        f"6-token alphabets agree with the oracle ({grand_checked} explicit, "
        f"rest via Zero-prefix absorption; {elapsed:.0f}s < 300s)"
    )


def test_criterion_03_e_star_unitarity(graphs):
    rng = random.Random(0)
    hits = 0
    tries = 0
    names = ("g1", "g2", "g3")
    while hits < 10_000:
        assert tries < 3_000_000, "sampling stalled"
        g = graphs[names[tries % 3]]
        toks = alphabet(g)
        u = sg.parse_word(g, random_word(rng, toks, 4))
        e = sg.mul(g, sg.star(g, u), u)
        s = sg.parse_word(g, random_word(rng, toks, 4))
        tries += 1
        if sg.is_zero(e) or sg.mul(g, e, s) != e:
            continue
        hits += 1
        assert sg.is_idempotent(s), (sg.element_to_word(g, s),)
    print(
        f"criterion 3 PASS: {hits} sampled (e,s) with e.s=e all have s "
        f"idempotent ({tries} candidates screened)"
    )


def test_criterion_04_cover_expansion_duality(graphs):
    rng = random.Random(0)
    scripts = 0
    for name in ("g1", "g2", "g3"):
        g = graphs[name]
        base = _top_idem(g)
        for _ in range(1000):
            pieces = _random_cover(g, rng, base, rng.randint(0, 4))
            assert lt.is_orthogonal_cover(g, base, pieces)
            script = lt.cover_to_expansion(g, base, pieces)
            replay = lt.expand(g, base, script)
            assert sorted(map(repr, replay)) == sorted(map(repr, pieces))
            # a redundant, shuffled cover orthogonalizes back to one
            redundant = list(pieces)
            exp = [i for i, x in enumerate(pieces) if _expandable(g, x)]
            if exp:
                pos = rng.choice(exp)
                mu = lt.epath_of(g, pieces[pos])
                ch = rng.randint(1, g.k(mu.p)) if g.is_free(mu.p) else None
                redundant += lt.simple_expand(g, pieces[pos], ch)
            rng.shuffle(redundant)
            ortho = lt.orthogonalize_cover(g, base, redundant)
            assert lt.is_orthogonal_cover(g, base, ortho)
            assert lt.co_eq(g, lt.co_of(g, *ortho), lt.co_of(g, *redundant))
            scripts += 1
    print(
        f"criterion 4 PASS: {scripts} random scripts pass orthogonal-cover, "
        f"script round-trip, and orthogonalization checks"
    )


def _point_universe(g):
    paths = []
    for v in sorted(g.vertex_prime):
        for mu in fl.enumerate_infinite(g, v, Bounds(2, 3, 3)):
            desc = sg.cpath_edge_len(mu.gamma)
            if isinstance(mu.tail, PerTail):
                desc += len(mu.tail.prefix) + len(mu.tail.cycle)
            else:
                desc += len(mu.tail)
            if desc <= 6:
                paths.append(mu)
    return paths


def test_criterion_05_cylinder_algebra_vs_points(graphs):
    rng = random.Random(0)
    exprs = 0
    for name in ("g2", "g3"):
        g = graphs[name]
        paths = _point_universe(g)
        assert paths
        cyls = list(lt.enumerate_idempotents(g, Bounds(2, 3, 2)))

        def members(a):
            return frozenset(
                i
                for i, x in enumerate(paths)
                if any(fl.is_initial_segment(g, mu, x) for mu in a.cyls)
            )

        for _ in range(500):
            leaves = [rng.choice(cyls) for _ in range(rng.randint(1, 4))]
            sym = lt.co_of(g, leaves[0])
            pts = members(sym)
            for e in leaves[1:]:
                op = rng.choice("&-+")
                rhs = lt.co_of(g, e)
                rpts = members(rhs)
                if op == "&":
                    sym = lt.co_intersect(g, sym, rhs)
                    pts = pts & rpts
                elif op == "-":
                    sym = lt.co_subtract(g, sym, rhs)
                    pts = pts - rpts
                else:
                    sym = lt.co_union(g, sym, rhs)
                    pts = pts | rpts
            assert members(sym) == pts
            exprs += 1
    assert exprs >= 1000
    print(
        f"criterion 5 PASS: {exprs} random compact-open expressions agree "
        f"with the eventually-periodic point model on g2 and g3"
    )


def test_criterion_06_filter_correspondence(graphs):
    checked = 0
    for name in ("g0", "g1", "g2", "g3"):
        g = graphs[name]
        depth = len(g.primes)
        idems = list(lt.enumerate_idempotents(g, Bounds(depth, 4, 5)))
        paths = []
        for v in sorted(g.vertex_prime):
            paths.extend(fl.enumerate_semifinite(g, v, Bounds(depth, 3, 2)))
        traces = []
        for mu in paths:
            tr = frozenset(
                i
                for i, e in enumerate(idems)
                if fl.filter_contains(g, mu, e)
            )
            # filter axioms: nonempty, zero-free meet closed, upward closed
            assert tr
            for i in tr:
                for j in tr:
                    m = sg.mul(g, idems[i], idems[j])
                    assert not sg.is_zero(m)
                    assert fl.filter_contains(g, mu, m)
                for j, f in enumerate(idems):
                    if lt.nat_leq(g, idems[i], f):
                        assert j in tr
            traces.append(tr)
            checked += 1
        # injectivity
        assert len(set(traces)) == len(traces)
        for mu, tr in zip(paths, traces):
            # reconstruction for finitely generated filters
            finite = not isinstance(mu.tail, PerTail) and INF not in mu.tail
            if finite:
                assert fl.reconstruct_path(g, [idems[i] for i in tr]) == mu
            # ultrafilter iff no strict bounded extension
            strict = any(
                other > tr for other in traces if other != tr
            )
            assert fl.is_ultrafilter(g, mu) == (not strict), mu
    print(
        f"criterion 6 PASS: exhaustive filter correspondence on {checked} "
        f"bounded semifinite paths (axioms, injectivity, reconstruction, "
        f"ultrafilter maximality)"
    )


def test_criterion_07_groupoid_laws(graphs):
    rng = random.Random(0)
    germs = 0
    for name in ("g1", "g2", "g3"):
        g = graphs[name]
        toks = alphabet(g)
        paths = []
        for v in sorted(g.vertex_prime):
            paths.extend(fl.enumerate_infinite(g, v, Bounds(1, 2, 2)))
        target = germs + 3334
        while germs < target:
            s = sg.parse_word(g, random_word(rng, toks, 4))
            t = sg.parse_word(g, random_word(rng, toks, 4))
            st = sg.mul(g, s, t)
            if sg.is_zero(st):
                continue
            src = sg.mul(g, sg.star(g, st), st)
            xs = [x for x in paths if fl.filter_contains(g, x, src)]
            if not xs:
                continue
            x = rng.choice(xs)
            gt = gp.germ_of(g, t, x)
            gs = gp.germ_of(g, s, gt.x)
            gst = gp.germ_of(g, st, x)
            germs += 3
            # functoriality and associativity of composition
            assert gst == gp.compose(g, gs, gt)
            lhs = gp.compose(g, gp.compose(g, gs, gt), gp.inverse(gt))
            rhs = gp.compose(g, gs, gp.compose(g, gt, gp.inverse(gt)))
            assert lhs == rhs
            for germ, elem in ((gt, t), (gs, s), (gst, st)):
                fl.validate_path(g, germ.x)  # no constructor checks its tail
                assert gp.in_bisection(g, germ, elem)
                assert gp.compose(g, germ, gp.unit(g, germ.y)) == germ
                assert gp.compose(g, gp.unit(g, germ.x), germ) == germ
                assert gp.compose(g, germ, gp.inverse(germ)) == gp.unit(
                    g, germ.x
                )
    assert germs >= 10_000
    print(
        f"criterion 7 PASS: {germs} germs pass unit/inverse/associativity, "
        f"functoriality, and in_bisection"
    )


def test_criterion_08_type_semigroup_theorem(graphs):
    t0 = time.time()
    rng = random.Random(0)
    steps = pairs = certs = 0
    for name in ("g1", "g2", "g3"):
        g = graphs[name]
        pres = mn.presentation(g)
        base = _top_idem(g)
        # (a) typ is invariant under every expansion step
        for _ in range(100):
            pieces = [base]
            for _ in range(rng.randint(1, 3)):
                cand = [i for i, x in enumerate(pieces) if _expandable(g, x)]
                if not cand:
                    break
                pos = rng.choice(cand)
                mu = lt.epath_of(g, pieces[pos])
                ch = rng.randint(1, g.k(mu.p)) if g.is_free(mu.p) else None
                before = mn.typ_of(g, lt.co_of(g, *pieces))
                pieces[pos : pos + 1] = lt.simple_expand(g, pieces[pos], ch)
                after = mn.typ_of(g, lt.co_of(g, *pieces))
                assert isinstance(mn.mon_eq(pres, before, after), Yes)
                steps += 1
        # (b) equidecompose iff mon_eq, certificates verified: exhaustive
        # over single-cylinder pairs, sampled over multi-cylinder ones
        cyls = list(lt.enumerate_idempotents(g, Bounds(2, 3, 2)))
        pair_list = [
            (lt.co_of(g, a), lt.co_of(g, b))
            for i, a in enumerate(cyls)
            for b in cyls[i:]
        ]
        for _ in range(150):
            a = lt.co_of(g, *(rng.choice(cyls) for _ in range(rng.randint(2, 4))))
            b = lt.co_of(g, *(rng.choice(cyls) for _ in range(rng.randint(2, 4))))
            pair_list.append((a, b))
        for a, b in pair_list:
            eq = mn.mon_eq(pres, mn.typ_of(g, a), mn.typ_of(g, b))
            cert = mn.equidecompose(g, a, b)
            if isinstance(eq, Yes):
                assert not isinstance(cert, Unknown)
            if not isinstance(cert, Unknown):
                # a certificate never comes with a No from mon_eq
                assert not isinstance(eq, No)
                assert mn.verify_certificate(g, cert, a, b)
                certs += 1
            pairs += 1
    elapsed = time.time() - t0
    assert elapsed < 600
    print(
        f"criterion 8 PASS: typ invariant under {steps} expansion steps; "
        f"{pairs} compact-open pairs match equidecompose<->mon_eq with "
        f"{certs} verified certificates ({elapsed:.0f}s < 600s)"
    )


def test_criterion_09_concrete_monoid_identities(graphs):
    pres1 = mn.presentation(graphs["g1"])
    assert isinstance(
        mn.mon_eq(pres1, mn.mon_unit("p"), mn.mon_of({"p": 1, "q1": 1})), Yes
    )
    assert isinstance(
        mn.mon_eq(pres1, mn.mon_unit("q1"), mn.mon_unit("q2")), No
    )
    pres2 = mn.presentation(graphs["g2"])
    for n in range(1, 7):
        assert isinstance(
            mn.mon_eq(pres2, mn.mon_unit("w"), mn.mon_of({"w": n})), Yes
        )
    pres0 = mn.presentation(graphs["g0"])
    for m in range(7):
        for n in range(7):
            res = mn.mon_eq(pres0, mn.mon_of({"p": m}), mn.mon_of({"p": n}))
            assert isinstance(res, Yes if m == n else No)
    print(
        "criterion 9 PASS: g1 absorption Yes / q1 vs q2 No, g2 collapse for "
        "n=1..6, g0 monoid is free on one generator (m,n<=6)"
    )


def _equal_sum_quadruples(pres, verts, max_weight, budget):
    """Every (a, b, c, d) with a+b of weight <= max_weight and a+b = c+d
    shown by mon_eq under the budget, up to the symmetries a <-> b,
    c <-> d and (a, b) <-> (c, d)."""
    elems = [
        mn.mon_of(Counter(combo))
        for r in range(max_weight + 1)
        for combo in combinations_with_replacement(verts, r)
    ]
    by_sum = {}
    for i, a in enumerate(elems):
        for b in elems[i:]:
            if mn.mon_weight(mn.mon_add(a, b)) <= max_weight:
                by_sum.setdefault(mn.mon_add(a, b), []).append((a, b))
    sums = list(by_sum)
    for i, k in enumerate(sums):
        for k2 in sums[i:]:
            if not isinstance(mn.mon_eq(pres, k, k2, budget), Yes):
                continue
            for j, (a, b) in enumerate(by_sum[k]):
                for c, d in by_sum[k][j:] if k == k2 else by_sum[k2]:
                    yield a, b, c, d


def _check_witness(pres, quad, budget):
    """refinement_witness gives (w, x, y, z), each with positive
    coefficients only, and mon_eq says Yes to each of a = w+x, b = y+z,
    c = w+y and d = x+z under a weight cap that covers both sides: a
    witness may be heavier than the budget's cap."""
    out = mn.refinement_witness(pres, *quad, budget)
    assert not isinstance(out, Unknown), quad
    assert all(n > 0 for m in out for _, n in m.counts), (quad, out)
    ww, xx, yy, zz = out
    a, b, c, d = quad
    for lhs, rhs in (
        (mn.mon_add(ww, xx), a),
        (mn.mon_add(yy, zz), b),
        (mn.mon_add(ww, yy), c),
        (mn.mon_add(xx, zz), d),
    ):
        cap = max(budget.max_weight, mn.mon_weight(lhs), mn.mon_weight(rhs))
        assert isinstance(mn.mon_eq(pres, lhs, rhs, Budget(budget.max_states, cap)), Yes), quad


def test_criterion_10_refinement(graphs, gen_module):
    t0 = time.time()
    quads = 0
    for name in ("g1", "g2", "g3"):
        pres = mn.presentation(graphs[name])
        for quad in _equal_sum_quadruples(pres, pres.vertices, 4, Budget()):
            _check_witness(pres, quad, Budget())
            quads += 1
    assert quads == 1279, quads
    # Seeded graphs of the benchmark's three families.  Their quadruples of
    # weight <= 3 run to about 10^5 per tower graph, and where completion
    # gives up (regular graphs) each pair of sums costs a search to the
    # state cap, so these stop at weight 2.
    small = Budget(20, 10)
    generated = 0
    for shape in ("tower_graph", "regular_graph", "mixed_graph"):
        for tag in ("refine-0", "refine-1"):
            pres = mn.presentation(parse_graph(getattr(gen_module, shape)(tag).text()))
            found = 0
            for quad in _equal_sum_quadruples(pres, pres.vertices, 2, small):
                _check_witness(pres, quad, small)
                found += 1
            assert found >= 200, (shape, tag, found)
            generated += found
    print(
        f"criterion 10 PASS: all {quads} quadruples of weight <=4 with "
        f"a+b=c+d (up to symmetry) on g1-g3 and all {generated} of weight "
        f"<=2 on six generated graphs admit verified refinement witnesses "
        f"({time.time() - t0:.1f}s)"
    )
