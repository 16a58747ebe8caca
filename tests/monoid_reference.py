"""The monoid searches as they were before `sepgroid.monoid` moved to one
search over integer vectors, kept verbatim as a differential reference.

`_neighbors` rewrites MonElem dicts one relation at a time, `mon_eq` is the
undirected bidirectional search, `mon_leq` reads a reachable set, and
`equidecompose` expands cylinder lists at every state of both refinement
closures.

Two later forms of `sepgroid.monoid` code are kept beside them:
`equidecompose_to_cap` runs both expansion-only closures to the state cap
before it picks the lightest common type, and `verify_certificate_by_co_of`
builds each union with `co_of`, and `below_one_copy` is `_below` as it was
when it expanded one copy per turn.  So are the helpers that only these
references and the tests use: `mon_geq`, `mon_sub` and `mon_weight` on
monoid elements, and `connect_idempotents`, which builds an element between
two idempotents of one type vertex.  Only the tests import this module.
"""

from __future__ import annotations

from collections import deque

from sepgroid import monoid as mn
from sepgroid.lattice import CompactOpen, co_is_empty, co_of, co_subtract, disjoint_union
from sepgroid.lattice import epath_end, epath_of, simple_expand, trusted_idem, trusted_isometry
from sepgroid.monoid import (
    Budget,
    EquidecompCertificate,
    MonElem,
    MonoidError,
    No,
    Presentation,
    Relation,
    Unknown,
    Yes,
    ZERO_ELEM,
    mon_add,
    mon_unit,
    presentation,
    typ_of,
    verify_certificate,
)
from sepgroid.graph import SeparatedGraph
from sepgroid.semigroup import Element, mul, star


def mon_geq(x: MonElem, y: MonElem) -> bool:
    d = dict(x.counts)
    return all(d.get(v, 0) >= n for v, n in y.counts)


def mon_sub(x: MonElem, y: MonElem) -> MonElem:
    if not mon_geq(x, y):
        raise MonoidError("difference is not defined")
    d = dict(x.counts)
    for v, n in y.counts:
        d[v] = d.get(v, 0) - n
    return mn.mon_of(d)


def mon_weight(x: MonElem) -> int:
    return sum(n for _, n in x.counts)


def _type_vertex(g: SeparatedGraph, e: Element) -> str:
    """The vertex representing the cylinder Z(e) in M(E,C)."""
    return epath_end(g, epath_of(g, e))


def connect_idempotents(g: SeparatedGraph, e1: Element, e2: Element) -> Element:
    """s with s s* = e1 and s* s = e2; the idempotents must have the same
    type vertex."""
    mu1, mu2 = epath_of(g, e1), epath_of(g, e2)
    v1, v2 = epath_end(g, mu1), epath_end(g, mu2)
    if v1 != v2:
        raise MonoidError(f"type vertices differ: {v1} vs {v2}")
    s = trusted_isometry(g, mu1, mu2)
    if mul(g, s, star(g, s)) != e1 or mul(g, star(g, s), s) != e2:
        raise MonoidError("connector construction failed")
    return s


def _neighbors(pres: Presentation, u: MonElem, max_weight: int):
    """Undirected one-step rewrites of u; second value flags weight pruning."""
    out = []
    pruned = False
    for rel in pres.relations:
        lhs = mon_unit(rel.vertex)
        if mon_geq(u, lhs):
            w = mon_add(mon_sub(u, lhs), rel.rhs)
            if mon_weight(w) <= max_weight:
                out.append(w)
            else:
                pruned = True
        if mon_geq(u, rel.rhs):
            w = mon_add(mon_sub(u, rel.rhs), lhs)
            if mon_weight(w) <= max_weight:
                out.append(w)
            else:
                pruned = True
    return out, pruned


def reachable_set(pres: Presentation, x: MonElem, budget: Budget):
    """(reachable vectors with parents, complete?, weight-pruned?)"""
    parents: dict[MonElem, MonElem | None] = {x: None}
    queue = deque([x])
    pruned = False
    complete = True
    while queue:
        if len(parents) > budget.max_states:
            complete = False
            break
        u = queue.popleft()
        nbrs, pr = _neighbors(pres, u, budget.max_weight)
        pruned = pruned or pr
        for w in nbrs:
            if w not in parents:
                parents[w] = u
                queue.append(w)
    return parents, complete and not queue, pruned


def _trace(parents, u) -> list[MonElem]:
    path = [u]
    while parents[u] is not None:
        u = parents[u]
        path.append(u)
    return path


def mon_eq(pres: Presentation, x: MonElem, y: MonElem, budget: Budget = Budget()):
    """Bounded bidirectional search; No only on provable exhaustion."""
    if x == y:
        return Yes((x,))
    if mon_weight(x) > budget.max_weight or mon_weight(y) > budget.max_weight:
        return Unknown()
    sides = [
        {x: None},
        {y: None},
    ]
    queues = [deque([x]), deque([y])]
    pruned = [False, False]
    exhausted = [False, False]
    states = 2
    while True:
        active = [i for i in (0, 1) if queues[i] and not exhausted[i]]
        if not active:
            break
        i = min(active, key=lambda i: len(queues[i]))
        u = queues[i].popleft()
        nbrs, pr = _neighbors(pres, u, budget.max_weight)
        pruned[i] = pruned[i] or pr
        for w in nbrs:
            if w in sides[i]:
                continue
            sides[i][w] = u
            queues[i].append(w)
            states += 1
            if w in sides[1 - i]:
                half_x = _trace(sides[0], w)
                half_y = _trace(sides[1], w)
                return Yes(tuple(reversed(half_x)) + tuple(half_y[1:]))
            if states > budget.max_states:
                return Unknown()
    for i in (0, 1):
        exhausted[i] = not queues[i]
    if (exhausted[0] and not pruned[0]) or (exhausted[1] and not pruned[1]):
        return No()
    return Unknown()


def mon_leq(pres: Presentation, x: MonElem, y: MonElem, budget: Budget = Budget()):
    """Yes(z) with x + z equal to y, or Unknown."""
    parents, _, _ = reachable_set(pres, y, budget)
    best = None
    for u in parents:
        if mon_geq(u, x):
            z = mon_sub(u, x)
            if best is None or mon_weight(z) < mon_weight(best):
                best = z
    if best is None:
        return Unknown()
    check = mon_eq(pres, mon_add(x, best), y, budget)
    return Yes((best,)) if isinstance(check, Yes) else Unknown()


def _expand_for_relation(g: SeparatedGraph, pieces, rel: Relation):
    """Apply one relation to a cylinder list; None if no piece matches."""
    for i, e in enumerate(pieces):
        if _type_vertex(g, e) == rel.vertex:
            children = simple_expand(g, e, rel.index)
            return pieces[:i] + tuple(children) + pieces[i + 1 :]
    return None


def _refinement_reach(g: SeparatedGraph, pres, pieces0, budget: Budget):
    """Breadth-first closure of a cylinder list under relation-driven
    simple expansions, keyed by type vector."""
    start = _typ_pieces(g, pieces0)
    seen = {start: tuple(pieces0)}
    queue = deque([start])
    while queue and len(seen) <= budget.max_states:
        t = queue.popleft()
        pieces = seen[t]
        for rel in pres.relations:
            if not mon_geq(t, mon_unit(rel.vertex)):
                continue
            t2 = mon_add(mon_sub(t, mon_unit(rel.vertex)), rel.rhs)
            if mon_weight(t2) > budget.max_weight or t2 in seen:
                continue
            p2 = _expand_for_relation(g, pieces, rel)
            if p2 is None:
                continue
            seen[t2] = p2
            queue.append(t2)
    return seen


def _typ_pieces(g: SeparatedGraph, pieces) -> MonElem:
    out = ZERO_ELEM
    for e in pieces:
        out = mon_add(out, mon_unit(_type_vertex(g, e)))
    return out


def equidecompose(
    g: SeparatedGraph, a: CompactOpen, b: CompactOpen, budget: Budget = Budget()
):
    """A certificate that A and B are equidecomposable, or Unknown."""
    pres = presentation(g)
    if not isinstance(mon_eq(pres, typ_of(g, a), typ_of(g, b), budget), Yes):
        return Unknown()
    pieces_a = tuple(trusted_idem(g, mu) for mu in a.cyls)
    pieces_b = tuple(trusted_idem(g, mu) for mu in b.cyls)
    reach_a = _refinement_reach(g, pres, pieces_a, budget)
    reach_b = _refinement_reach(g, pres, pieces_b, budget)
    common = set(reach_a) & set(reach_b)
    if not common:
        return Unknown()
    t = min(common, key=mon_weight)
    fin_a, fin_b = list(reach_a[t]), list(reach_b[t])
    by_vertex: dict[str, list[Element]] = {}
    for e in fin_b:
        by_vertex.setdefault(_type_vertex(g, e), []).append(e)
    elements, sources, ranges = [], [], []
    for ea in fin_a:
        eb = by_vertex[_type_vertex(g, ea)].pop()
        s = connect_idempotents(g, eb, ea)
        elements.append(s)
        sources.append(ea)
        ranges.append(eb)
    cert = EquidecompCertificate(tuple(elements), tuple(sources), tuple(ranges))
    if not verify_certificate(g, cert, a, b):
        raise MonoidError("constructed certificate failed verification")
    return cert


def below_one_copy(lower: dict, u, b):
    """`sepgroid.monoid._below` as it was before it expanded a vertex's
    excess copies in one step: one copy per turn, so its time grows with
    sum(b)."""
    u = list(u)
    while True:
        v = next((i for i, (m, n) in enumerate(zip(u, b)) if m > n), None)
        if v is None:
            return tuple(u)
        if v not in lower or sum(u) >= sum(b):
            return None
        for i, n in lower[v]:
            u[i] += n


def _expansion_closure(pres: Presentation, x, budget: Budget) -> mn._Search:
    search = mn._Search(pres, x, budget.max_weight)
    while search.queue and len(search.parents) <= budget.max_states:
        search.expand()
    return search


def equidecompose_to_cap(
    g: SeparatedGraph, a: CompactOpen, b: CompactOpen, budget: Budget = Budget()
):
    """`sepgroid.monoid.equidecompose` with both expansion-only closures run
    until they are exhausted or over the state cap; of the lightest common
    types, the first in A's breadth-first order is replayed."""
    pres = presentation(g)
    ta, tb = (mn._vector(pres, typ_of(g, x)) for x in (a, b))
    system = mn.complete(pres, budget)
    if isinstance(system, mn.RewritingSystem) and system.normal_form(ta) != system.normal_form(tb):
        return Unknown("types unequal")
    reach_a, reach_b = (_expansion_closure(pres, t, budget) for t in (ta, tb))
    common = [t for t in reach_a.parents if t in reach_b.parents]
    if not common:
        verdict = mn._verdict(system, reach_a, reach_b, budget)
        return Unknown("types unequal") if isinstance(verdict, No) else verdict
    t = min(common, key=sum)
    fin_a, fin_b = (
        [trusted_idem(g, mu) for mu in mn._replay(g, x, reach, t)]
        for x, reach in ((a, reach_a), (b, reach_b))
    )
    by_vertex: dict[str, list[Element]] = {}
    for e in fin_b:
        by_vertex.setdefault(_type_vertex(g, e), []).append(e)
    elements, sources, ranges = [], [], []
    for ea in fin_a:
        eb = by_vertex[_type_vertex(g, ea)].pop()
        s = connect_idempotents(g, eb, ea)
        elements.append(s)
        sources.append(ea)
        ranges.append(eb)
    cert = EquidecompCertificate(tuple(elements), tuple(sources), tuple(ranges))
    if not verify_certificate(g, cert, a, b):
        raise MonoidError("constructed certificate failed verification")
    return cert


def verify_certificate_by_co_of(
    g: SeparatedGraph, cert: EquidecompCertificate, a: CompactOpen, b: CompactOpen
) -> bool:
    """Certificate verification with each union built by `co_of`, one
    `co_union` per piece, and compared by subtraction both ways."""
    if not (len(cert.elements) == len(cert.sources) == len(cert.ranges)):
        return False
    for s, src, rng in zip(cert.elements, cert.sources, cert.ranges):
        if mul(g, star(g, s), s) != src or mul(g, s, star(g, s)) != rng:
            return False
    for group, whole in ((cert.sources, a), (cert.ranges, b)):
        if disjoint_union(g, group) is None:
            return False
        union = co_of(g, *group)
        if not (co_is_empty(co_subtract(g, union, whole)) and co_is_empty(co_subtract(g, whole, union))):
            return False
    return True
