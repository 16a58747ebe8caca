"""The graph monoid M(E,C) and equidecomposition certificates.

M(E,C) is the commutative monoid generated by the vertices with one
relation per separation class: a free prime p contributes a_p = a_p +
sum of its class-i connector targets (one relation per loop index i), and
a regular vertex v contributes a_v = sum over edges leaving v.  The word
problem is a bounded bidirectional breadth-first search; No is only
returned when a full congruence class was enumerated below the weight cap.
Equidecomposition realizes monoid equalities as partial isomorphisms
between compact opens: relations are replayed as simple expansions of
cylinders, and matching cylinders with equal type vertex are connected by
explicit semigroup elements.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache

from .graph import FreePrime, SeparatedGraph
from .lattice import CompactOpen, co_eq, co_of, epath_end, simple_expand, trusted_idem
from .semigroup import (
    Element,
    FreeBody,
    Monomial,
    RegBody,
    Triple,
    WordError,
    cpath_range,
    is_idempotent,
    is_zero,
    mul,
    star,
)


class MonoidError(Exception):
    """Raised on malformed monoid inputs or violated preconditions."""


# -- elements ------------------------------------------------------------


@dataclass(frozen=True)
class MonElem:
    """A finitely supported vector over the vertices, sorted and sparse."""

    counts: tuple[tuple[str, int], ...] = ()


ZERO_ELEM = MonElem()


def mon_of(d: dict[str, int]) -> MonElem:
    if any(n < 0 for n in d.values()):
        raise MonoidError(f"negative coefficient in {d}")
    return MonElem(tuple(sorted((v, n) for v, n in d.items() if n)))


def mon_unit(v: str) -> MonElem:
    return MonElem(((v, 1),))


def mon_add(x: MonElem, y: MonElem) -> MonElem:
    d = dict(x.counts)
    for v, n in y.counts:
        d[v] = d.get(v, 0) + n
    return mon_of(d)


def mon_geq(x: MonElem, y: MonElem) -> bool:
    d = dict(x.counts)
    return all(d.get(v, 0) >= n for v, n in y.counts)


def mon_sub(x: MonElem, y: MonElem) -> MonElem:
    if not mon_geq(x, y):
        raise MonoidError("difference is not defined")
    d = dict(x.counts)
    for v, n in y.counts:
        d[v] = d.get(v, 0) - n
    return mon_of(d)


def mon_weight(x: MonElem) -> int:
    return sum(n for _, n in x.counts)


def parse_monelem(g: SeparatedGraph, text: str) -> MonElem:
    """Literal syntax: `3*a:v + a:w`; `0` is the identity."""
    text = text.strip()
    if text == "0":
        return ZERO_ELEM
    d: dict[str, int] = {}
    for term in text.split("+"):
        term = term.strip()
        coeff = 1
        if "*" in term:
            c, term = term.split("*", 1)
            coeff = int(c.strip())
        term = term.strip()
        if not term.startswith("a:"):
            raise MonoidError(f"bad monoid term {term!r}")
        v = term[2:]
        if v not in g.vertex_prime:
            raise MonoidError(f"unknown vertex {v!r}")
        d[v] = d.get(v, 0) + coeff
    return mon_of(d)


def format_monelem(x: MonElem) -> str:
    if not x.counts:
        return "0"
    return " + ".join(f"{n}*a:{v}" if n > 1 else f"a:{v}" for v, n in x.counts)


# -- presentation --------------------------------------------------------


@dataclass(frozen=True)
class Relation:
    vertex: str
    rhs: MonElem
    kind: str  # "free" or "regular"
    index: int | None  # loop index for free relations


@dataclass(frozen=True)
class Presentation:
    relations: tuple[Relation, ...]


def presentation(g: SeparatedGraph) -> Presentation:
    rels = []
    for p in g.primes:
        if isinstance(p, FreePrime):
            for i in range(1, p.k + 1):
                d = {p.name: 1}
                for u in p.targets[i - 1]:
                    d[u] = d.get(u, 0) + 1
                rels.append(Relation(p.name, mon_of(d), "free", i))
        else:
            for v in sorted(p.vertices):
                d: dict[str, int] = {}
                for e in list(g.out_edges(v)) + list(g.out_connectors(v)):
                    d[e.rng] = d.get(e.rng, 0) + 1
                rels.append(Relation(v, mon_of(d), "regular", None))
    return Presentation(tuple(rels))


# -- word problem --------------------------------------------------------


@dataclass(frozen=True)
class Budget:
    max_states: int = 100_000
    max_weight: int = 40


@dataclass(frozen=True)
class Yes:
    path: tuple[MonElem, ...] = ()


@dataclass(frozen=True)
class No:
    pass


@dataclass(frozen=True)
class Unknown:
    pass


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


@lru_cache(maxsize=4096)
def _reach_cached(pres: Presentation, x: MonElem, budget: Budget):
    """Shared read-only reachable sets; callers must not mutate them."""
    return reachable_set(pres, x, budget)


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


def refinement_witness(
    pres: Presentation, a: MonElem, b: MonElem, c: MonElem, d: MonElem,
    budget: Budget = Budget(),
):
    """(w,x,y,z) with a=w+x, b=y+z, c=w+y, d=x+z, or Unknown."""
    pre = mon_eq(pres, mon_add(a, b), mon_add(c, d), budget)
    if not isinstance(pre, Yes):
        raise MonoidError("a+b = c+d not established within budget")
    reach_a, _, _ = _reach_cached(pres, a, budget)
    reach_b, _, _ = _reach_cached(pres, b, budget)
    reach_c, _, _ = _reach_cached(pres, c, budget)
    for ua in reach_a:
        for w in _splits(ua):
            xx = mon_sub(ua, w)
            for uc in reach_c:
                if not mon_geq(uc, w):
                    continue
                yy = mon_sub(uc, w)
                for ub in reach_b:
                    if not mon_geq(ub, yy):
                        continue
                    zz = mon_sub(ub, yy)
                    if isinstance(mon_eq(pres, d, mon_add(xx, zz), budget), Yes):
                        return (w, xx, yy, zz)
    return Unknown()


def _splits(u: MonElem):
    """All w with w <= u componentwise."""
    items = list(u.counts)

    def rec(i):
        if i == len(items):
            yield {}
            return
        v, n = items[i]
        for rest in rec(i + 1):
            for take in range(n + 1):
                out = dict(rest)
                if take:
                    out[v] = take
                yield out

    for d in rec(0):
        yield mon_of(d)


# -- the type map --------------------------------------------------------


def vertex_of_idempotent(g: SeparatedGraph, e: Element) -> str:
    """The vertex representing the cylinder Z(e) in M(E,C)."""
    if not is_idempotent(e):
        raise MonoidError("not a nonzero idempotent")
    if isinstance(e.m.body, FreeBody):
        return e.m.p
    return g.path_end(e.m.body.src, e.m.body.gamma)


def typ_of(g: SeparatedGraph, a: CompactOpen) -> MonElem:
    out = ZERO_ELEM
    for mu in a.cyls:
        out = mon_add(out, mon_unit(epath_end(g, mu)))
    return out


def connect_idempotents(g: SeparatedGraph, e1: Element, e2: Element) -> Element:
    """s with s s* = e1 and s* s = e2; the idempotents must have the same
    type vertex."""
    v1 = vertex_of_idempotent(g, e1)
    v2 = vertex_of_idempotent(g, e2)
    if v1 != v2:
        raise MonoidError(f"type vertices differ: {v1} vs {v2}")
    if isinstance(e1.m.body, FreeBody):
        m = Monomial(e1.m.p, (), FreeBody(e1.m.body.k, e2.m.body.k))
    else:
        m = Monomial(
            e1.m.p,
            (),
            RegBody(
                e1.m.body.gamma,
                e2.m.body.gamma,
                cpath_range(g, e1.gamma),
                cpath_range(g, e2.gamma),
            ),
        )
    s = Triple(e1.gamma, m, e2.gamma)
    if mul(g, s, star(g, s)) != e1 or mul(g, star(g, s), s) != e2:
        raise MonoidError("connector construction failed")
    return s


# -- equidecomposition ---------------------------------------------------


@dataclass(frozen=True)
class EquidecompCertificate:
    elements: tuple[Element, ...]
    sources: tuple[Element, ...]  # s*s, a partition of A
    ranges: tuple[Element, ...]  # s s*, a partition of B


def verify_certificate(
    g: SeparatedGraph, cert: EquidecompCertificate, a: CompactOpen, b: CompactOpen
) -> bool:
    if not (len(cert.elements) == len(cert.sources) == len(cert.ranges)):
        return False
    for s, src, rng in zip(cert.elements, cert.sources, cert.ranges):
        if mul(g, star(g, s), s) != src or mul(g, s, star(g, s)) != rng:
            return False
    for group, whole in ((cert.sources, a), (cert.ranges, b)):
        for i in range(len(group)):
            for j in range(i + 1, len(group)):
                if not is_zero(mul(g, group[i], group[j])):
                    return False
        if not co_eq(g, co_of(g, *group), whole):
            return False
    return True


def _expand_for_relation(g: SeparatedGraph, pieces, rel: Relation):
    """Apply one relation to a cylinder list; None if no piece matches."""
    for i, e in enumerate(pieces):
        if vertex_of_idempotent(g, e) == rel.vertex:
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
        out = mon_add(out, mon_unit(vertex_of_idempotent(g, e)))
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
        by_vertex.setdefault(vertex_of_idempotent(g, e), []).append(e)
    elements, sources, ranges = [], [], []
    for ea in fin_a:
        eb = by_vertex[vertex_of_idempotent(g, ea)].pop()
        s = connect_idempotents(g, eb, ea)
        elements.append(s)
        sources.append(ea)
        ranges.append(eb)
    cert = EquidecompCertificate(tuple(elements), tuple(sources), tuple(ranges))
    if not verify_certificate(g, cert, a, b):
        raise MonoidError("constructed certificate failed verification")
    return cert


def classify_prime_generator(
    g: SeparatedGraph, v: str, budget: Budget = Budget()
) -> tuple[str, bool]:
    """('free'|'regular', consistency flag): regular generators satisfy
    2a_v <= a_v; free ones must not, within the budget."""
    pres = presentation(g)
    kind = "free" if g.is_free(g.prime_of_vertex(v)) else "regular"
    av = mon_unit(v)
    wit = mon_leq(pres, mon_add(av, av), av, budget)
    consistent = isinstance(wit, Yes) if kind == "regular" else isinstance(
        wit, Unknown
    )
    return kind, consistent
