"""The graph monoid M(E,C) and equidecomposition certificates.

M(E,C) is the commutative monoid generated by the vertices with one
relation per separation class: a free prime p contributes a_p = a_p +
sum of its class-i connector targets (one relation per loop index i), and
a regular vertex v contributes a_v = sum over edges leaving v.

One bounded breadth-first search, `_Search`, runs over integer vectors in
the sorted vertex order of the presentation, built once per graph.
`mon_eq` runs it from both sides; No only after a full congruence class
was enumerated below the weight cap.  `mon_leq` and `refinement_witness`
read closures run to the state cap.  Equidecomposition runs no `mon_eq`:
a common type of the two expansion-only closures proves the types equal,
and the relation path to the lightest one is replayed as simple expansions
of cylinders, matched by type vertex through explicit semigroup elements.

Precondition: the graph is adaptable (graph.validate_adaptable); nothing
here checks it.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from operator import add, ge, sub

from .graph import FreePrime, SeparatedGraph
from .lattice import CompactOpen, co_eq, co_of, epath_end, first_overlap
from .lattice import simple_expand, trusted_idem
from .semigroup import (
    Element,
    FreeBody,
    Monomial,
    RegBody,
    Triple,
    cpath_range,
    is_idempotent,
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
            try:
                coeff = int(c.strip())
            except ValueError:
                raise MonoidError(f"bad coefficient {c.strip()!r}") from None
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
    index: int | None  # loop index for free relations


@dataclass(frozen=True)
class Presentation:
    relations: tuple[Relation, ...]
    vertices: tuple[str, ...]  # sorted; the coordinates of a search state

    @cached_property
    def _index(self) -> dict[str, int]:
        return {v: i for i, v in enumerate(self.vertices)}

    @cached_property
    def _moves(self) -> tuple:
        """(needed counts, change, weight change, relation) of each relation
        applied left to right, then right to left."""
        out = []
        for rel in self.relations:
            rhs = _vector(self, rel.rhs)
            v = self._index[rel.vertex]
            change = list(rhs)
            change[v] -= 1
            change = tuple((i, n) for i, n in enumerate(change) if n)
            out.append((((v, 1),), change, sum(rhs) - 1, rel))
            need = tuple((i, n) for i, n in enumerate(rhs) if n)
            out.append((need, tuple((i, -n) for i, n in change), 1 - sum(rhs), rel))
        return tuple(out)


def presentation(g: SeparatedGraph) -> Presentation:
    """The relations of M(E,C), built once per graph and kept on it."""
    if g.monoid_presentation is not None:
        return g.monoid_presentation
    rels = []
    for p in g.primes:
        if isinstance(p, FreePrime):
            for i in range(1, p.k + 1):
                d = {p.name: 1}
                for u in p.targets[i - 1]:
                    d[u] = d.get(u, 0) + 1
                rels.append(Relation(p.name, mon_of(d), i))
        else:
            for v in sorted(p.vertices):
                d: dict[str, int] = {}
                for e in list(g.out_edges(v)) + list(g.out_connectors(v)):
                    d[e.rng] = d.get(e.rng, 0) + 1
                rels.append(Relation(v, mon_of(d), None))
    g.monoid_presentation = Presentation(tuple(rels), tuple(sorted(g.vertex_prime)))
    return g.monoid_presentation


def _vector(pres: Presentation, x: MonElem) -> tuple[int, ...]:
    """x as counts over pres.vertices: the searches' input boundary."""
    u = [0] * len(pres.vertices)
    for v, n in x.counts:
        i = pres._index.get(v)
        if i is None:
            raise MonoidError(f"vertex {v!r} is not in the presentation")
        u[i] += n
    return tuple(u)


def _elem(pres: Presentation, u: tuple[int, ...]) -> MonElem:
    return MonElem(tuple((v, n) for v, n in zip(pres.vertices, u) if n))


# -- word problem --------------------------------------------------------


@dataclass(frozen=True)
class Budget:
    """Limits of one monoid search.  `mon_eq` answers Unknown once its two
    sides together hold more than `max_states` states.  `mon_leq`,
    `refinement_witness` and `equidecompose` cap each closure separately:
    it stops expanding once it holds more than `max_states` states, so its
    last expansion can overshoot.  No search moves to a state heavier than
    `max_weight`."""

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


class _Search:
    """Breadth-first search over the states reachable from one start state.
    Each expanded state tries every relation left to right and, unless
    expand_only, right to left; states above max_weight are dropped and
    flagged in `pruned`."""

    def __init__(self, pres: Presentation, start, max_weight: int, expand_only=False):
        # _moves alternates expansions and contractions
        self.moves = pres._moves[::2] if expand_only else pres._moves
        self.max_weight = max_weight
        # state -> (previous state, relation), None at the start
        self.parents: dict = {start: None}
        self.queue = deque([start])
        self.pruned = False

    def expand(self) -> list:
        """Pop the next state and return the states first reached from it."""
        u = self.queue.popleft()
        weight = sum(u)
        new = []
        for need, change, dw, rel in self.moves:
            for i, n in need:
                if u[i] < n:
                    break
            else:
                if weight + dw > self.max_weight:
                    self.pruned = True
                    continue
                w = list(u)
                for i, n in change:
                    w[i] += n
                w = tuple(w)
                if w not in self.parents:
                    self.parents[w] = (u, rel)
                    self.queue.append(w)
                    new.append(w)
        return new

    def trail(self, u) -> list:
        """(state, relation that reached it) from u back to the start."""
        out = []
        while self.parents[u] is not None:
            out.append((u, self.parents[u][1]))
            u = self.parents[u][0]
        return out + [(u, None)]


def _closure(pres: Presentation, x, budget: Budget, expand_only=False) -> _Search:
    """The search from x, run until it is exhausted or over the state cap."""
    search = _Search(pres, x, budget.max_weight, expand_only)
    while search.queue and len(search.parents) <= budget.max_states:
        search.expand()
    return search


def mon_eq(pres: Presentation, x: MonElem, y: MonElem, budget: Budget = Budget()):
    """Bounded bidirectional search; No only on provable exhaustion."""
    ux, uy = _vector(pres, x), _vector(pres, y)
    if ux == uy:
        return Yes((x,))
    if sum(ux) > budget.max_weight or sum(uy) > budget.max_weight:
        return Unknown()
    sides = (_Search(pres, ux, budget.max_weight), _Search(pres, uy, budget.max_weight))
    states = 2
    while sides[0].queue or sides[1].queue:
        q0, q1 = sides[0].queue, sides[1].queue
        i = 0 if q0 and (not q1 or len(q0) <= len(q1)) else 1
        for w in sides[i].expand():
            states += 1
            if w in sides[1 - i].parents:
                path = sides[0].trail(w)[::-1] + sides[1].trail(w)[1:]
                return Yes(tuple(_elem(pres, u) for u, _ in path))
            if states > budget.max_states:
                return Unknown()
    if not (sides[0].pruned and sides[1].pruned):
        return No()
    return Unknown()


def mon_leq(pres: Presentation, x: MonElem, y: MonElem, budget: Budget = Budget()):
    """Yes(z) with x + z equal to y, or Unknown."""
    ux = _vector(pres, x)
    best = None
    for u in _closure(pres, _vector(pres, y), budget).parents:
        if all(map(ge, u, ux)) and (best is None or sum(u) < sum(best)):
            best = u
    if best is None:
        return Unknown()
    return Yes((_elem(pres, tuple(map(sub, best, ux))),))


def refinement_witness(
    pres: Presentation, a: MonElem, b: MonElem, c: MonElem, d: MonElem,
    budget: Budget = Budget(),
):
    """(w,x,y,z) with a=w+x, b=y+z, c=w+y, d=x+z, or Unknown.  A proof
    that a+b and c+d differ raises MonoidError; Unknown also when the
    budget ran out before a+b = c+d was shown."""
    eq = mon_eq(pres, mon_add(a, b), mon_add(c, d), budget)
    if isinstance(eq, No):
        raise MonoidError("a+b and c+d are unequal")
    if isinstance(eq, Unknown):
        return eq
    reach_a, reach_b, reach_c, reach_d = (
        _closure(pres, _vector(pres, m), budget).parents for m in (a, b, c, d)
    )
    for ua in reach_a:
        for w in _below(ua):
            xx = tuple(map(sub, ua, w))
            for uc in reach_c:
                if not all(map(ge, uc, w)):
                    continue
                yy = tuple(map(sub, uc, w))
                for ub in reach_b:
                    if not all(map(ge, ub, yy)):
                        continue
                    zz = tuple(map(sub, ub, yy))
                    if tuple(map(add, xx, zz)) in reach_d:
                        return tuple(_elem(pres, u) for u in (w, xx, yy, zz))
    return Unknown()


def _below(u):
    """Every w <= u componentwise, the first coordinate varying fastest."""
    support = [i for i, n in enumerate(u) if n][::-1]
    for takes in product(*(range(u[i] + 1) for i in support)):
        w = [0] * len(u)
        for i, n in zip(support, takes):
            w[i] = n
        yield tuple(w)


# -- the type map --------------------------------------------------------


def vertex_of_idempotent(g: SeparatedGraph, e: Element) -> str:
    """The vertex representing the cylinder Z(e) in M(E,C)."""
    if not is_idempotent(e):
        raise MonoidError("not a nonzero idempotent")
    if isinstance(e.m.body, FreeBody):
        return e.m.p
    return g.path_end(e.m.body.src, e.m.body.gamma)


def typ_of(g: SeparatedGraph, a: CompactOpen) -> MonElem:
    return mon_of(Counter(epath_end(g, mu) for mu in a.cyls))


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
        if first_overlap(g, group) is not None or not co_eq(g, co_of(g, *group), whole):
            return False
    return True


def _expand_for_relation(g: SeparatedGraph, pieces, rel: Relation):
    """Apply one relation to a cylinder list: expand its first piece of type
    rel.vertex."""
    for i, e in enumerate(pieces):
        if vertex_of_idempotent(g, e) == rel.vertex:
            return pieces[:i] + tuple(simple_expand(g, e, rel.index)) + pieces[i + 1 :]
    raise MonoidError(f"no cylinder of type {rel.vertex!r} to expand")


def _replay(g: SeparatedGraph, a: CompactOpen, search: _Search, t) -> list[Element]:
    """The cylinders of A expanded along the search's relation path to t."""
    pieces = tuple(trusted_idem(g, mu) for mu in a.cyls)
    for _, rel in reversed(search.trail(t)[:-1]):
        pieces = _expand_for_relation(g, pieces, rel)
    return list(pieces)


def equidecompose(
    g: SeparatedGraph, a: CompactOpen, b: CompactOpen, budget: Budget = Budget()
):
    """A certificate that A and B are equidecomposable, or Unknown if no
    common type is found within the budget.  Of the lightest common types,
    the first in A's breadth-first order is used."""
    pres = presentation(g)
    ta, tb = typ_of(g, a), typ_of(g, b)
    reach_a, reach_b = (_closure(pres, _vector(pres, t), budget, True) for t in (ta, tb))
    common = [t for t in reach_a.parents if t in reach_b.parents]
    if not common:
        return Unknown()
    t = min(common, key=sum)
    fin_a, fin_b = _replay(g, a, reach_a, t), _replay(g, b, reach_b, t)
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

