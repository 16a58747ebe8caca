"""The graph monoid M(E,C) and equidecomposition certificates.

M(E,C) is the commutative monoid generated by the vertices with one
relation per separation class: a free prime p contributes a_p = a_p +
sum of its class-i connector targets (one relation per loop index i), and
a regular vertex v contributes a_v = sum over edges leaving v.

The presentation is built once per graph.  On first use, `complete` turns
it into a convergent rewriting system (commutative Knuth-Bendix
completion, charged against `Budget.max_states`) and keeps it on the
presentation; `verify_inequality` checks it once, so that different normal
forms prove two elements unequal.

Every equality question is answered by one search, `_common_type`.  By the
diamond lemma, x = y exactly when x and y have a common expansion, so it
runs the expansion-only closures of the two sides, breadth first over
integer vectors in the sorted vertex order of the presentation and each
under its own state cap, and returns their lightest common state, or No
(different normal forms, or exhausted closures that prove it), or Unknown.
`mon_eq` reads a relation path from the two trails to that state,
`refinement_witness` splits the trails by summand, and `equidecompose`
replays them on the cylinders' E-paths, matched by type vertex
(`epath_end`); elements are built only for the certificate, whose check
reads each side through `disjoint_union`.  `mon_leq` runs y's
expansion-only closure until a state lies above an expansion of x
(`_below`, which expands all of a vertex's excess copies in one step),
and answers No when the closure, exhausted with nothing pruned, holds
none.  Every Unknown names the limit it hit.

The monoid's operation is `mon_add`, and the type map, from compact open
sets to M(E,C), is `typ_of`.

Precondition: the graph is adaptable (graph.validate_adaptable); nothing
here checks it.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field
from functools import cached_property
from heapq import heappop, heappush
from itertools import combinations
from operator import add, ge, sub

from .graph import FreePrime, SeparatedGraph
from .lattice import CompactOpen, EPath, co_eq, disjoint_union, epath_children, epath_end
from .lattice import trusted_idem, trusted_isometry
from .semigroup import Element, is_zero, mul, star


class MonoidError(Exception):
    """Raised on malformed monoid inputs or violated preconditions."""


# -- elements ------------------------------------------------------------


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class Relation:
    vertex: str
    rhs: MonElem
    index: int | None  # loop index for free relations


# Not slotted: cached_property stores its values in the instance __dict__.
# The search tables are built on first use, not by presentation(): every
# perfbench set-up builds the presentation, and only the equidecompose
# workload searches it.
@dataclass(frozen=True)
class Presentation:
    relations: tuple[Relation, ...]
    vertices: tuple[str, ...]  # sorted; the coordinates of a search state

    @cached_property
    def _index(self) -> dict[str, int]:
        return {v: i for i, v in enumerate(self.vertices)}

    @cached_property
    def _completion(self) -> _Completion:
        return _Completion()

    @cached_property
    def _sides(self) -> tuple:
        """The two sides of each relation as vectors over `vertices`."""
        return tuple((_vector(self, mon_unit(rel.vertex)), _vector(self, rel.rhs))
                     for rel in self.relations)

    @cached_property
    def _moves(self) -> tuple:
        """(vertex index, change, weight change, relation) of each relation
        applied left to right: an expansion needs one copy of one vertex."""
        return tuple((self._index[rel.vertex], _sparse(map(sub, r, l)), sum(r) - 1, rel)
                     for rel, (l, r) in zip(self.relations, self._sides))


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
                for e in g.out_edges_of[v] + g.out_connectors_of[v]:
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


@dataclass(frozen=True, slots=True)
class Budget:
    """Limits of one monoid question.  Every closure is capped alone: it
    stops expanding once it holds more than `max_states` states, so its
    last expansion can overshoot.  The two expansion-only closures of
    `mon_eq`, `refinement_witness` and `equidecompose` stop earlier, once no
    lighter common state can appear, and `mon_leq`'s at its first witness.
    No search moves to a state heavier than `max_weight`.  Completion
    (`complete`) is charged one unit per critical pair it processes, and
    answers only when the presentation needs at most `max_states` of them;
    `max_weight` does not bound it."""

    max_states: int = 100_000
    max_weight: int = 40


@dataclass(frozen=True, slots=True)
class Yes:
    """`path` is a relation path from x to y for `mon_eq`, and (z,) with
    x + z = y for `mon_leq`."""

    path: tuple[MonElem, ...] = ()


@dataclass(frozen=True, slots=True)
class No:
    pass


@dataclass(frozen=True, slots=True)
class Unknown:
    """No answer within the budget.  `reason` names the limit that was hit:
    "state cap", "weight cap" or "completion budget".  `equidecompose` also
    answers Unknown("types unequal") where `mon_eq` answers No: the types
    are proven unequal, so there is no certificate to give."""

    reason: str = field(default="", compare=False)


# -- completion ----------------------------------------------------------


def _order_key(u) -> tuple:
    """The term order: total degree first, then reverse lex over the
    presentation's vertices.  u is greater than v exactly when its key is."""
    return sum(u), tuple(-n for n in reversed(u))


def _sparse(u) -> tuple[tuple[int, int], ...]:
    return tuple((i, n) for i, n in enumerate(u) if n)


def _reduce(steps, u) -> tuple[int, ...]:
    """u rewritten by (needed counts, change) steps until none applies."""
    u = list(u)
    again = True
    while again:
        again = False
        for need, change in steps:
            for i, n in need:
                if u[i] < n:
                    break
            else:
                k = min(u[i] // n for i, n in need)
                for i, n in change:
                    u[i] += k * n
                again = True
    return tuple(u)


def _rule_steps(rules) -> list:
    """The (needed counts, change) step of each rule (l, r)."""
    return [(_sparse(l), _sparse(map(sub, r, l))) for l, r in rules]


# Not slotted: cached_property stores its values in the instance __dict__.
@dataclass(frozen=True)
class RewritingSystem:
    """Rules (l, r) over the vectors of `Presentation.vertices`, each with l
    greater than r in the term order; a rule rewrites u >= l to u - l + r."""

    rules: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]

    @cached_property
    def _steps(self) -> list:
        return _rule_steps(self.rules)

    def normal_form(self, u: tuple[int, ...]) -> tuple[int, ...]:
        return _reduce(self._steps, u)


def _critical_pair(l1, r1, l2, r2):
    """The two rewrites of lcm(l1, l2), or None when l1 and l2 share no
    vertex (such a pair always joins)."""
    if not any(a and b for a, b in zip(l1, l2)):
        return None
    m = tuple(map(max, l1, l2))
    return tuple(map(add, map(sub, m, l1), r1)), tuple(map(add, map(sub, m, l2), r2))


def _complete(pres: Presentation, max_pairs: int):
    """Commutative Knuth-Bendix completion (Buchberger's algorithm on the
    binomial ideal) of the relations, critical pairs taken smallest lcm
    degree first: the system and the number of pairs processed, or None
    once more than max_pairs were.  A rule whose left side a new rule
    rewrites goes back to the equations."""
    rules: dict[int, tuple] = {}  # id -> (l, r); ids fix every order
    steps: list = []
    todo = deque(pres._sides)
    pairs: list = []  # heap of (lcm degree, id, id)
    processed = 0
    new_id = 0
    while True:
        while todo:
            a, b = (_reduce(steps, u) for u in todo.popleft())
            if a == b:
                continue
            l, r = (a, b) if _order_key(a) > _order_key(b) else (b, a)
            for j, (lj, rj) in list(rules.items()):
                if all(map(ge, lj, l)):
                    del rules[j]
                    todo.append((lj, rj))
            for j, (lj, _) in rules.items():
                if any(x and y for x, y in zip(l, lj)):
                    heappush(pairs, (sum(map(max, l, lj)), j, new_id))
            rules[new_id] = (l, r)
            new_id += 1
            steps = _rule_steps(rules.values())
        if not pairs:
            return RewritingSystem(tuple(rules.values())), processed
        _, i, j = heappop(pairs)
        if i in rules and j in rules:
            processed += 1
            if processed > max_pairs:
                return None
            todo.append(_critical_pair(*rules[i], *rules[j]))


def verify_inequality(pres: Presentation, system: RewritingSystem) -> bool:
    """Whether different normal forms under `system` prove two elements of
    M(E,C) unequal.  It checks, needing no derivations, that every rule
    decreases in the term order (so rewriting terminates), that every
    critical pair joins (so the system is confluent) and that the two sides
    of every relation have one normal form (so equal elements do)."""
    nf = system.normal_form
    if any(_order_key(l) <= _order_key(r) for l, r in system.rules):
        return False
    if any(nf(l) != nf(r) for l, r in pres._sides):
        return False
    for (l1, r1), (l2, r2) in combinations(system.rules, 2):
        pair = _critical_pair(l1, r1, l2, r2)
        if pair is not None and nf(pair[0]) != nf(pair[1]):
            return False
    return True


@dataclass(slots=True)
class _Completion:
    """What `complete` has found for one presentation."""

    system: RewritingSystem | None = None
    pairs: int = 0  # the critical pairs that the completed run processed
    gave_up_at: int = -1  # the largest max_states that completion ran out of


def complete(pres: Presentation, budget: Budget = Budget()):
    """The convergent rewriting system of the presentation, which has passed
    `verify_inequality`, or Unknown("completion budget") when more than
    `budget.max_states` critical pairs are needed.  Computed on first use
    and kept on the presentation, with the number of pairs it needed, so
    that the answer depends on this call's budget alone; a run that gave up
    is not repeated under a budget no larger."""
    state = pres._completion
    if state.system is None and budget.max_states > state.gave_up_at:
        done = _complete(pres, budget.max_states)
        if done is None:
            state.gave_up_at = budget.max_states
        elif not verify_inequality(pres, done[0]):
            raise MonoidError("completed system failed verification")
        else:
            state.system, state.pairs = done
    if state.system is None or state.pairs > budget.max_states:
        return Unknown("completion budget")
    return state.system


class _Search:
    """Breadth-first search over the expansions of one start state: the
    expansion-only closure.  Each expanded state tries every relation left
    to right; states above max_weight are dropped and flagged in
    `pruned`."""

    def __init__(self, pres: Presentation, start, max_weight: int):
        self.moves = pres._moves
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
        for v, change, dw, rel in self.moves:
            if not u[v]:
                continue
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


def _open(search: _Search, budget: Budget) -> bool:
    """Whether the search is neither exhausted nor over the state cap."""
    return bool(search.queue) and len(search.parents) <= budget.max_states


def _common_type(pres: Presentation, ux, uy, budget: Budget):
    """(A, B, t): the expansion-only searches from ux and uy and the lightest
    state t both reached, first in A's breadth-first order; or No, or
    Unknown naming the limit hit.  By the diamond lemma, ux = uy exactly
    when they have a common expansion, so t proves them equal.

    Different normal forms of the completed system answer No before any
    search.  Otherwise the two closures are expanded alternately, each only
    while it is open (see `_open`) and could still change the answer.  Once a
    common state of weight w is known, A could change it only by reaching a
    state lighter than w (a tie would come later in A's order), and B only
    by reaching one no heavier than w.  Every expansion move adds at least
    `step` >= 1 to the weight (a free prime has a target in each class, a
    regular vertex two edges), so a queued state u leads to nothing lighter
    than sum(u) + step.  The answer is the one the two closures run to the
    state cap would give (`_verdict`, when they share no state)."""
    system = complete(pres, budget)
    if isinstance(system, RewritingSystem) and system.normal_form(ux) != system.normal_form(uy):
        return No()
    a, b = (_Search(pres, u, budget.max_weight) for u in (ux, uy))
    step = min((dw for _, _, dw, _ in a.moves), default=0)
    best = sum(ux) if ux == uy else None  # the lightest common weight so far

    def wanted(search: _Search, slack: int) -> bool:
        return _open(search, budget) and (
            best is None
            or any(sum(u) + step < best + slack for u in search.queue)
        )

    # (search, other search, slack): A is wanted while it could reach a
    # state lighter than best, B one no heavier.  A side no longer wanted
    # is never wanted again: it is not expanded, and best only falls.
    sides = [(a, b, 0), (b, a, 1)]
    while sides:
        sides = [(s, other, slack) for s, other, slack in sides if wanted(s, slack)]
        for search, other, _ in sides:
            for w in search.expand():
                if w in other.parents and (best is None or sum(w) < best):
                    best = sum(w)
    common = [t for t in a.parents if t in b.parents]
    return (a, b, min(common, key=sum)) if common else _verdict(system, a, b, budget)


def _verdict(system, a: _Search, b: _Search, budget: Budget):
    """No or Unknown for two expansion-only closures that share no state,
    each exhausted or over the state cap; `system` is what `complete` gave.

    The answer is No when both closures are exhausted, both starts weigh at
    most max_weight, and at least one closure, say A, had nothing pruned.
    Proof: were the starts equal, they would have a common expansion c (the
    diamond lemma).  A, exhausted with nothing pruned, holds every
    expansion of its start, so c is in A and weighs at most max_weight.
    Expansions only gain weight, so every state on the way from B's start
    to c weighs at most max_weight too, and B, being exhausted, would have
    reached c.  Otherwise the answer is the completion's Unknown when
    completion gave up, else Unknown naming the limit that stopped the
    closures."""
    starts = (next(iter(s.parents)) for s in (a, b))  # a search's first state
    if a.queue or b.queue:
        limit = "state cap"
    elif (a.pruned and b.pruned) or max(map(sum, starts)) > budget.max_weight:
        limit = "weight cap"
    else:
        return No()
    return system if isinstance(system, Unknown) else Unknown(limit)


def mon_eq(pres: Presentation, x: MonElem, y: MonElem, budget: Budget = Budget()):
    """Yes with a relation path: x's expansions up to the common state of
    `_common_type`, then y's expansions from it taken back.  No or Unknown
    as `_common_type` answers."""
    ux, uy = _vector(pres, x), _vector(pres, y)
    if ux == uy:
        return Yes((_elem(pres, ux),))
    found = _common_type(pres, ux, uy, budget)
    if not isinstance(found, tuple):
        return found
    a, b, t = found
    path = [u for u, _ in reversed(a.trail(t))] + [u for u, _ in b.trail(t)[1:]]
    return Yes(tuple(_elem(pres, u) for u in path))


def _below(lower: dict, u, b):
    """An expansion of u that lies below b, or None when there is none;
    `lower` maps each vertex index that its relations lower to the change
    of that relation.  While some vertex v has u_v > b_v, its u_v - b_v
    excess copies are expanded in one step; None once v is not in `lower`
    or sum(u) >= sum(b).  A step costs one pass over the vertices, however
    many copies it expands.

    Proof: (1) any expansion of u below b must expand u_v - b_v copies of
    such a v, as only v's relations lower v; those moves can be made first,
    because the moves before them never consume v.  (2) Only a free prime
    has several relations, and each of them keeps its copy, as does the one
    relation of a regular vertex with a loop: such a v never falls.  Any
    other v has one relation, so the moves are forced.  (3) Every expansion
    adds at least 1 to the weight, and anything below b weighs at most
    sum(b)."""
    u = list(u)
    while True:
        v = next((i for i, (m, n) in enumerate(zip(u, b)) if m > n), None)
        if v is None:
            return tuple(u)
        if v not in lower or sum(u) >= sum(b):
            return None
        k = u[v] - b[v]
        for i, n in lower[v]:
            u[i] += k * n


def mon_leq(pres: Presentation, x: MonElem, y: MonElem, budget: Budget = Budget()):
    """Yes((b - a,)) for the first state b of y's expansion-only closure,
    its start first, above an expansion a of x (`_below`).  x <= y exactly
    when such a and b exist: a common expansion of x + z and y (the diamond
    lemma) splits by summand.  No when the closure, exhausted with nothing
    pruned (every expansion of y), has no such b; else Unknown."""
    ux = _vector(pres, x)
    lower = {v: change for v, change, _, _ in pres._moves if (v, -1) in change}
    search = _Search(pres, _vector(pres, y), budget.max_weight)
    reached = list(search.parents)
    while True:
        for b in reached:
            a = _below(lower, ux, b)
            if a is not None:
                return Yes((_elem(pres, tuple(map(sub, b, a))),))
        if not _open(search, budget):
            break
        reached = search.expand()
    if search.queue:
        return Unknown("state cap")
    return Unknown("weight cap") if search.pruned else No()


def refinement_witness(
    pres: Presentation, a: MonElem, b: MonElem, c: MonElem, d: MonElem,
    budget: Budget = Budget(),
):
    """(w,x,y,z) with a=w+x, b=y+z, c=w+y, d=x+z, from the common expansion
    t of a+b and c+d that `_common_type` finds; its No raises MonoidError,
    its Unknown is the answer.  Each side's trail to t is split by summand,
    so that t = ta + tb = tc + td in N^V; then w = min(ta, tc), x = ta - w,
    y = tc - w and z = tb - y.  A split or sum failing its check raises
    MonoidError."""
    ta, tb, tc, td = (list(_vector(pres, m)) for m in (a, b, c, d))
    found = _common_type(pres, tuple(map(add, ta, tb)), tuple(map(add, tc, td)), budget)
    if isinstance(found, No):
        raise MonoidError("a+b and c+d are unequal")
    if isinstance(found, Unknown):
        return found
    *searches, t = found
    grow = {rel: change for _, change, _, rel in pres._moves}  # sparse changes
    for (first, second), search in zip(((ta, tb), (tc, td)), searches):
        for _, rel in reversed(search.trail(t)[:-1]):
            v = pres._index[rel.vertex]
            part = first if first[v] else second  # the first summand while it holds a copy
            if not part[v]:
                raise MonoidError(f"no copy of {rel.vertex!r} to expand")
            for i, n in grow[rel]:
                part[i] += n
    if list(map(add, ta, tb)) != list(map(add, tc, td)):
        raise MonoidError("the two sides of the refinement valley differ")
    w = tuple(map(min, ta, tc))
    x, y = tuple(map(sub, ta, w)), tuple(map(sub, tc, w))
    return tuple(_elem(pres, u) for u in (w, x, y, tuple(map(sub, tb, y))))


# -- the type map --------------------------------------------------------


def typ_of(g: SeparatedGraph, a: CompactOpen) -> MonElem:
    """The type of A in M(E,C): one copy of each cylinder's type vertex,
    where its E-path ends (`epath_end`)."""
    return mon_of(Counter(epath_end(g, mu) for mu in a.cyls))


# -- equidecomposition ---------------------------------------------------


@dataclass(frozen=True, slots=True)
class EquidecompCertificate:
    elements: tuple[Element, ...]
    sources: tuple[Element, ...]  # s*s, a partition of A
    ranges: tuple[Element, ...]  # s s*, a partition of B


def verify_certificate(
    g: SeparatedGraph, cert: EquidecompCertificate, a: CompactOpen, b: CompactOpen
) -> bool:
    """Whether every element s is nonzero with s*s its source and s s* its
    range, and the sources (ranges) are pairwise orthogonal with union A
    (B)."""
    if not (len(cert.elements) == len(cert.sources) == len(cert.ranges)):
        return False
    for s, src, rng in zip(cert.elements, cert.sources, cert.ranges):
        if is_zero(s) or mul(g, star(g, s), s) != src or mul(g, s, star(g, s)) != rng:
            return False
    for group, whole in ((cert.sources, a), (cert.ranges, b)):
        union = disjoint_union(g, group)
        if union is None or not co_eq(g, union, whole):
            return False
    return True


def _replay(g: SeparatedGraph, a: CompactOpen, search: _Search, t) -> list[EPath]:
    """The cylinders of A expanded along the search's relation path to t:
    each relation expands the first piece of type rel.vertex."""
    pieces = list(a.cyls)
    for _, rel in reversed(search.trail(t)[:-1]):
        i = next((i for i, mu in enumerate(pieces) if epath_end(g, mu) == rel.vertex), None)
        if i is None:
            raise MonoidError(f"no cylinder of type {rel.vertex!r} to expand")
        pieces[i : i + 1] = epath_children(g, pieces[i], rel.index)
    return pieces


def equidecompose(
    g: SeparatedGraph, a: CompactOpen, b: CompactOpen, budget: Budget = Budget()
):
    """A certificate that A and B are equidecomposable, replayed from the
    common type that `_common_type` finds: of the lightest, the first in
    A's breadth-first order.  Its No, a proof that the types differ, gives
    Unknown("types unequal"); its Unknown is the answer."""
    pres = presentation(g)
    found = _common_type(pres, *(_vector(pres, typ_of(g, x)) for x in (a, b)), budget)
    if not isinstance(found, tuple):
        return Unknown("types unequal") if isinstance(found, No) else found
    reach_a, reach_b, t = found
    by_vertex: dict[str, list[EPath]] = {}
    for mu in _replay(g, b, reach_b, t):
        by_vertex.setdefault(epath_end(g, mu), []).append(mu)
    fin_a = _replay(g, a, reach_a, t)
    fin_b = [by_vertex[epath_end(g, mu)].pop() for mu in fin_a]
    # verify_certificate below checks s s* and s* s of every piece.
    cert = EquidecompCertificate(
        tuple(trusted_isometry(g, rho, mu) for mu, rho in zip(fin_a, fin_b)),
        tuple(trusted_idem(g, mu) for mu in fin_a),
        tuple(trusted_idem(g, rho) for rho in fin_b),
    )
    if not verify_certificate(g, cert, a, b):
        raise MonoidError("constructed certificate failed verification")
    return cert

