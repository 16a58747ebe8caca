"""The idempotent semilattice and its cylinder-set Boolean algebra.

Nonzero idempotents correspond bijectively to E-paths (a descending c-path
prefix plus a finite tail in the terminal component), and Z(e) lies in
Z(f) exactly when f's E-path is an initial segment of e's.  EPath is the
one path value: the semifinite paths of the filters module are EPaths too.
Meets, the order, overlaps and differences are read off the E-paths by one
rule (_cyl_meet) without forming semigroup products; semigroup.mul is the
reference for that rule only in the tests.  An idempotent a caller passes
is checked once, where it enters (`_epath`), and an E-path a caller passes
by semigroup.validate_epath (`idem_of`); the covers, disjoint unions and
expansion replay (`expand`) then read E-paths only and build elements
(`trusted_idem`, `trusted_isometry`) only for what they return.  An
element's monomial holds the tails of two E-paths: an idempotent's E-path
is its gamma, its monomial's prime and its monomial's left tail.
Compact-open subsets of the path space are finite disjoint unions of
cylinders Z(mu), kept in a canonical sorted form so that equality is
decidable.  Subtraction descends by simple expansions directed at the
subtrahend, which reproduces the explicit cylinder decompositions.

Precondition: the graph is adaptable (graph.validate_adaptable); nothing
here checks it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .graph import SeparatedGraph
from .semigroup import (
    CPath,
    Element,
    FreeStep,
    Monomial,
    RegularStep,
    ZERO,
    Triple,
    cpath_edge_len,
    cpath_range,
    is_idempotent,
    step_in_tail,
    validate_epath,
)


class LatticeError(Exception):
    """Raised on precondition violations in lattice operations."""


# -- E-paths -------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class EPath:
    """A path: gamma descends into the component of prime p, and tail is a
    tuple of loop exponents (free p) or an internal path (regular p).  It
    is the E-path of an idempotent, and a semifinite path of the filters
    module, whose loop counts may also be INF and whose regular tail may be
    an infinite filters.PerTail."""

    gamma: CPath
    p: str
    tail: tuple


@dataclass(frozen=True, slots=True)
class Bounds:
    """Size limits for finite enumerations of paths and idempotents."""

    max_depth: int = 2
    max_exp: int = 6
    max_len: int = 8


def epath_of(g: SeparatedGraph, e: Element) -> EPath:
    return _epath(e, "e")


def _epath(e: Element, name: str) -> EPath:
    """The E-path of e; raises LatticeError unless e is a nonzero
    idempotent."""
    if not is_idempotent(e):
        raise LatticeError(f"{name} is not a nonzero idempotent")
    return EPath(e.gamma, e.m.p, e.m.left)


def idem_of(g: SeparatedGraph, mu: EPath) -> Element:
    """The idempotent of an E-path that comes from a caller, checked in full
    by semigroup.validate_epath.  Raises LatticeError, or GraphError for a
    name the graph lacks.  E-paths the library builds itself go through
    trusted_idem instead."""
    validate_epath(g, mu.gamma, mu.p, mu.tail, LatticeError)
    return trusted_idem(g, mu)


def trusted_idem(g: SeparatedGraph, mu: EPath) -> Element:
    """The idempotent of an E-path the library built itself, without any
    check: trusted_isometry from Z(mu) onto itself."""
    return trusted_isometry(g, mu, mu)


def trusted_isometry(g: SeparatedGraph, mu: EPath, rho: EPath) -> Element:
    """The partial isometry s with s s* the idempotent of mu and s* s that
    of rho, without any check.  The caller guarantees what idem_of would
    check of both E-paths, and that they end at one type vertex (epath_end).
    A malformed E-path gives a malformed element.  When mu is rho, gamma and
    eta are one object, which is_idempotent tests first."""
    return Triple(mu.gamma, Monomial(mu.p, (), mu.tail, rho.tail), rho.gamma)


def epath_key(g: SeparatedGraph, mu: EPath):
    # Steps compare as tuples: two prefixes from one start first differ at
    # steps leaving one vertex, so of one kind, compared field by field.
    return (
        cpath_edge_len(mu.gamma) + (sum(mu.tail) if mu.p in g.free_k else len(mu.tail)),
        mu.gamma.start,
        mu.gamma.steps,
        mu.p,
        tuple(mu.tail),
    )


# -- order, meet, join ---------------------------------------------------


def _cyl_meet(g: SeparatedGraph, mu: EPath, rho: EPath) -> EPath | None:
    """The E-path of Z(mu) & Z(rho), or None when the cylinders are
    disjoint: the semigroup product of the two idempotents, read off their
    E-paths."""
    if mu.gamma.start != rho.gamma.start:
        return None
    a, b = mu.gamma.steps, rho.gamma.steps
    if len(a) > len(b):
        mu, rho, a, b = rho, mu, b, a
    n = len(a)
    if b[:n] != a:
        return None
    if len(b) > n:
        # rho descends past mu's component; its step there must lie in
        # mu's tail cylinder.
        return rho if step_in_tail(b[n], mu.tail) else None
    if mu.p in g.free_k:
        return EPath(mu.gamma, mu.p, tuple(map(max, mu.tail, rho.tail)))
    if len(mu.tail) > len(rho.tail):
        mu, rho = rho, mu
    return rho if rho.tail[: len(mu.tail)] == mu.tail else None


def meet(g: SeparatedGraph, e: Element, f: Element) -> Element:
    m = _cyl_meet(g, _epath(e, "e"), _epath(f, "f"))
    return ZERO if m is None else trusted_idem(g, m)


def nat_leq(g: SeparatedGraph, e: Element, f: Element) -> bool:
    mu = _epath(e, "e")
    return _cyl_meet(g, mu, _epath(f, "f")) == mu


def join_free(g: SeparatedGraph, e: Element, f: Element) -> Element:
    _epath(e, "e")
    _epath(f, "f")
    if e.gamma != f.gamma or e.m.p != f.m.p:
        raise LatticeError("join_free needs identical prefixes at one prime")
    if e.m.p not in g.free_k:
        raise LatticeError("join_free is defined at free primes only")
    return trusted_idem(g, EPath(e.gamma, e.m.p, tuple(map(min, e.m.left, f.m.left))))


# -- expansions ----------------------------------------------------------


def simple_expand(
    g: SeparatedGraph, e: Element, choice: int | None = None
) -> list[Element]:
    """Split an idempotent into its orthogonal children one level down."""
    return [trusted_idem(g, mu) for mu in epath_children(g, _epath(e, "e"), choice)]


def epath_children(g: SeparatedGraph, mu: EPath, choice: int | None) -> list[EPath]:
    """The E-paths of the simple expansion of Z(mu) along loop index
    `choice` (free prime) or without a choice (regular prime)."""
    out: list[EPath] = []
    kp = g.free_k.get(mu.p)
    if kp is not None:
        if choice is None or not 1 <= choice <= kp:
            raise LatticeError(f"simple_expand at free {mu.p} needs a loop index")
        j0 = choice
        bumped = tuple(
            x + 1 if j == j0 else x for j, x in enumerate(mu.tail, start=1)
        )
        out.append(EPath(mu.gamma, mu.p, bumped))
        for t, u in enumerate(g.prime_by_name[mu.p].targets[j0 - 1], start=1):
            step = FreeStep(mu.p, j0, mu.tail[j0 - 1], t)
            cpath = CPath(mu.gamma.start, mu.gamma.steps + (step,))
            out.append(top_epath(g, cpath, g.vertex_prime[u]))
    else:
        if choice is not None:
            raise LatticeError("simple_expand at a regular prime takes no choice")
        v = epath_end(g, mu)
        for edge in g.out_edges_of[v]:
            out.append(EPath(mu.gamma, mu.p, mu.tail + (edge.name,)))
        for conn in g.out_connectors_of[v]:
            step = RegularStep(mu.p, mu.tail, conn.name)
            cpath = CPath(mu.gamma.start, mu.gamma.steps + (step,))
            out.append(top_epath(g, cpath, g.vertex_prime[conn.rng]))
    return out


def top_epath(g: SeparatedGraph, gamma: CPath, p: str) -> EPath:
    """The E-path of the whole cylinder below gamma, which ends at the prime
    p: a zero loop-exponent vector or an empty internal path."""
    kp = g.free_k.get(p)
    return EPath(gamma, p, () if kp is None else (0,) * kp)


def epath_end(g: SeparatedGraph, mu: EPath) -> str:
    """The vertex where the E-path ends: the free prime itself, or the end
    of the internal tail at a regular prime.  It represents Z(mu) in the
    graph monoid."""
    if mu.p in g.free_k:
        return mu.p
    return g.path_end(cpath_range(g, mu.gamma), mu.tail)


Script = list[tuple[int, int | None]]


def expand(g: SeparatedGraph, e: Element, script: Script) -> list[Element]:
    """Replay a script of (position, choice) simple expansions of e, read
    as an E-path once; the pieces become elements at the end."""
    out = [_epath(e, "e")]
    for pos, choice in script:
        if not 0 <= pos < len(out):
            raise LatticeError(f"script position {pos} out of range")
        out[pos : pos + 1] = epath_children(g, out[pos], choice)
    return [trusted_idem(g, mu) for mu in out]


# -- compact opens -------------------------------------------------------


@dataclass(frozen=True, slots=True)
class CompactOpen:
    """A finite disjoint union of cylinders, canonically sorted."""

    cyls: tuple[EPath, ...]


def co_of(g: SeparatedGraph, *elements: Element) -> CompactOpen:
    """The union of the cylinders of the given idempotents."""
    out = CompactOpen(())
    for e in elements:
        out = co_union(g, out, CompactOpen((epath_of(g, e),)))
    return out


def _normalize(g: SeparatedGraph, cyls) -> CompactOpen:
    return CompactOpen(tuple(sorted(cyls, key=lambda mu: epath_key(g, mu))))


def _cyl_subtract(g: SeparatedGraph, mu: EPath, rho: EPath) -> list[EPath]:
    """Z(mu) minus Z(rho) as disjoint cylinders, by directed expansion.
    Exactly one child of each expansion holds the meet, and the others are
    disjoint from Z(rho): they are kept, and the descent goes on in that one
    child until the child lies inside Z(rho)."""
    target = _cyl_meet(g, mu, rho)
    if target is None:
        return [mu]
    out: list[EPath] = []
    while target != mu:
        choice = _direction(g, mu, target) if mu.p in g.free_k else None
        for child in epath_children(g, mu, choice):
            meet = _cyl_meet(g, child, rho)
            if meet is None:
                out.append(child)
            else:
                mu, target = child, meet
    return out


def _direction(g: SeparatedGraph, mu: EPath, target: EPath) -> int:
    """The loop index along which target properly extends mu."""
    n = len(mu.gamma.steps)
    if len(target.gamma.steps) > n:
        return target.gamma.steps[n].i
    for j, (a, b) in enumerate(zip(mu.tail, target.tail), start=1):
        if b > a:
            return j
    raise LatticeError("no expansion direction: target does not extend mu")


def co_intersect(g: SeparatedGraph, a: CompactOpen, b: CompactOpen) -> CompactOpen:
    out = []
    for mu in a.cyls:
        for rho in b.cyls:
            m = _cyl_meet(g, mu, rho)
            if m is not None:
                out.append(m)
    return _normalize(g, out)


def co_subtract(g: SeparatedGraph, a: CompactOpen, b: CompactOpen) -> CompactOpen:
    out = []
    for mu in a.cyls:
        pieces = [mu]
        for rho in b.cyls:
            pieces = [q for piece in pieces for q in _cyl_subtract(g, piece, rho)]
        out.extend(pieces)
    return _normalize(g, out)


def co_union(g: SeparatedGraph, a: CompactOpen, b: CompactOpen) -> CompactOpen:
    extra = co_subtract(g, b, a)
    return _normalize(g, a.cyls + extra.cyls)


def co_is_empty(a: CompactOpen) -> bool:
    return not a.cyls


def co_eq(g: SeparatedGraph, a: CompactOpen, b: CompactOpen) -> bool:
    if a == b:
        return True
    return co_is_empty(co_subtract(g, a, b)) and co_is_empty(co_subtract(g, b, a))


# -- covers --------------------------------------------------------------


def _meeting_pair(g: SeparatedGraph, mus) -> tuple[int, int] | None:
    """The first pair i < j, in row order, of E-paths whose cylinders meet;
    None if they are pairwise disjoint."""
    for i, mu in enumerate(mus):
        for j in range(i + 1, len(mus)):
            if _cyl_meet(g, mu, mus[j]) is not None:
                return i, j
    return None


def disjoint_union(g: SeparatedGraph, elems) -> CompactOpen | None:
    """The union of the cylinders of nonzero idempotents when they are
    pairwise orthogonal, None when two of them meet.  LatticeError unless
    every element is a nonzero idempotent."""
    mus = [_epath(e, "element") for e in elems]
    return None if _meeting_pair(g, mus) is not None else _normalize(g, mus)


def _members_below(g: SeparatedGraph, mu: EPath, sigma) -> list[EPath]:
    """The E-paths of the cover members; LatticeError unless each is a
    nonzero idempotent below Z(mu)."""
    out = []
    for f in sigma:
        rho = _epath(f, "cover member")
        if _cyl_meet(g, rho, mu) != rho:
            raise LatticeError("cover member not below e")
        out.append(rho)
    return out


def _covers(g: SeparatedGraph, mu: EPath, rhos) -> bool:
    """Whether the cylinders of rhos cover Z(mu)."""
    return co_is_empty(co_subtract(g, CompactOpen((mu,)), _normalize(g, rhos)))


def _orthogonal_cover(g: SeparatedGraph, mu: EPath, sigma) -> list[EPath] | None:
    """The E-paths of sigma when it is an orthogonal cover of Z(mu), else
    None."""
    try:
        rhos = _members_below(g, mu, sigma)
    except LatticeError:
        return None
    return rhos if _meeting_pair(g, rhos) is None and _covers(g, mu, rhos) else None


def is_orthogonal_cover(g: SeparatedGraph, e: Element, sigma) -> bool:
    return _orthogonal_cover(g, _epath(e, "e"), sigma) is not None


def orthogonalize_cover(g: SeparatedGraph, e: Element, sigma) -> list[Element]:
    """Turn a finite cover into an orthogonal one: drop the smaller of a
    comparable overlapping pair, join a non-comparable free pair."""
    mu = _epath(e, "e")
    rhos = _members_below(g, mu, sigma)
    if not _covers(g, mu, rhos):
        raise LatticeError("input is not a cover of e")
    while (pair := _meeting_pair(g, rhos)) is not None:
        i, j = pair
        f, h = rhos[i], rhos[j]
        m = _cyl_meet(g, f, h)
        if m != f and m != h:  # only a free pair at one prefix: join it
            rhos[i] = EPath(f.gamma, f.p, tuple(map(min, f.tail, h.tail)))
        del rhos[i if m == f else j]
    return [trusted_idem(g, rho) for rho in rhos]


def cover_to_expansion(g: SeparatedGraph, e: Element, sigma) -> Script:
    """Find a script with expand(e, script) == sigma as a set."""
    mu = _epath(e, "e")
    rhos = _orthogonal_cover(g, mu, sigma)
    if rhos is None:
        raise LatticeError("not an orthogonal cover")
    entries: list[EPath] = [mu]
    targets: list[list[EPath]] = [rhos]
    script: Script = []
    while True:
        pos = next((i for i, x in enumerate(entries) if targets[i] != [x]), None)
        if pos is None:
            return script
        x, goal = entries[pos], targets[pos]
        choice = None
        if x.p in g.free_k:
            same = [s for s in goal if s.gamma == x.gamma]
            if len(same) != 1:
                raise LatticeError("expected a unique member over the free prefix")
            choice = _direction(g, x, same[0])
        children = epath_children(g, x, choice)
        parts: list[list[EPath]] = [[] for _ in children]
        for s in goal:
            owner = next((ci for ci, c in enumerate(children) if _cyl_meet(g, s, c) == s), None)
            if owner is None:
                raise LatticeError("cover member crosses expansion children")
            parts[owner].append(s)
        script.append((pos, choice))
        entries[pos : pos + 1] = children
        targets[pos : pos + 1] = parts


# -- bounded enumeration -------------------------------------------------


def enumerate_cpaths(g: SeparatedGraph, start: str, bounds: Bounds):
    """All descending c-paths from a vertex (GraphError if g lacks it),
    within the bounds."""

    def rec(at: str, depth: int):
        yield ()
        if depth >= bounds.max_depth:
            return
        p = g.vertex_prime[at]
        if p in g.free_k:
            for i, targets in enumerate(g.prime_by_name[p].targets, start=1):
                for m in range(bounds.max_exp + 1):
                    for t, u in enumerate(targets, start=1):
                        step = FreeStep(p, i, m, t)
                        for rest in rec(u, depth + 1):
                            yield (step,) + rest
        else:
            for path in _internal_paths(g, at, bounds.max_len):
                for conn in g.out_connectors_of[g.path_end(at, path)]:
                    step = RegularStep(p, path, conn.name)
                    for rest in rec(conn.rng, depth + 1):
                        yield (step,) + rest

    g.prime_of_vertex(start)  # raises GraphError on an unknown name
    for steps in rec(start, 0):
        yield CPath(start, steps)


def internal_paths(g: SeparatedGraph, start: str, max_len: int):
    """All internal paths of at most max_len edges from a vertex of a
    regular component (GraphError if g lacks it), the empty path first."""
    g.prime_of_vertex(start)  # raises GraphError on an unknown name
    return _internal_paths(g, start, max_len)


def _internal_paths(g: SeparatedGraph, at: str, n: int):
    """internal_paths from a vertex the library built itself."""
    yield ()
    for edge in g.out_edges_of[at] if n else ():
        for rest in _internal_paths(g, edge.rng, n - 1):
            yield (edge.name,) + rest


def enumerate_epaths(g: SeparatedGraph, start: str, bounds: Bounds):
    """All E-paths (nonzero idempotents) from a vertex, within the bounds."""
    for gamma in enumerate_cpaths(g, start, bounds):
        v = cpath_range(g, gamma)
        p = g.vertex_prime[v]
        kp = g.free_k.get(p)
        if kp is not None:
            for tail in product(range(bounds.max_exp + 1), repeat=kp):
                yield EPath(gamma, p, tail)
        else:
            for tail in _internal_paths(g, v, bounds.max_len):
                yield EPath(gamma, p, tail)


def enumerate_idempotents(g: SeparatedGraph, bounds: Bounds):
    for v in sorted(g.vertex_prime):
        for mu in enumerate_epaths(g, v, bounds):
            yield trusted_idem(g, mu)
