"""Semifinite and infinite paths and the filter correspondence.

A semifinite path is a descending c-path prefix plus a tail in the terminal
component.  A finite tail is the tail of an E-path (lattice.EPath), a plain
tuple: at a free prime, one loop count per loop, each an int >= 0 or INF;
at a regular prime, the names of the internal edges of a finite path.  An
infinite regular tail is a PerTail, an eventually-periodic path, so that
membership stays decidable.  Filters of idempotents correspond to
semifinite paths via initial segments; ultrafilters (equivalently tight
filters) correspond to the infinite ones.  A tail is checked once, where
it enters (validate_tail); the paths the library builds are not checked
again.

Precondition: the graph is adaptable (graph.validate_adaptable), as the
correspondences above assume; nothing here checks it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .graph import SeparatedGraph
from .lattice import Bounds, EPath, LatticeError, enumerate_cpaths, epath_of, idem_of
from .lattice import _cyl_meet, internal_paths, simple_expand, step_in_tail
from .semigroup import (
    CPath,
    Element,
    cpath_is_prefix,
    cpath_range,
    is_idempotent,
    validate_cpath,
)

INF = float("inf")


class FilterError(Exception):
    """Raised on malformed paths or filter bases."""


@dataclass(frozen=True, slots=True)
class PerTail:
    """prefix . cycle . cycle . ... with s(cycle) = r(cycle) = r(prefix),
    stored in canonical_periodic form, so that two spellings of one
    infinite path give equal tails."""

    prefix: tuple[str, ...]
    cycle: tuple[str, ...]

    def __post_init__(self):
        if not self.cycle:
            raise FilterError("periodic tail needs a nonempty cycle")
        prefix, cycle = canonical_periodic(self.prefix, self.cycle)
        object.__setattr__(self, "prefix", prefix)
        object.__setattr__(self, "cycle", cycle)

    def unrolled(self, n: int) -> tuple[str, ...]:
        """The prefix followed by just enough copies of the cycle to have at
        least n edges."""
        reps = max(0, -(-(n - len(self.prefix)) // len(self.cycle)))
        return self.prefix + self.cycle * reps


@dataclass(frozen=True, slots=True)
class SemifinitePath:
    """gamma descends into the component of prime p; tail is a tuple of
    loop counts, each an int >= 0 or INF (free p), a tuple of internal edge
    names (regular p), or a PerTail (regular p, infinite).  A finite path
    is its own E-path: EPath(gamma, p, tail)."""

    gamma: CPath
    p: str
    tail: tuple | PerTail


def validate_path(g: SeparatedGraph, mu: SemifinitePath) -> None:
    """Check a semifinite path that comes from a caller.  Raises WordError
    or GraphError for a malformed prefix c-path (semigroup.validate_cpath),
    FilterError for a prefix ending outside mu.p or a tail that does not fit."""
    validate_cpath(g, mu.gamma)
    validate_tail(g, mu)


def validate_tail(g: SeparatedGraph, mu: SemifinitePath) -> None:
    """The checks of validate_path after the prefix c-path, for a caller
    whose prefix is already checked (a parsed word's gamma): the one check
    of a path's tail, loop counts included.  Raises FilterError."""
    v = cpath_range(g, mu.gamma)
    if g.prime_of_vertex(v) != mu.p:
        raise FilterError(f"prefix ends at {v}, not in {mu.p}")
    if g.is_free(mu.p):
        if not isinstance(mu.tail, tuple) or len(mu.tail) != g.k(mu.p):
            raise FilterError("free prime needs a loop-count tail")
        if not all(x == INF or (type(x) is int and x >= 0) for x in mu.tail):
            raise FilterError(f"bad free tail {mu.tail}")
        return
    if isinstance(mu.tail, PerTail):
        pieces = (mu.tail.prefix, mu.tail.cycle)
    elif isinstance(mu.tail, tuple) and all(isinstance(x, str) for x in mu.tail):
        pieces = (mu.tail,)
    else:
        raise FilterError("regular prime needs a path tail")
    at = v
    for i, piece in enumerate(pieces):
        end, n = g.internal_walk(at, piece)
        if n < len(piece):
            raise FilterError(f"tail edge {piece[n]} does not continue at {end}")
        if i == 1 and end != at:  # the cycle of a PerTail
            raise FilterError("cycle does not return to its start")
        at = end


# -- initial segments and filters ----------------------------------------


def is_initial_segment(g: SeparatedGraph, mu_p: EPath, mu: SemifinitePath) -> bool:
    return cpath_is_prefix(mu_p.gamma, mu.gamma) and _tail_is_initial(
        g, mu_p.gamma, mu_p.tail, mu
    )


def filter_contains(g: SeparatedGraph, mu: SemifinitePath, e: Element) -> bool:
    """True iff the filter of mu contains the nonzero idempotent e.  The
    E-path of e is read off its fields: the prefix is e.gamma and the tail
    the monomial's left tail, e.m.left."""
    if not is_idempotent(e):
        raise FilterError("filter membership is defined for nonzero idempotents")
    if not cpath_is_prefix(e.gamma, mu.gamma):
        return False
    return _tail_is_initial(g, e.gamma, e.m.left, mu)


def _tail_is_initial(g: SeparatedGraph, gamma: CPath, tail, mu: SemifinitePath) -> bool:
    """Whether the E-path (gamma, tail) is an initial segment of mu, given
    that gamma is a prefix of mu.gamma."""
    n = len(gamma.steps)
    if n < len(mu.gamma.steps):
        return step_in_tail(mu.gamma.steps[n], tail)
    if mu.p in g.free_k:
        return all(a <= b for a, b in zip(tail, mu.tail))
    t = mu.tail.unrolled(len(tail)) if isinstance(mu.tail, PerTail) else mu.tail
    return t[: len(tail)] == tail


def reconstruct_path(g: SeparatedGraph, fam):
    """The minimal semifinite path whose filter contains the given finite
    directed family of idempotents, each read as an E-path once."""
    try:
        mus = [epath_of(g, e) for e in fam]
    except LatticeError:
        raise FilterError("family must consist of nonzero idempotents") from None
    if not mus:
        raise FilterError("empty family")
    if any(_cyl_meet(g, mu, rho) is None for i, mu in enumerate(mus) for rho in mus[i + 1 :]):
        raise FilterError("family is not directed")
    mu0 = max(mus, key=lambda m: len(m.gamma.steps))
    same = [m for m in mus if m.gamma == mu0.gamma]
    if g.is_free(mu0.p):
        sup = tuple(max(m.tail[j] for m in same) for j in range(g.k(mu0.p)))
        return SemifinitePath(mu0.gamma, mu0.p, sup)
    return SemifinitePath(mu0.gamma, mu0.p, max((m.tail for m in same), key=len))


# -- ultrafilters and separation -----------------------------------------


def is_ultrafilter(g: SeparatedGraph, mu: SemifinitePath) -> bool:
    """True iff the filter of mu is an ultrafilter (equivalently tight),
    which happens exactly when mu is infinite: every loop count is INF at a
    free prime, and the tail is periodic at a regular one."""
    if mu.p in g.free_k:
        return all(x == INF for x in mu.tail)
    return isinstance(mu.tail, PerTail)


def separation_witness(g: SeparatedGraph, mu: SemifinitePath):
    """(X, Y) with X inside the filter of mu such that no infinite path's
    filter contains all of X while avoiding all of Y."""
    if is_ultrafilter(g, mu):
        raise FilterError("separation witness exists only for non-infinite paths")
    if mu.p in g.free_k:
        i0 = next(i for i, x in enumerate(mu.tail, start=1) if x != INF)
        tail0 = tuple(x if j == i0 else 0 for j, x in enumerate(mu.tail, start=1))
        x = idem_of(g, EPath(mu.gamma, mu.p, tail0))
        return [x], simple_expand(g, x, i0)
    x = idem_of(g, EPath(mu.gamma, mu.p, mu.tail))
    return [x], simple_expand(g, x)


def extend_to_infinite(g: SeparatedGraph, mu: SemifinitePath) -> SemifinitePath:
    """An infinite path whose filter strictly contains that of mu."""
    if is_ultrafilter(g, mu):
        raise FilterError("path is already infinite")
    if mu.p in g.free_k:
        return SemifinitePath(mu.gamma, mu.p, (INF,) * len(mu.tail))
    v = g.path_end(cpath_range(g, mu.gamma), mu.tail)
    return SemifinitePath(mu.gamma, mu.p, PerTail(mu.tail, _cycle_at(g, v)))


def _cycle_at(g: SeparatedGraph, v: str) -> tuple[str, ...]:
    """A shortest internal cycle through v (exists: the component is
    strongly connected with at least one vertex having out-degree >= 2)."""
    frontier = [(v, ())]
    seen = set()
    while frontier:
        nxt = []
        for at, path in frontier:
            for e in g.out_edges(at):
                if e.rng == v:
                    return path + (e.name,)
                if e.rng not in seen:
                    seen.add(e.rng)
                    nxt.append((e.rng, path + (e.name,)))
        frontier = nxt
    raise FilterError(f"no internal cycle through {v}")


def _primitive_root(cycle: tuple) -> tuple:
    """The shortest path whose repetition is the cycle."""
    for d in range(1, len(cycle)):
        if len(cycle) % d == 0 and cycle == cycle[:d] * (len(cycle) // d):
            return cycle[:d]
    return cycle


def canonical_periodic(prefix, cycle):
    """Primitive cycle, shortest prefix: the canonical form of an
    eventually-periodic tail."""
    prefix, cycle = tuple(prefix), _primitive_root(tuple(cycle))
    while prefix and prefix[-1] == cycle[-1]:
        prefix = prefix[:-1]
        cycle = cycle[-1:] + cycle[:-1]
    return prefix, cycle


# -- bounded enumerations ------------------------------------------------


def enumerate_semifinite(g: SeparatedGraph, start: str, bounds: Bounds):
    """All semifinite paths from a vertex within the bounds; a periodic tail
    appears only in canonical form, canonicalised once (by PerTail)."""
    for gamma in enumerate_cpaths(g, start, bounds):
        v = cpath_range(g, gamma)
        p = g.prime_of_vertex(v)
        if g.is_free(p):
            choices = list(range(bounds.max_exp + 1)) + [INF]
            for k in product(choices, repeat=g.k(p)):
                yield SemifinitePath(gamma, p, k)
        else:
            for path in internal_paths(g, v, bounds.max_len):
                yield SemifinitePath(gamma, p, path)
                end = g.path_end(v, path)
                for cyc in internal_paths(g, end, bounds.max_len):
                    if cyc and g.path_end(end, cyc) == end:
                        if _primitive_root(cyc) == cyc and not (path and path[-1] == cyc[-1]):
                            yield SemifinitePath(gamma, p, PerTail(path, cyc))


def enumerate_infinite(g: SeparatedGraph, start: str, bounds: Bounds):
    for mu in enumerate_semifinite(g, start, bounds):
        if is_ultrafilter(g, mu):
            yield mu
