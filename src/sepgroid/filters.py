"""Semifinite and infinite paths and the filter correspondence.

A semifinite path is a lattice.EPath, a descending c-path prefix plus a
tail in the terminal component, which may go on for ever: at a free prime,
one loop count per loop, each an int >= 0 or INF; at a regular prime, the
names of the internal edges of a finite path, or a PerTail, an
eventually-periodic infinite path, so that membership stays decidable.  A
finite semifinite path is the E-path of an idempotent.  Filters of
idempotents correspond to semifinite paths via initial segments;
ultrafilters (equivalently tight filters) correspond to the infinite ones.
A path is checked once, where it enters (validate_tail, after the word
that spells its prefix), by the E-path rules of semigroup plus what an
infinite tail adds; the paths the library builds are not checked again.

Precondition: the graph is adaptable (graph.validate_adaptable), as the
correspondences above assume; nothing here checks it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .graph import SeparatedGraph
from .lattice import Bounds, EPath, LatticeError, enumerate_cpaths, epath_end, epath_of, idem_of
from .lattice import _cyl_meet, _internal_paths, simple_expand
from .semigroup import (
    CPath,
    Element,
    cpath_is_prefix,
    cpath_range,
    is_idempotent,
    step_in_tail,
    validate_tail_end,
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


def validate_tail(g: SeparatedGraph, mu: EPath) -> None:
    """Check a semifinite path from a caller whose prefix is already a
    checked c-path (a parsed word's gamma): the E-path tail rules of
    semigroup.validate_tail_end, which also check that the prefix ends in
    mu.p, and what a semifinite path adds to them.  A loop count may be
    INF, and a regular tail may be a PerTail whose prefix and cycle each
    pass validate_tail_end and whose cycle returns to its start.  Raises
    FilterError, or GraphError for an edge the graph lacks."""
    v, tail = cpath_range(g, mu.gamma), mu.tail
    if mu.p in g.free_k:
        if type(tail) is tuple:  # an INF count passes where 0 does
            tail = tuple(0 if x == INF else x for x in tail)
    elif isinstance(tail, PerTail):
        v = validate_tail_end(g, mu.p, v, tail.prefix, FilterError)
        if validate_tail_end(g, mu.p, v, tail.cycle, FilterError) != v:
            raise FilterError("cycle does not return to its start")
        return
    validate_tail_end(g, mu.p, v, tail, FilterError)


# -- initial segments and filters ----------------------------------------


def filter_contains(g: SeparatedGraph, mu: EPath, e: Element) -> bool:
    """True iff the filter of mu contains the nonzero idempotent e.  The
    E-path of e is read off its fields: the prefix is e.gamma and the tail
    the monomial's left tail, e.m.left."""
    if not is_idempotent(e):
        raise FilterError("filter membership is defined for nonzero idempotents")
    if not cpath_is_prefix(e.gamma, mu.gamma):
        return False
    return _tail_is_initial(g, e.gamma, e.m.left, mu)


def _tail_is_initial(g: SeparatedGraph, gamma: CPath, tail, mu: EPath) -> bool:
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
    directed family of idempotents: the meet of their E-paths' cylinders,
    folded with _cyl_meet.  The fold alone decides directedness, as E-paths
    that meet pairwise meet all together: their prefixes form a chain, and
    a step lies in the sup of free tails when it lies in each tail."""
    try:
        mus = [epath_of(g, e) for e in fam]
    except LatticeError:
        raise FilterError("family must consist of nonzero idempotents") from None
    if not mus:
        raise FilterError("empty family")
    out = mus[0]
    for mu in mus[1:]:
        out = _cyl_meet(g, out, mu)
        if out is None:
            raise FilterError("family is not directed")
    return out


# -- ultrafilters and separation -----------------------------------------


def is_ultrafilter(g: SeparatedGraph, mu: EPath) -> bool:
    """True iff the filter of mu is an ultrafilter (equivalently tight),
    which happens exactly when mu is infinite: every loop count is INF at a
    free prime, and the tail is periodic at a regular one."""
    if mu.p in g.free_k:
        return all(x == INF for x in mu.tail)
    return isinstance(mu.tail, PerTail)


def separation_witness(g: SeparatedGraph, mu: EPath):
    """(X, Y) with X inside the filter of mu such that no infinite path's
    filter contains all of X while avoiding all of Y."""
    if is_ultrafilter(g, mu):
        raise FilterError("separation witness exists only for non-infinite paths")
    if mu.p in g.free_k:
        i0 = next(i for i, x in enumerate(mu.tail, start=1) if x != INF)
        tail0 = tuple(x if j == i0 else 0 for j, x in enumerate(mu.tail, start=1))
        x = idem_of(g, EPath(mu.gamma, mu.p, tail0))
        return [x], simple_expand(g, x, i0)
    x = idem_of(g, mu)
    return [x], simple_expand(g, x)


def extend_to_infinite(g: SeparatedGraph, mu: EPath) -> EPath:
    """An infinite path whose filter strictly contains that of mu."""
    if is_ultrafilter(g, mu):
        raise FilterError("path is already infinite")
    if mu.p in g.free_k:
        return EPath(mu.gamma, mu.p, (INF,) * len(mu.tail))
    return EPath(mu.gamma, mu.p, PerTail(mu.tail, _cycle_at(g, epath_end(g, mu))))


def _cycle_at(g: SeparatedGraph, v: str) -> tuple[str, ...]:
    """A shortest internal cycle through v (exists: the component is
    strongly connected with at least one vertex having out-degree >= 2)."""
    frontier = [(v, ())]
    seen = set()
    while frontier:
        nxt = []
        for at, path in frontier:
            for e in g.out_edges_of[at]:
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
        p = g.vertex_prime[v]
        kp = g.free_k.get(p)
        if kp is not None:
            choices = list(range(bounds.max_exp + 1)) + [INF]
            for k in product(choices, repeat=kp):
                yield EPath(gamma, p, k)
        else:
            for path in _internal_paths(g, v, bounds.max_len):
                yield EPath(gamma, p, path)
                end = g.path_end(v, path)
                for cyc in _internal_paths(g, end, bounds.max_len):
                    if cyc and g.path_end(end, cyc) == end:
                        if _primitive_root(cyc) == cyc and not (path and path[-1] == cyc[-1]):
                            yield EPath(gamma, p, PerTail(path, cyc))


def enumerate_infinite(g: SeparatedGraph, start: str, bounds: Bounds):
    for mu in enumerate_semifinite(g, start, bounds):
        if is_ultrafilter(g, mu):
            yield mu
