"""The tight groupoid, concretely: germs between infinite paths.

A germ is a triple (x, n, y) of infinite paths ending at the same prime
with a weight n = (n1, n2): n1 collects t-variable exponents and n2 the
difference of lengths of the initial segments in a common-tail
decomposition x = gamma.lam, y = nu.lam.  germ_of reduces a pair (s, x) to
this form by absorbing the c-path part of x into s, which also decides
whether x lies in the source cylinder of s; in_bisection checks
membership in the basic open set Z(s) structurally, by stripping prefixes
and transporting the t-part, independently of germ_of's reduction.

Precondition: the graph is adaptable (graph.validate_adaptable); nothing
here checks it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest

from .graph import SeparatedGraph
from .filters import PerTail, is_ultrafilter
from .lattice import CompactOpen, EPath, co_of, disjoint_union, top_epath, trusted_idem
from .semigroup import (
    Element,
    cpath_edge_len,
    cpath_is_prefix,
    is_zero,
    mul,
    star,
    tpart_add,
    tpart_neg,
    translate,
)


class GroupoidError(Exception):
    """Raised on non-composable germs or precondition violations."""


@dataclass(frozen=True, slots=True)
class GermWeight:
    """(n1, n2): a t-part (semigroup.tpart_add) and a trimmed length-difference
    vector."""

    n1: tuple[tuple[int, int], ...] = ()
    n2: tuple[int, ...] = ()


ZERO_WEIGHT = GermWeight()


def _padded_sum(a, b, sign: int = 1) -> tuple[int, ...]:
    """a + sign * b on integer vectors padded with zeros to one length,
    trailing zeros dropped: the n2 arithmetic."""
    out = [x + sign * y for x, y in zip_longest(a, b, fillvalue=0)]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def weight_add(a: GermWeight, b: GermWeight) -> GermWeight:
    return GermWeight(tpart_add(a.n1, b.n1), _padded_sum(a.n2, b.n2))


def weight_neg(a: GermWeight) -> GermWeight:
    return GermWeight(tpart_neg(a.n1), tuple(-x for x in a.n2))


@dataclass(frozen=True, slots=True)
class Germ:
    x: EPath
    weight: GermWeight
    y: EPath


# -- periodic tails (PerTail keeps them canonical) ------------------------


def _strip_tail(tail: PerTail, lam) -> PerTail | None:
    """The remainder of the tail after an initial finite path, or None."""
    lam = tuple(lam)
    u = tail.unrolled(len(lam))
    if u[: len(lam)] != lam:
        return None
    return PerTail(u[len(lam) :], tail.cycle)


def _prepend_tail(lam, tail: PerTail) -> PerTail:
    return PerTail(tuple(lam) + tail.prefix, tail.cycle)


# -- weights from E-paths ------------------------------------------------


def norm_length(g: SeparatedGraph, mu: EPath) -> tuple[int, ...]:
    """|mu|_infinity: one length per loop at a free terminal prime, trailing
    zeros kept (only `_padded_sum` trims), the total length at a regular one."""
    base = cpath_edge_len(mu.gamma)
    if mu.p in g.free_k:
        return tuple(base + t for t in mu.tail)
    return (base + len(mu.tail),)


def _n2_of(g: SeparatedGraph, gpart: EPath, npart: EPath) -> tuple[int, ...]:
    return _padded_sum(norm_length(g, gpart), norm_length(g, npart), -1)


# -- groupoid structure --------------------------------------------------


def unit(g: SeparatedGraph, x: EPath) -> Germ:
    return Germ(x, ZERO_WEIGHT, x)


def inverse(germ: Germ) -> Germ:
    return Germ(germ.y, weight_neg(germ.weight), germ.x)


def compose(g: SeparatedGraph, g1: Germ, g2: Germ) -> Germ:
    if g1.y != g2.x:
        raise GroupoidError("germs are not composable")
    return Germ(g1.x, weight_add(g1.weight, g2.weight), g2.y)


# -- germ_of -------------------------------------------------------------


def germ_of(g: SeparatedGraph, s: Element, x: EPath) -> Germ:
    """The germ of s at the infinite path x in its source cylinder Z(s*s).

    Membership is decided by the absorption, without forming s*s.  Write
    s = gamma m eta* and let sp be s times the idempotent of the whole
    cylinder below x.gamma.  Then x lies in Z(s*s) exactly when sp.eta ==
    x.gamma and, at a regular prime, _strip_tail(x.tail, nu of sp) succeeds:
    - x.gamma = eta: at a free prime x's loop counts are INF, so they pass;
      at a regular prime, m's nu is the strip.
    - eta < x.gamma: translate returns zero exactly when the next step fails
      step_in_tail; otherwise sp.eta = x.gamma and sp's nu is empty.
    - any other order: sp.eta != x.gamma, or the product is zero."""
    if is_zero(s):
        raise GroupoidError("Zero acts nowhere")
    if not is_ultrafilter(g, x):
        raise GroupoidError("germs live over infinite paths")
    absorber = trusted_idem(g, top_epath(g, x.gamma, x.p))
    sp = mul(g, s, absorber)
    if is_zero(sp) or sp.eta != x.gamma:
        raise GroupoidError("x is not in the source cylinder of s")
    m = sp.m
    left, right = m.left, m.right
    if m.p in g.free_k:
        rx = EPath(sp.gamma, m.p, x.tail)
    else:
        x0 = _strip_tail(x.tail, right)
        if x0 is None:
            raise GroupoidError("x is not in the source cylinder of s")
        rx = EPath(sp.gamma, m.p, _prepend_tail(left, x0))
    n2 = _n2_of(g, EPath(sp.gamma, m.p, left), EPath(x.gamma, m.p, right))
    return Germ(rx, GermWeight(m.tpart, n2), x)


# -- membership in basic opens -------------------------------------------


def in_bisection(g: SeparatedGraph, germ: Germ, s: Element) -> bool:
    """Whether the germ lies in Z(s), checked against the structural
    description of Z(s) (prefix stripping plus t-part transport)."""
    if is_zero(s):
        return False
    x, y = germ.x, germ.y
    if not cpath_is_prefix(s.gamma, x.gamma) or not cpath_is_prefix(s.eta, y.gamma):
        return False
    xs = x.gamma.steps[len(s.gamma.steps) :]
    ys = y.gamma.steps[len(s.eta.steps) :]
    m = s.m
    if not xs and not ys:
        if x.p != m.p or y.p != m.p:
            return False
        left, right = m.left, m.right
        if m.p not in g.free_k:
            x0 = _strip_tail(y.tail, right)
            if x0 is None or x != EPath(x.gamma, m.p, _prepend_tail(left, x0)):
                return False
        n2 = _n2_of(g, EPath(x.gamma, m.p, left), EPath(y.gamma, m.p, right))
        return germ.weight == GermWeight(m.tpart, n2)
    if not ys:
        return False
    tr = translate(g, m, ys)
    if tr is None:
        return False
    eta_tilde, phi = tr
    if xs != eta_tilde:
        return False
    if x.p != y.p or x.tail != y.tail:
        return False
    gpart = top_epath(g, x.gamma, x.p)
    npart = top_epath(g, y.gamma, y.p)
    return germ.weight == GermWeight(phi, _n2_of(g, gpart, npart))


# -- bisections ----------------------------------------------------------


def bisection_endpoints(
    g: SeparatedGraph, s: Element
) -> tuple[CompactOpen, CompactOpen]:
    if is_zero(s):
        raise GroupoidError("Zero has no bisection")
    return (co_of(g, mul(g, star(g, s), s)), co_of(g, mul(g, s, star(g, s))))


def is_bisection_family(g: SeparatedGraph, fam) -> bool:
    """Whether the nonzero members have disjoint sources and disjoint ranges."""
    fam = [s for s in fam if not is_zero(s)]
    srcs = [mul(g, star(g, s), s) for s in fam]
    rngs = [mul(g, s, star(g, s)) for s in fam]
    return disjoint_union(g, srcs) is not None and disjoint_union(g, rngs) is not None
