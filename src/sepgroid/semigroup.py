"""Normal forms and exact multiplication in the inverse semigroup of an
adaptable separated graph.

Elements are stored as triples gamma * m * eta-star where gamma and eta are
c-paths descending into the component of the prime of the monomial m.  A
monomial is its prime, a t-part and two E-path tails (lattice.EPath), left
times right-star: two loop-exponent vectors at a free prime (alpha^k
(alpha^l)*), two internal paths at a regular one (gamma_m nu_m*).  The
tails store no endpoints: they start where gamma and eta end.  A t-part is
a sorted sparse tuple of (index, exponent), added by tpart_add and negated
by tpart_neg.  Multiplication is implemented through the translation
operation m * eta = eta-tilde * phi, which pushes a monomial through the
steps of a c-path and leaves behind a t-part phi.  Input is checked where
it enters (parse_word, generator_element, validate_element); mul,
translate and mul_monomials take operands of valid elements, as mul
passes them, and check nothing again.

The path rules are written here once, each raising its caller's error
class: validate_cpath checks a prefix, validate_tail_end a finite tail
from where the prefix ends, and validate_epath both, the one check of an
E-path.  step_in_tail is the one step rule, which translate, the
cylinder meet and the filter test share.

A descending c-path word is its own normal form, so parse_word reads a
word's opening c-path gamma and closing eta* as steps, checks each once
with validate_cpath and builds gamma . 1 . r(gamma) and its star directly;
generator_element and mul fold only the tokens between them.  When a run
is not a c-path the whole word is folded, so the value and every error,
in its order, are the token-by-token fold's.

Values are frozen and slotted (no per-instance __dict__), so elements can be
shared and hashed.  The steps of a c-path are named tuples, so comparing two
c-paths is a tuple comparison done in C.

Precondition: the graph is adaptable (graph.validate_adaptable); nothing
here checks it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .graph import InternalEdge, RegularConnector, SeparatedGraph


class WordError(Exception):
    """Raised on malformed words or generator references."""


# -- c-paths -------------------------------------------------------------

# Steps compare as plain tuples, which ignore the class: a FreeStep has four
# fields and a RegularStep three, so the two never compare equal.


class FreeStep(NamedTuple):
    """alpha(p,i)^m beta(p,i,t): m loops then a connector, at free prime p."""

    p: str
    i: int
    m: int
    t: int


class RegularStep(NamedTuple):
    """An internal path (possibly empty) followed by a connector, at regular p."""

    p: str
    path: tuple[str, ...]
    connector: str


Step = FreeStep | RegularStep


@dataclass(frozen=True, slots=True)
class CPath:
    start: str
    steps: tuple[Step, ...] = ()


def trivial_cpath(v: str) -> CPath:
    return CPath(v, ())


def step_range(g: SeparatedGraph, s: Step) -> str:
    """The range of a valid step (see validate_cpath)."""
    if isinstance(s, FreeStep):
        return g.prime_by_name[s.p].targets[s.i - 1][s.t - 1]
    return g.edge_rng[s.connector]


def step_edge_len(s: Step) -> int:
    if isinstance(s, FreeStep):
        return s.m + 1
    return len(s.path) + 1


def cpath_range(g: SeparatedGraph, c: CPath) -> str:
    if not c.steps:
        return c.start
    return step_range(g, c.steps[-1])


def cpath_edge_len(c: CPath) -> int:
    return sum(step_edge_len(s) for s in c.steps)


def cpath_is_prefix(pre: CPath, full: CPath) -> bool:
    return pre.start == full.start and full.steps[: len(pre.steps)] == pre.steps


def validate_cpath(g: SeparatedGraph, c: CPath, error=WordError) -> None:
    """Raises error unless c is a c-path of g (GraphError for a vertex or
    an edge g lacks)."""
    if type(c.steps) is not tuple:
        raise error("c-path steps must be a tuple")
    at = c.start
    g.prime_of_vertex(at)
    for s in c.steps:
        p = g.vertex_prime[at]
        if isinstance(s, FreeStep):
            kp = g.free_k.get(p)
            if p != s.p or kp is None:
                raise error(f"free step at {s.p} does not start at {at}")
            targets = g.prime_by_name[p].targets
            if not (1 <= s.i <= kp and 0 <= s.m and 1 <= s.t <= len(targets[s.i - 1])):
                raise error(f"bad free step {s}")
        else:
            if p in g.free_k:
                raise error(f"regular step starting at free vertex {at}")
            if p != s.p:
                raise error(f"regular step at {s.p} does not start at {at}")
            pos, n = g.internal_walk(at, s.path)
            if n < len(s.path):
                raise error(f"bad internal path at {s.path[n]}")
            conn = g.edge(s.connector)
            if not isinstance(conn, RegularConnector) or conn.src != pos:
                raise error(f"bad connector {s.connector}")
        at = step_range(g, s)


def step_in_tail(step: Step, tail: tuple) -> bool:
    """The one step rule: whether the c-path step taken after a prefix lies
    in the cylinder of that prefix's tail.  A free step's loop count is at
    least the tail's count for its loop, and a regular step's internal path
    starts with the tail."""
    if isinstance(step, FreeStep):
        return tail[step.i - 1] <= step.m
    return step.path[: len(tail)] == tail


# -- monomials -----------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Monomial:
    """A t-part times left * right-star for two E-path tails at prime p:
    loop exponents (k(p) ints >= 0) at a free prime, internal paths at a
    regular one.  left starts at r(gamma) and right at r(eta) of the
    triple."""

    p: str
    tpart: tuple[tuple[int, int], ...]  # sorted (index, nonzero exponent)
    left: tuple
    right: tuple


def ttuple(d: dict[int, int]) -> tuple[tuple[int, int], ...]:
    return tuple(sorted((i, e) for i, e in d.items() if e != 0))


def tpart_add(a, b) -> tuple[tuple[int, int], ...]:
    """The sum of two t-parts (sorted sparse tuples, as ttuple builds)."""
    if not b:
        return a
    if not a:
        return b
    t = dict(a)
    for i, d in b:
        t[i] = t.get(i, 0) + d
    return ttuple(t)


def tpart_neg(a) -> tuple[tuple[int, int], ...]:
    return tuple((i, -d) for i, d in a)


def t_monomial(g: SeparatedGraph, tmap: dict[int, int], p: str) -> Monomial:
    """The pure t-monomial at prime p: its tails are k(p) zeros at a free
    prime and empty at a regular one."""
    z = (0,) * g.free_k.get(p, 0)
    return Monomial(p, ttuple(tmap), z, z)


def star_monomial(g: SeparatedGraph, m: Monomial) -> Monomial:
    return Monomial(m.p, tpart_neg(m.tpart), m.right, m.left)


def mul_monomials(g: SeparatedGraph, m1: Monomial, m2: Monomial):
    """Product of two monomials; None encodes zero.  Precondition, as mul
    passes them: monomials of valid elements at prime p, with m1's right
    tail and m2's left tail starting at one vertex (both p when it is free)."""
    tp = tpart_add(m1.tpart, m2.tpart)
    k1, l1, k2, l2 = m1.left, m1.right, m2.left, m2.right
    if m1.p in g.free_k:
        k3 = tuple(max(a, a + c - b) for a, b, c in zip(k1, l1, k2))
        l3 = tuple(max(d, d + b - c) for b, c, d in zip(l1, k2, l2))
        return Monomial(m1.p, tp, k3, l3)
    if k2[: len(l1)] == l1:
        return Monomial(m1.p, tp, k1 + k2[len(l1) :], l2)
    if l1[: len(k2)] == k2:
        return Monomial(m1.p, tp, k1, l2 + l1[len(k2) :])
    return None


# -- elements ------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Zero:
    pass


ZERO = Zero()


@dataclass(frozen=True, slots=True)
class Triple:
    gamma: CPath
    m: Monomial
    eta: CPath


Element = Zero | Triple


def is_zero(e: Element) -> bool:
    return isinstance(e, Zero)


def star(g: SeparatedGraph, e: Element) -> Element:
    if is_zero(e):
        return ZERO
    return Triple(e.eta, star_monomial(g, e.m), e.gamma)


def is_idempotent(e: Element) -> bool:
    # s*s shares one c-path object as gamma and eta, so the identity test
    # usually decides before the structural comparison.
    if isinstance(e, Zero) or e.m.tpart:
        return False
    if e.gamma is not e.eta and e.gamma != e.eta:
        return False
    return e.m.left == e.m.right


# -- translation ---------------------------------------------------------


def _shift_of_steps(g: SeparatedGraph, steps) -> int:
    """Total index shift a t-variable picks up crossing these steps."""
    free_k = g.free_k
    return sum(free_k[s.p] - 1 for s in steps if isinstance(s, FreeStep))


def translate(g: SeparatedGraph, m: Monomial, steps: tuple[Step, ...]):
    """Rewrite m . eta as eta-tilde . phi for the steps of a c-path eta;
    returns (the steps of eta_tilde, the t-part phi) or None for zero.  phi
    is based at the range of eta.  Precondition, as mul and
    groupoid.in_bisection pass them: m is a valid element's monomial and
    steps nonempty and valid from where m's right tail starts.  eta_tilde
    starts where m's left tail does."""
    first = steps[0]
    k, l = m.left, m.right
    if not step_in_tail(first, l):
        return None
    shift = _shift_of_steps(g, steps[1:])
    if isinstance(first, FreeStep):
        i, kp = first.i, g.free_k[m.p]
        new_first = FreeStep(m.p, i, k[i - 1] + first.m - l[i - 1], first.t)
        # the loops other than i take the indices 1..k-1, and m's t-part
        # moves up past them
        loops = tuple(
            ((j if j < i else j - 1) + shift, k[j - 1] - l[j - 1])
            for j in range(1, kp + 1)
            if j != i and k[j - 1] != l[j - 1]
        )
        moved = tuple((i0 + kp - 1 + shift, d) for i0, d in m.tpart)
        return (new_first,) + steps[1:], loops + moved
    new_first = RegularStep(m.p, k + first.path[len(l) :], first.connector)
    return (new_first,) + steps[1:], tuple((i + shift, d) for i, d in m.tpart)


# -- the product ---------------------------------------------------------


def mul(g: SeparatedGraph, e1: Element, e2: Element) -> Element:
    """The product of two valid elements.  Endpoints agree by construction:
    r(eta1) = r(gamma2) when the c-paths are equal; else the remainder
    starts where the right tail of the monomial translated through it
    starts, and translate's steps start where its left tail starts, at the
    end of the kept c-path.  A pure-t monomial is a unit for the tails, so
    a translation leaves the kept monomial's tails as they are and adds its
    t-part to the kept one's."""
    if is_zero(e1) or is_zero(e2):
        return ZERO
    eta1, gamma2 = e1.eta, e2.gamma
    if cpath_is_prefix(gamma2, eta1):
        n = len(gamma2.steps)
        if n == len(eta1.steps):
            mm = mul_monomials(g, e1.m, e2.m)
            return ZERO if mm is None else Triple(e1.gamma, mm, e2.eta)
        tr = translate(g, star_monomial(g, e2.m), eta1.steps[n:])
        if tr is None:
            return ZERO
        eta_tilde, phi_star = tr
        m = e1.m
        mm = Monomial(m.p, tpart_add(m.tpart, tpart_neg(phi_star)), m.left, m.right)
        return Triple(e1.gamma, mm, CPath(e2.eta.start, e2.eta.steps + eta_tilde))
    if cpath_is_prefix(eta1, gamma2):
        tr = translate(g, e1.m, gamma2.steps[len(eta1.steps) :])
        if tr is None:
            return ZERO
        gamma_tilde, phi = tr
        m = e2.m
        mm = Monomial(m.p, tpart_add(phi, m.tpart), m.left, m.right)
        return Triple(CPath(e1.gamma.start, e1.gamma.steps + gamma_tilde), mm, e2.eta)
    return ZERO


# -- word grammar --------------------------------------------------------


def _split_star(body: str) -> tuple[str, bool]:
    if body.endswith("*"):
        return body[:-1], True
    return body, False


def _read_spec(spec: str, n: int, error: str) -> tuple:
    """The name and the n ints of a `name.int[.int]` token spec; raises
    WordError(error) when it does not parse."""
    name, *nums = spec.rsplit(".", n)
    try:
        if len(nums) == n:
            return (name, *map(int, nums))
    except ValueError:
        pass
    raise WordError(error)


def generator_element(g: SeparatedGraph, token: str) -> Element:
    """The canonical Element of a single generator token."""
    if token == "0":
        return ZERO
    if ":" not in token:
        raise WordError(f"bad token {token!r}")
    kind, body = token.split(":", 1)
    if kind == "v":
        v = body
        if v not in g.vertex_prime:
            raise WordError(f"unknown vertex {v!r}")
        return Triple(trivial_cpath(v), t_monomial(g, {}, g.vertex_prime[v]), trivial_cpath(v))
    if kind == "e":
        name, starred = _split_star(body)
        e = g.edge(name)
        p = g.vertex_prime[e.src]
        if isinstance(e, InternalEdge):
            m = Monomial(p, (), (name,), ())
            el = Triple(trivial_cpath(e.src), m, trivial_cpath(e.rng))
        else:
            cp = CPath(e.src, (RegularStep(p, (), name),))
            el = Triple(cp, t_monomial(g, {}, g.vertex_prime[e.rng]), trivial_cpath(e.rng))
        return star(g, el) if starred else el
    if kind == "a":
        spec, starred = _split_star(body)
        p, j = _read_spec(spec, 1, f"bad loop token {token!r}")
        kp = g.k(p)
        if not 1 <= j <= kp:
            raise WordError(f"loop index {j} out of range at {p!r}")
        k = tuple(1 if x == j else 0 for x in range(1, kp + 1))
        m = Monomial(p, (), k, (0,) * kp)
        el = Triple(trivial_cpath(p), m, trivial_cpath(p))
        return star(g, el) if starred else el
    if kind == "b":
        spec, starred = _split_star(body)
        p, i, t = _read_spec(spec, 2, f"bad connector token {token!r}")
        u = g.beta_target(p, i, t)
        cp = CPath(p, (FreeStep(p, i, 0, t),))
        el = Triple(cp, t_monomial(g, {}, g.vertex_prime[u]), trivial_cpath(u))
        return star(g, el) if starred else el
    if kind == "t":
        exp = 1
        if body.endswith("^-1"):
            body, exp = body[:-3], -1
        v, i = _read_spec(body, 1, f"bad t token {token!r}")
        if v not in g.vertex_prime or i < 1:
            raise WordError(f"bad t token {token!r}")
        m = t_monomial(g, {i: exp}, g.vertex_prime[v])
        return Triple(trivial_cpath(v), m, trivial_cpath(v))
    raise WordError(f"bad token {token!r}")


def _read_cpath(g: SeparatedGraph, tokens) -> tuple[CPath | None, int]:
    """Read the whole c-path steps that open tokens, written unstarred as
    cpath_tokens writes them: (the c-path or None, the tokens it spans).
    Only syntax and names are looked up here; validate_cpath checks the
    result, and raises when the steps are not a c-path."""
    steps = []
    start, used = None, 0
    loop, m = None, 0  # the (p, i) and count of the a-tokens read so far
    path = []  # the internal edges read so far
    for n, tok in enumerate(tokens, start=1):
        if tok.endswith("*"):
            break
        kind, _, spec = tok.partition(":")
        if kind == "e" and loop is None:
            e = g.edge_by_name.get(spec)
            if e is None:
                break
            if isinstance(e, InternalEdge):
                path.append(e)
                continue
            src = path[0].src if path else e.src
            steps.append(RegularStep(g.vertex_prime[src], tuple(x.name for x in path), spec))
            path = []
        elif kind in ("a", "b") and not path:
            try:
                p, i, *t = _read_spec(spec, 1 if kind == "a" else 2, tok)
            except WordError:
                break
            if p not in g.free_k or loop not in (None, (p, i)):
                break
            if kind == "a":
                loop, m = (p, i), m + 1
                continue
            steps.append(FreeStep(p, i, m, t[0]))
            src, loop, m = p, None, 0
        else:
            break
        if not used:
            start = src
        used = n
    if not steps:
        return None, 0
    c = CPath(start, tuple(steps))
    validate_cpath(g, c)
    return c, used


def parse_word(g: SeparatedGraph, text: str) -> Element:
    """Parse a whitespace-separated generator word and normalize it.  The
    opening c-path and the closing starred one are read as steps, and only
    the tokens between them are folded (see the module docstring)."""
    tokens = text.split()
    if not tokens:
        raise WordError("empty word")
    try:
        gamma, i = _read_cpath(g, tokens)
        j = len(tokens)
        while j > i and tokens[j - 1].endswith("*"):
            j -= 1
        eta, n = _read_cpath(g, [t[:-1] for t in reversed(tokens[j:])])
        j = len(tokens) - n
    except WordError:  # a run is not a c-path
        gamma = eta = None
        i, j = 0, len(tokens)
    out = None
    if gamma is not None:
        v = cpath_range(g, gamma)
        out = Triple(gamma, t_monomial(g, {}, g.vertex_prime[v]), trivial_cpath(v))
    for tok in tokens[i:j]:
        el = generator_element(g, tok)
        out = el if out is None else mul(g, out, el)
    if eta is not None:
        v = cpath_range(g, eta)
        el = Triple(trivial_cpath(v), t_monomial(g, {}, g.vertex_prime[v]), eta)
        out = el if out is None else mul(g, out, el)
    return out


# -- serialization -------------------------------------------------------


def cpath_tokens(c: CPath) -> list[str]:
    """The forward tokens of a c-path's steps, none for a trivial one; a
    c-path's star is these reversed and starred."""
    out = []
    for s in c.steps:
        if isinstance(s, FreeStep):
            out += [f"a:{s.p}.{s.i}"] * s.m
            out.append(f"b:{s.p}.{s.i}.{s.t}")
        else:
            out += [f"e:{name}" for name in s.path]
            out.append(f"e:{s.connector}")
    return out


def _tpart_tokens(m: Monomial, base: str) -> list[str]:
    out = []
    for i, d in m.tpart:
        tok = f"t:{base}.{i}" if d > 0 else f"t:{base}.{i}^-1"
        out.extend([tok] * abs(d))
    return out


def _body_tokens(g: SeparatedGraph, m: Monomial) -> list[str]:
    if m.p in g.free_k:
        out = []
        for j, kj in enumerate(m.left, start=1):
            out.extend([f"a:{m.p}.{j}"] * kj)
        for j, lj in enumerate(m.right, start=1):
            out.extend([f"a:{m.p}.{j}*"] * lj)
        return out
    toks = [f"e:{name}" for name in m.left]
    toks.extend(f"e:{name}*" for name in reversed(m.right))
    return toks


def _field_tokens(g: SeparatedGraph, e: Triple) -> tuple[list[str], ...]:
    """The token lists of the four canonical fields of a nonzero element."""
    tp = _tpart_tokens(e.m, cpath_range(g, e.gamma))
    eta = [t + "*" for t in reversed(cpath_tokens(e.eta))]
    return cpath_tokens(e.gamma), tp, _body_tokens(g, e.m), eta


def element_fields(g: SeparatedGraph, e: Element) -> tuple[str, str, str, str]:
    """The four canonical fields (gamma, t-part, body, eta-star) as words."""
    if is_zero(e):
        raise WordError("Zero has no fields")
    return tuple(" ".join(f) for f in _field_tokens(g, e))


def element_to_word(g: SeparatedGraph, e: Element) -> str:
    """Flat word form; parse_word of the result reproduces e."""
    if is_zero(e):
        return "0"
    toks = [t for f in _field_tokens(g, e) for t in f]
    if not toks:
        return f"v:{e.gamma.start}"
    return " ".join(toks)


def validate_tail_end(g: SeparatedGraph, p: str, v: str, tail, error=WordError) -> str:
    """The one check of an E-path tail at prime p that starts at v: v lies
    in p, and the tail is a tuple of k(p) ints >= 0 at a free prime, of
    internal edges walking from v at a regular one.  Raises error, or
    GraphError for an edge g lacks; returns the vertex the tail ends at, p
    itself at a free prime."""
    if g.vertex_prime[v] != p:
        raise error(f"prefix ends at {v}, not in {p}")
    kp = g.free_k.get(p)
    if kp is not None:
        if type(tail) is not tuple or len(tail) != kp:
            raise error("free prime needs a loop-count tail")
        for x in tail:
            if type(x) is not int or x < 0:
                raise error(f"bad loop count {x!r}")
        return v
    if type(tail) is not tuple or not all(type(x) is str for x in tail):
        raise error("regular prime needs a path tail")
    end, n = g.internal_walk(v, tail)
    if n < len(tail):
        raise error(f"tail edge {tail[n]} does not continue at {end}")
    return end


def validate_epath(g: SeparatedGraph, gamma: CPath, p: str, tail, error=WordError) -> str:
    """The one check of an E-path (gamma, p, tail) from a caller: gamma is a
    c-path (validate_cpath) and tail passes validate_tail_end from its end.
    Raises error, or GraphError for a name g lacks; returns where the tail
    ends."""
    validate_cpath(g, gamma, error)
    return validate_tail_end(g, p, cpath_range(g, gamma), tail, error)


def validate_element(g: SeparatedGraph, e: Element) -> None:
    """Structural invariants of a triple; raises WordError on violation.
    (gamma, p, left) and (eta, p, right) pass validate_epath, with p the
    monomial's prime, and their tails end at one vertex; the t-part is a
    tuple of int indices and exponents."""
    if is_zero(e):
        return
    m = e.m
    if validate_epath(g, e.gamma, m.p, m.left) != validate_epath(g, e.eta, m.p, m.right):
        raise WordError("r(gamma_m) != r(nu_m)")
    if type(m.tpart) is not tuple:
        raise WordError("t-part must be a tuple")
    prev = 0  # indices increase strictly, as ttuple sorts them
    for i, d in m.tpart:
        if type(i) is not int or type(d) is not int or i <= prev or d == 0:
            raise WordError("bad t-part entry")
        prev = i
