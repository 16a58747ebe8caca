"""Adaptable separated graphs: parsing, validation, and the component poset.

A separated graph here is given by its transitive components ("primes"),
each either free (a single vertex carrying k loops and, per loop index,
a list of connectors into strictly lower components) or regular (a
strongly connected graph with trivial separation, out-degree at least 2,
plus connectors downward).  The order on primes is derived from
reachability and validated against the declared structure.

A SeparatedGraph checks its names and references when it is built, so
`parse_graph` reads only syntax and `validate_adaptable` only the axioms.
The library reads a SeparatedGraph's compiled tables for every name it
built itself; the checked accessors, which raise GraphError on an unknown
name, serve the names that come from outside.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class GraphError(Exception):
    """Raised on malformed graph files or references to unknown items."""


@dataclass(frozen=True, slots=True)
class FreePrime:
    name: str
    k: int
    # targets[i-1] is the tuple of connector target vertices for class i,
    # so g(p, i) = len(targets[i-1]).
    targets: tuple[tuple[str, ...], ...]


@dataclass(frozen=True, slots=True)
class InternalEdge:
    name: str
    src: str
    rng: str


@dataclass(frozen=True, slots=True)
class RegularConnector:
    name: str
    src: str
    rng: str


@dataclass(frozen=True, slots=True)
class RegularPrime:
    name: str
    vertices: tuple[str, ...]
    edges: tuple[InternalEdge, ...]
    connectors: tuple[RegularConnector, ...]


@dataclass(frozen=True, slots=True)
class Violation:
    condition: str
    item: str

    def __str__(self):
        return f"{self.condition}: {self.item}"


@dataclass(slots=True)
class SeparatedGraph:
    name: str
    primes: list[FreePrime | RegularPrime]

    # Derived lookups, filled in __post_init__.
    prime_by_name: dict = field(default_factory=dict, init=False, repr=False)
    vertex_prime: dict = field(default_factory=dict, init=False, repr=False)
    edge_by_name: dict = field(default_factory=dict, init=False, repr=False)
    # Compiled tables, the one way the library reads the graph for a name it
    # built or has checked (the accessors below check names from outside):
    # free prime -> k, edge or connector -> its range, vertex -> its internal
    # out-edges / out-connectors (both empty at a free vertex), and the monoid
    # presentation, which monoid.presentation builds on first use.
    free_k: dict = field(default_factory=dict, init=False, repr=False)
    edge_rng: dict = field(default_factory=dict, init=False, repr=False)
    out_edges_of: dict = field(default_factory=dict, init=False, repr=False)
    out_connectors_of: dict = field(default_factory=dict, init=False, repr=False)
    monoid_presentation: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        # Each name and reference is checked once as the tables are filled:
        # prime names, vertices, then edges, connectors and free targets.
        vp = self.vertex_prime
        for p in self.primes:
            if p.name in self.prime_by_name:
                raise GraphError(f"duplicate prime name {p.name!r}")
            self.prime_by_name[p.name] = p
        for p in self.primes:
            for v in (p.name,) if isinstance(p, FreePrime) else p.vertices:
                if v in vp or v in self.prime_by_name and v != p.name:
                    raise GraphError(f"duplicate vertex name {v!r}")
                vp[v] = p.name
                self.out_edges_of[v], self.out_connectors_of[v] = [], []
        for p in self.primes:
            if isinstance(p, FreePrime):
                if len(p.targets) != p.k:
                    raise GraphError(f"free prime {p.name!r} needs {p.k} target classes")
                self.free_k[p.name] = p.k
                for targets in p.targets:
                    for v in targets:
                        if v not in vp:
                            raise GraphError(f"dangling connector target {v!r} at {p.name!r}")
                continue
            for e in (*p.edges, *p.connectors):
                if e.name in self.edge_by_name or e.name in vp:
                    raise GraphError(f"duplicate name {e.name!r}")
                internal = isinstance(e, InternalEdge)
                if internal and not vp.get(e.src) == vp.get(e.rng) == p.name:
                    raise GraphError(f"edge {e.name!r} endpoint outside {p.name!r}")
                if vp.get(e.src) != p.name:
                    raise GraphError(f"connector {e.name!r} source outside {p.name!r}")
                if e.rng not in vp:
                    raise GraphError(f"dangling connector target {e.rng!r}")
                self.edge_by_name[e.name] = e
                self.edge_rng[e.name] = e.rng
                (self.out_edges_of if internal else self.out_connectors_of)[e.src].append(e)
        self.out_edges_of = {v: tuple(es) for v, es in self.out_edges_of.items()}
        self.out_connectors_of = {v: tuple(cs) for v, cs in self.out_connectors_of.items()}

    # -- basic accessors -------------------------------------------------

    def prime_of_vertex(self, v: str) -> str:
        try:
            return self.vertex_prime[v]
        except KeyError:
            raise GraphError(f"unknown vertex {v!r}") from None

    def prime(self, name: str) -> FreePrime | RegularPrime:
        try:
            return self.prime_by_name[name]
        except KeyError:
            raise GraphError(f"unknown prime {name!r}") from None

    def is_free(self, prime_name: str) -> bool:
        if prime_name in self.free_k:
            return True
        self.prime(prime_name)  # raises GraphError on an unknown name
        return False

    def k(self, prime_name: str) -> int:
        if not self.is_free(prime_name):
            raise GraphError(f"{prime_name!r} is not a free prime")
        return self.free_k[prime_name]

    def beta_target(self, prime_name: str, i: int, t: int) -> str:
        p = self.prime(prime_name)
        if not isinstance(p, FreePrime) or not 1 <= i <= p.k:
            raise GraphError(f"no loop class {i} at {prime_name!r}")
        if not 1 <= t <= len(p.targets[i - 1]):
            raise GraphError(f"no connector ({prime_name},{i},{t})")
        return p.targets[i - 1][t - 1]

    def edge(self, name: str) -> InternalEdge | RegularConnector:
        try:
            return self.edge_by_name[name]
        except KeyError:
            raise GraphError(f"unknown edge {name!r}") from None

    def path_end(self, v: str, path) -> str:
        """The vertex a valid internal path from v ends at (v if empty)."""
        return self.edge_rng[path[-1]] if path else v

    def internal_walk(self, v: str, path) -> tuple[str, int]:
        """Follow the internal edges named in path from v: the vertex reached
        and the number of edges followed.  The walk stops at the first name
        that is not an internal edge leaving the vertex reached, so path is
        valid from v iff the count is len(path); an unknown name raises
        GraphError."""
        for n, name in enumerate(path):
            e = self.edge(name)
            if not isinstance(e, InternalEdge) or e.src != v:
                return v, n
            v = e.rng
        return v, len(path)

    # -- reachability ----------------------------------------------------

    def _component_successors(self, prime_name: str) -> set[str]:
        """Primes directly reachable from a known prime by a connector."""
        p = self.prime_by_name[prime_name]
        if isinstance(p, FreePrime):
            return {self.vertex_prime[v] for targets in p.targets for v in targets}
        return {self.vertex_prime[c.rng] for c in p.connectors}

    def downset(self, prime_name: str) -> set[str]:
        """All primes q with q <= prime_name, including prime_name."""
        self.prime(prime_name)  # raises GraphError on an unknown name
        return _reach(prime_name, self._component_successors)


def _reach(start, successors) -> set:
    """Everything reachable from start by successors, start included."""
    seen, stack = {start}, [start]
    while stack:
        for y in successors(stack.pop()):
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return seen


# -- parsing -------------------------------------------------------------

# A line that breaks its directive's shape reads "line N: expected: <shape>".
_SHAPES = {
    "graph": "graph NAME",
    "free": "free NAME k=<int>",
    "regular": "regular NAME",
    "X": "X I -> V1 [V2 ...]",
    "edge": "edge NAME: V -> W",
    "connector": "connector NAME: V -> W",
}


def parse_graph(text: str) -> SeparatedGraph:
    """Read the line-oriented graph file format in one pass, checking only
    its syntax: the SeparatedGraph constructor checks names and references."""
    name = None
    # Per prime, in order: its line, its name, k (None at a regular prime)
    # and its body: X-line targets by class, or lists by directive.
    decls: list[tuple] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        head, *args = parts
        try:  # a ValueError below is a line of the wrong shape
            if head == "graph":
                (name,) = args
            elif head == "free":
                pname, kspec = args
                k = int(kspec[2:]) if kspec.startswith("k=") else -1
                if k < 0:
                    raise ValueError
                decls.append((lineno, pname, k, {}))
            elif head == "regular":
                (pname,) = args
                decls.append((lineno, pname, None, {"vertex": [], "edge": [], "connector": []}))
            elif head in ("X", "vertex", "edge", "connector"):
                if not decls or (decls[-1][2] is None) == (head == "X"):
                    kind = "free" if head == "X" else "regular"
                    raise GraphError(f"{head} line outside a {kind} prime")
                _, pname, k, body = decls[-1]
                if head == "X":
                    i, arrow, *targets = args
                    i = int(i)
                    if arrow != "->" or not targets:
                        raise ValueError
                    if not 1 <= i <= k:
                        raise GraphError(f"class index {i} out of range 1..{k}")
                    if i in body:
                        raise GraphError(f"repeated class {i} at {pname!r}")
                    body[i] = tuple(targets)
                elif head == "vertex":
                    body[head].extend(args)
                else:
                    ename, v, arrow, w = args
                    if not ename.endswith(":") or arrow != "->":
                        raise ValueError
                    make = InternalEdge if head == "edge" else RegularConnector
                    body[head].append(make(ename[:-1], v, w))
            else:
                raise GraphError(f"unknown directive {head!r}")
        except ValueError:
            raise GraphError(f"line {lineno}: expected: {_SHAPES[head]}") from None
        except GraphError as exc:
            raise GraphError(f"line {lineno}: {exc}") from None
    if name is None:
        raise GraphError("missing 'graph NAME' line")
    primes: list[FreePrime | RegularPrime] = []
    for line, pname, k, body in decls:
        if k is None:
            primes.append(RegularPrime(pname, *map(tuple, body.values())))
        elif len(body) < k:  # the classes are distinct and in 1..k
            missing = next(i for i in range(1, k + 1) if i not in body)
            raise GraphError(f"line {line}: free prime {pname!r} has no X line for class {missing}")
        else:
            primes.append(FreePrime(pname, k, tuple(body[i] for i in range(1, k + 1))))
    return SeparatedGraph(name, primes)


# -- validation ----------------------------------------------------------


def validate_adaptable(g: SeparatedGraph) -> list[Violation]:
    """Check the adaptability axioms.  Empty list means the graph is adaptable."""
    out: list[Violation] = []
    lower = "connector target strictly lower"
    for p in g.primes:
        if isinstance(p, FreePrime):
            for i, targets in enumerate(p.targets, start=1):
                if not targets:
                    out.append(Violation("g(p,i) >= 1", f"{p.name} class {i}"))
                for v in targets:
                    if g.vertex_prime[v] == p.name:
                        out.append(Violation(lower, f"{p.name} -> {v}"))
            if p.k > 0 and not any(p.targets):
                out.append(Violation("free prime with k>=1 must reach lower", p.name))
        else:
            if not p.vertices:
                out.append(Violation("regular prime has a vertex", p.name))
                continue
            for w in p.vertices:
                if len(g.out_edges_of[w]) < 2:
                    out.append(Violation("|s_Ep^-1(w)| >= 2", f"{p.name}:{w}"))
            if not _strongly_connected(g, p):
                out.append(Violation("regular component transitive", p.name))
            for c in p.connectors:
                if g.vertex_prime[c.rng] == p.name:
                    out.append(Violation(lower, f"{p.name} -> {c.rng}"))

    # Reachability must order the primes.  Internal edges stay inside a
    # prime and each regular prime is strongly connected, so a cycle through
    # two primes is a connector cycle between them: antisymmetry is all there
    # is to check, pair by pair in declaration order.
    down = {p.name: _reach(p.name, g._component_successors) for p in g.primes}
    for p in g.primes:
        for q in g.primes:
            if q is not p and q.name in down[p.name] and p.name in down[q.name]:
                out.append(Violation("(I, <=) antisymmetric", f"{p.name} ~ {q.name}"))
    # Minimality clause: a free prime has k=0 iff it is minimal in (I, <=).
    for p in g.primes:
        if isinstance(p, FreePrime) and (p.k == 0) != (down[p.name] == {p.name}):
            out.append(Violation("k(p)=0 iff p minimal", p.name))
    return out


def _strongly_connected(g: SeparatedGraph, p: RegularPrime) -> bool:
    back = {v: [] for v in p.vertices}
    for e in p.edges:
        back[e.rng].append(e.src)
    v0 = p.vertices[0]
    ahead = _reach(v0, lambda v: (e.rng for e in g.out_edges_of[v]))
    return len(ahead) == len(p.vertices) == len(_reach(v0, back.__getitem__))
