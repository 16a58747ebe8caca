"""Adaptable separated graphs: parsing, validation, and the component poset.

A separated graph here is given by its transitive components ("primes"),
each either free (a single vertex carrying k loops and, per loop index,
a list of connectors into strictly lower components) or regular (a
strongly connected graph with trivial separation, out-degree at least 2,
plus connectors downward).  The order on primes is derived from
reachability and validated against the declared structure.

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
        for p in self.primes:
            if p.name in self.prime_by_name:
                raise GraphError(f"duplicate prime name {p.name!r}")
            self.prime_by_name[p.name] = p
        for p in self.primes:
            if isinstance(p, FreePrime):
                self._add_vertex(p.name, p.name)
                self.free_k[p.name] = p.k
                self.out_edges_of[p.name] = self.out_connectors_of[p.name] = ()
            else:
                for v in p.vertices:
                    self._add_vertex(v, p.name)
                    self.out_edges_of[v] = tuple(e for e in p.edges if e.src == v)
                    self.out_connectors_of[v] = tuple(c for c in p.connectors if c.src == v)
        for p in self.primes:
            if isinstance(p, RegularPrime):
                for e in list(p.edges) + list(p.connectors):
                    if e.name in self.edge_by_name or e.name in self.vertex_prime:
                        raise GraphError(f"duplicate name {e.name!r}")
                    self.edge_by_name[e.name] = e
                    self.edge_rng[e.name] = e.rng

    def _add_vertex(self, v, prime_name):
        if v in self.vertex_prime or v in self.prime_by_name and v != prime_name:
            raise GraphError(f"duplicate vertex name {v!r}")
        self.vertex_prime[v] = prime_name

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
        seen = {prime_name}
        stack = [prime_name]
        while stack:
            for q in self._component_successors(stack.pop()):
                if q not in seen:
                    seen.add(q)
                    stack.append(q)
        return seen


# -- parsing -------------------------------------------------------------


def parse_graph(text: str) -> SeparatedGraph:
    """Parse the line-oriented graph file format.  No validation beyond syntax."""
    name = None
    primes: list[FreePrime | RegularPrime] = []
    # Mutable builders for the prime currently being read.
    cur = None  # dict for either kind

    def flush():
        nonlocal cur
        if cur is None:
            return
        if cur["kind"] == "free":
            got = [i for i, _ in cur["targets"]]
            want = list(range(1, cur["k"] + 1))
            if sorted(got) != want:
                raise GraphError(
                    f"free prime {cur['name']!r}: expected X lines for classes "
                    f"{want}, got {sorted(got)}"
                )
            by_index = dict(cur["targets"])
            primes.append(
                FreePrime(
                    cur["name"],
                    cur["k"],
                    tuple(tuple(by_index[i]) for i in want),
                )
            )
        else:
            primes.append(
                RegularPrime(
                    cur["name"],
                    tuple(cur["vertices"]),
                    tuple(cur["edges"]),
                    tuple(cur["connectors"]),
                )
            )
        cur = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            head = parts[0]
            if head == "graph":
                (name,) = parts[1:]
            elif head == "free":
                flush()
                pname, kspec = parts[1:]
                if not kspec.startswith("k="):
                    raise GraphError("expected k=<int>")
                cur = {"kind": "free", "name": pname, "k": int(kspec[2:]), "targets": []}
            elif head == "regular":
                flush()
                (pname,) = parts[1:]
                cur = {
                    "kind": "regular",
                    "name": pname,
                    "vertices": [],
                    "edges": [],
                    "connectors": [],
                }
            elif head == "X":
                if cur is None or cur["kind"] != "free":
                    raise GraphError("X line outside a free prime")
                if parts[2] != "->" or len(parts) < 4:
                    raise GraphError("expected: X I -> V1 [V2 ...]")
                i = int(parts[1])
                if not 1 <= i <= cur["k"]:
                    raise GraphError(f"class index {i} out of range 1..{cur['k']}")
                cur["targets"].append((i, parts[3:]))
            elif head == "vertex":
                if cur is None or cur["kind"] != "regular":
                    raise GraphError("vertex line outside a regular prime")
                cur["vertices"].extend(parts[1:])
            elif head in ("edge", "connector"):
                if cur is None or cur["kind"] != "regular":
                    raise GraphError(f"{head} line outside a regular prime")
                if len(parts) != 5 or not parts[1].endswith(":") or parts[3] != "->":
                    raise GraphError(f"expected: {head} NAME: V -> W")
                ename = parts[1][:-1]
                if head == "edge":
                    cur["edges"].append(InternalEdge(ename, parts[2], parts[4]))
                else:
                    cur["connectors"].append(RegularConnector(ename, parts[2], parts[4]))
            else:
                raise GraphError(f"unknown directive {head!r}")
        except (ValueError, GraphError) as exc:
            raise GraphError(f"line {lineno}: {exc}") from None
    flush()
    if name is None:
        raise GraphError("missing 'graph NAME' line")
    g = SeparatedGraph(name, primes)
    _check_references(g)
    return g


def _check_references(g: SeparatedGraph):
    for p in g.primes:
        if isinstance(p, FreePrime):
            for targets in p.targets:
                for v in targets:
                    if v not in g.vertex_prime:
                        raise GraphError(f"dangling connector target {v!r} at {p.name!r}")
        else:
            vs = set(p.vertices)
            for e in p.edges:
                if e.src not in vs or e.rng not in vs:
                    raise GraphError(f"edge {e.name!r} endpoint outside {p.name!r}")
            for c in p.connectors:
                if c.src not in vs:
                    raise GraphError(f"connector {c.name!r} source outside {p.name!r}")
                if c.rng not in g.vertex_prime:
                    raise GraphError(f"dangling connector target {c.rng!r}")


# -- validation ----------------------------------------------------------


def validate_adaptable(g: SeparatedGraph) -> list[Violation]:
    """Check the adaptability axioms.  Empty list means the graph is adaptable."""
    out: list[Violation] = []

    for p in g.primes:
        if isinstance(p, FreePrime):
            for i, targets in enumerate(p.targets, start=1):
                if not targets:
                    out.append(Violation("g(p,i) >= 1", f"{p.name} class {i}"))
                for v in targets:
                    q = g.prime_of_vertex(v)
                    if q == p.name:
                        out.append(
                            Violation("connector target strictly lower", f"{p.name} -> {v}")
                        )
            if p.k > 0 and not any(p.targets):
                out.append(Violation("free prime with k>=1 must reach lower", p.name))
        else:
            if not p.vertices:
                out.append(Violation("regular prime has a vertex", p.name))
                continue
            for w in p.vertices:
                if len(g.out_edges_of[w]) < 2:
                    out.append(Violation("|s_Ep^-1(w)| >= 2", f"{p.name}:{w}"))
            if not _strongly_connected(p):
                out.append(Violation("regular component transitive", p.name))
            for c in p.connectors:
                if g.prime_of_vertex(c.rng) == p.name:
                    out.append(
                        Violation("connector target strictly lower", f"{p.name} -> {c.rng}")
                    )

    # Reachability must induce a partial order with the declared components
    # as classes.  Internal edges stay inside a component and each regular
    # component is strongly connected, so a cycle through two components is
    # a connector cycle between them: antisymmetry is all there is to check.
    down = {p.name: g.downset(p.name) for p in g.primes}
    for p in g.primes:
        for q in down[p.name] - {p.name}:
            if p.name in down[q]:
                out.append(Violation("(I, <=) antisymmetric", f"{p.name} ~ {q}"))

    # Minimality clause: a free prime has k=0 iff it is minimal in (I, <=).
    for p in g.primes:
        if isinstance(p, FreePrime):
            minimal = down[p.name] == {p.name}
            if (p.k == 0) != minimal:
                out.append(Violation("k(p)=0 iff p minimal", p.name))
    return out


def _strongly_connected(p: RegularPrime) -> bool:
    if len(p.vertices) == 1:
        return True
    adj = {v: [] for v in p.vertices}
    radj = {v: [] for v in p.vertices}
    for e in p.edges:
        adj[e.src].append(e.rng)
        radj[e.rng].append(e.src)

    def reach(start, nbrs):
        seen = {start}
        stack = [start]
        while stack:
            for w in nbrs[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return seen

    v0 = p.vertices[0]
    return len(reach(v0, adj)) == len(p.vertices) == len(reach(v0, radj))
