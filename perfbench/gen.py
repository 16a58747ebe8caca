"""Seeded generators for the benchmark: graphs and the text inputs drawn
from them.

Everything here is plain Python over the benchmark's own graph description
(`GraphSpec`); nothing imports sepgroid.  The program only ever receives the
text this module produces: the graph file, generator words, compact-open
expressions and path literals.  Graphs are named by a tag string and the
same tag gives the same text.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field


@dataclass
class RegularSpec:
    vertices: list[str]
    edges: list[tuple[str, str, str]]  # (name, src, rng), internal
    connectors: list[tuple[str, str, str]] = field(default_factory=list)


@dataclass
class GraphSpec:
    """An adaptable separated graph as the benchmark builds it.

    `order` lists primes from the bottom up: every connector of a prime
    targets a vertex of a prime earlier in the list, which makes the
    component order a partial order by construction."""

    name: str
    order: list[str] = field(default_factory=list)
    free: dict[str, list[list[str]]] = field(default_factory=dict)
    regular: dict[str, RegularSpec] = field(default_factory=dict)
    vertex_prime: dict[str, str] = field(default_factory=dict)

    def add_free(self, p: str, targets: list[list[str]]):
        self.order.append(p)
        self.free[p] = targets
        self.vertex_prime[p] = p

    def add_regular(self, p: str, spec: RegularSpec):
        self.order.append(p)
        self.regular[p] = spec
        for v in spec.vertices:
            self.vertex_prime[v] = p

    def out_edges(self, v: str) -> list[tuple[str, str, str]]:
        spec = self.regular[self.vertex_prime[v]]
        return [e for e in spec.edges if e[1] == v]

    def in_edges(self, v: str) -> list[tuple[str, str, str]]:
        spec = self.regular[self.vertex_prime[v]]
        return [e for e in spec.edges if e[2] == v]

    def out_connectors(self, v: str) -> list[tuple[str, str, str]]:
        spec = self.regular[self.vertex_prime[v]]
        return [c for c in spec.connectors if c[1] == v]

    def sizes(self) -> dict[str, int]:
        """Primes, vertices, edges (loops, connectors and internal edges)
        and monoid relations (one per loop class and per regular vertex)."""
        edges = relations = 0
        for targets in self.free.values():
            edges += len(targets) + sum(len(t) for t in targets)
            relations += len(targets)
        for spec in self.regular.values():
            edges += len(spec.edges) + len(spec.connectors)
            relations += len(spec.vertices)
        return {
            "primes": len(self.order),
            "vertices": len(self.vertex_prime),
            "edges": edges,
            "relations": relations,
        }

    def text(self) -> str:
        """The graph in sepgroid's line-oriented file format."""
        lines = [f"graph {self.name}"]
        for p in self.order:
            if p in self.free:
                lines.append(f"free {p} k={len(self.free[p])}")
                for i, targets in enumerate(self.free[p], start=1):
                    lines.append(f"X {i} -> {' '.join(targets)}")
            else:
                spec = self.regular[p]
                lines.append(f"regular {p}")
                lines.append(f"vertex {' '.join(spec.vertices)}")
                for name, s, r in spec.edges:
                    lines.append(f"edge {name}: {s} -> {r}")
                for name, s, r in spec.connectors:
                    lines.append(f"connector {name}: {s} -> {r}")
        return "\n".join(lines) + "\n"


# -- graph shapes ----------------------------------------------------------


def _regular(rng: random.Random, p: str, n: int, degree: int, loops=False) -> RegularSpec:
    """A strongly connected component: a directed cycle through all n
    vertices plus degree-1 further edges out of each vertex, to random
    vertices or, with `loops`, back to the vertex itself."""
    vs = [f"{p}v{j}" for j in range(n)]
    edges = []
    for j, v in enumerate(vs):
        edges.append((f"{p}e{len(edges)}", v, vs[(j + 1) % n]))
        for _ in range(degree - 1):
            edges.append((f"{p}e{len(edges)}", v, v if loops else rng.choice(vs)))
    return RegularSpec(vs, edges)


def _connect(rng: random.Random, spec: RegularSpec, p: str, lower: list[str], n: int):
    for _ in range(n):
        src = rng.choice(spec.vertices)
        spec.connectors.append((f"{p}c{len(spec.connectors)}", src, rng.choice(lower)))


def tower_graph(tag: str) -> GraphSpec:
    """A deep tower of six free primes with k = 3 over two small regular
    components and a sink: long descending c-paths, little regular work.
    The tag picks only where the side connectors land, so every tag gives
    the same sizes and depth."""
    rng = random.Random(f"tower/{tag}")
    gs = GraphSpec(f"tower{tag}")
    gs.add_free("z", [])
    r1 = _regular(rng, "ra", 2, 2)
    gs.add_regular("ra", r1)
    r2 = _regular(rng, "rb", 3, 2)
    _connect(rng, r2, "rb", r1.vertices, 1)
    gs.add_regular("rb", r2)
    base = ["z"] + r1.vertices + r2.vertices
    prev = rng.choice(r2.vertices)
    for j in range(1, 7):
        p = f"p{j}"
        gs.add_free(p, [[prev], [prev, rng.choice(base)], [rng.choice(base)]])
        prev = p
    return gs


def regular_graph(tag: str) -> GraphSpec:
    """Three large regular components in a chain over a sink, under one
    free prime: cylinders are long internal paths with many siblings."""
    rng = random.Random(f"regular/{tag}")
    gs = GraphSpec(f"regular{tag}")
    gs.add_free("z", [])
    below = ["z"]
    for p, n, deg in (("ra", 5, 2), ("rb", 7, 2), ("rc", 6, 3)):
        spec = _regular(rng, p, n, deg)
        _connect(rng, spec, p, below, 2)
        gs.add_regular(p, spec)
        below = below + spec.vertices
    top = gs.regular["rc"].vertices
    gs.add_free("p1", [[rng.choice(top)], [rng.choice(top), "z"]])
    return gs


def mixed_graph(tag: str) -> GraphSpec:
    """A mid-size graph mixing two regular components with three free
    primes (k <= 2) over a sink.  The internal edges are a cycle plus a
    loop at each vertex; the tag picks where connectors land, so sizes are
    the same for every tag."""
    rng = random.Random(f"mixed/{tag}")
    gs = GraphSpec(f"mixed{tag}")
    gs.add_free("z", [])
    r1 = _regular(rng, "ra", 2, 2, loops=True)
    _connect(rng, r1, "ra", ["z"], 1)
    gs.add_regular("ra", r1)
    r2 = _regular(rng, "rb", 3, 2, loops=True)
    _connect(rng, r2, "rb", r1.vertices, 1)
    gs.add_regular("rb", r2)
    regs = r1.vertices + r2.vertices
    gs.add_free("p1", [[rng.choice(regs), "z"]])
    gs.add_free("p2", [["p1"], [rng.choice(regs)]])
    gs.add_free("p3", [["p2", rng.choice(regs)]])
    return gs


# -- words -----------------------------------------------------------------


class SeenFilter:
    """A Bloom filter over byte strings in a fixed 2^log2_bits bits.  The
    benchmark's own memory then does not grow with the number of operations
    a run makes, which varies with the machine's speed, and `peak_rss_mb`
    does not move with it.  `add` returns whether the key was seen before;
    it may wrongly say so (for fewer than one key in 10^5 while the keys
    number at most 2^log2_bits / 80), never the other way round."""

    def __init__(self, log2_bits: int):
        self.mask = (1 << log2_bits) - 1
        self.bits = bytearray(1 << (log2_bits - 3))

    def add(self, key: bytes) -> bool:
        digest = hashlib.blake2b(key, digest_size=16).digest()
        seen = True
        for i in range(0, 16, 4):
            x = int.from_bytes(digest[i : i + 4], "little") & self.mask
            byte, bit = x >> 3, 1 << (x & 7)
            if not self.bits[byte] & bit:
                seen = False
                self.bits[byte] |= bit
        return seen


@dataclass(frozen=True)
class Step:
    """One c-path step as generator tokens, and the vertex it lands on."""

    tokens: tuple[str, ...]
    rng: str


def _star_tokens(tokens) -> list[str]:
    return [t + "*" for t in reversed(tokens)]


def random_step(gs: GraphSpec, rng: random.Random, v: str) -> Step | None:
    """A random descending step out of v, or None at a sink."""
    p = gs.vertex_prime[v]
    if p in gs.free:
        if not gs.free[p]:
            return None
        i = rng.randint(1, len(gs.free[p]))
        t = rng.randint(1, len(gs.free[p][i - 1]))
        m = rng.choice((0, 0, 1, 2))
        toks = [f"a:{p}.{i}"] * m + [f"b:{p}.{i}.{t}"]
        return Step(tuple(toks), gs.free[p][i - 1][t - 1])
    path, at = [], v
    for _ in range(rng.randint(0, 2)):
        name, _, at = rng.choice(gs.out_edges(at))
        path.append(f"e:{name}")
    conns = gs.out_connectors(at)
    if not conns:
        return None
    name, _, r = rng.choice(conns)
    return Step(tuple(path + [f"e:{name}"]), r)


def random_cpath(gs: GraphSpec, rng: random.Random, v: str, depth: int) -> list[Step]:
    steps = []
    for _ in range(depth):
        s = random_step(gs, rng, v)
        if s is None:
            break
        steps.append(s)
        v = s.rng
    return steps


def cpath_end(v: str, steps: list[Step]) -> str:
    return steps[-1].rng if steps else v


def _monomial_tokens(gs: GraphSpec, rng: random.Random, a: str, b: str):
    """Tokens of a random monomial from vertex a to vertex b of one prime,
    or None when none was found."""
    p = gs.vertex_prime[a]
    toks = []
    for i in range(1, 3):
        if rng.random() < 0.15:
            toks.append(f"t:{a}.{i}" + ("" if rng.random() < 0.5 else "^-1"))
    if p in gs.free:
        k = len(gs.free[p])
        for j in range(1, k + 1):
            toks += [f"a:{p}.{j}"] * rng.choice((0, 0, 1))
        for j in range(1, k + 1):
            toks += [f"a:{p}.{j}*"] * rng.choice((0, 0, 1))
        return toks
    # gamma from a and nu from b meeting at a common vertex: walk forward
    # from a, then walk backward from the meeting point to b.
    fwd, at = [], a
    for _ in range(rng.randint(0, 2)):
        name, _, at = rng.choice(gs.out_edges(at))
        fwd.append(f"e:{name}")
    back = []
    for _ in range(6):
        walk, w = [], at
        for _ in range(rng.randint(0, 3)):
            name, w, _ = rng.choice(gs.in_edges(w))
            walk.append(name)
        if w == b:
            back = [f"e:{n}*" for n in walk]
            break
    else:
        return None
    return toks + fwd + back


def normal_form_tokens(gs, rng, v, gamma, eta) -> list[str] | None:
    """gamma . m . eta* for two c-paths from v and a random monomial m
    between their ends, or None when their ends lie in different primes."""
    a, b = cpath_end(v, gamma), cpath_end(v, eta)
    if gs.vertex_prime[a] != gs.vertex_prime[b]:
        return None
    mono = _monomial_tokens(gs, rng, a, b)
    if mono is None:
        return None
    toks = [t for s in gamma for t in s.tokens] + mono
    toks += [t for s in reversed(eta) for t in _star_tokens(s.tokens)]
    return toks or [f"v:{a}"]


class WordStream:
    """Distinct words, each a product of random normal forms whose c-paths
    share prefixes: a factor's gamma is a prefix or an extension of the
    previous factor's eta, so that products are often nonzero.  Consecutive
    words usually continue along the same spine, so that their products are
    often nonzero too."""

    SPINE = 6

    def __init__(self, gs: GraphSpec, rng: random.Random, factors=(2, 3)):
        self.gs, self.rng, self.factors = gs, rng, factors
        self.roots = top_vertices(gs)
        self.seen = SeenFilter(20)  # 128 KiB per stream, one stream per graph
        self.v = self.roots[0]
        self.spine: list[Step] = []

    def _restart(self):
        self.v = self.rng.choice(self.roots)
        self.spine = random_cpath(self.gs, self.rng, self.v, self.SPINE)

    def _word(self) -> str:
        gs, rng, v = self.gs, self.rng, self.v
        if not self.spine or rng.random() < 0.2:
            self._restart()
            v = self.v
        spine = self.spine
        toks: list[str] = []
        eta_len = rng.randint(len(spine) // 2, len(spine))
        for _ in range(rng.randint(*self.factors)):
            gamma_len = max(0, min(len(spine), eta_len + rng.randint(-1, 1)))
            gamma = spine[:gamma_len]
            # eta: a sibling branch off a random point of the spine
            cut = rng.randint(0, gamma_len)
            base = spine[:cut]
            eta = base + random_cpath(gs, rng, cpath_end(v, base), gamma_len - cut)
            for _ in range(4):
                nf = normal_form_tokens(gs, rng, v, gamma, eta)
                if nf is not None:
                    break
                eta = spine[:gamma_len]
            else:
                continue
            toks += nf
            spine = eta + random_cpath(gs, rng, cpath_end(v, eta), self.SPINE - len(eta))
            eta_len = len(eta)
        self.spine = spine
        return " ".join(toks) if toks else f"v:{v}"

    def next(self) -> str:
        while True:
            w = self._word()
            if not self.seen.add(w.encode()):
                return w


def top_vertices(gs: GraphSpec) -> list[str]:
    """Vertices of the primes with nothing above them."""
    targeted = set()
    for targets in gs.free.values():
        targeted.update(t for cls in targets for t in cls)
    for spec in gs.regular.values():
        targeted.update(c[2] for c in spec.connectors)
    tops = []
    for p in gs.order:
        vs = gs.regular[p].vertices if p in gs.regular else [p]
        if not any(v in targeted for v in vs) and (p in gs.regular or gs.free[p]):
            tops += vs
    return tops
