import random

import pytest

from sepgroid import lattice as lt
from sepgroid.graph import (
    FreePrime,
    GraphError,
    InternalEdge,
    RegularConnector,
    RegularPrime,
    SeparatedGraph,
    parse_graph,
    validate_adaptable,
)


def test_fixture_shapes(graphs):
    g0, g1, g2, g3 = (graphs[n] for n in ("g0", "g1", "g2", "g3"))
    assert [p.name for p in g0.primes] == ["p"]
    assert g0.k("p") == 0
    assert {p.name for p in g1.primes} == {"p", "q1", "q2"}
    assert g1.k("p") == 2
    assert g1.beta_target("p", 1, 1) == "q1"
    assert g1.beta_target("p", 2, 1) == "q2"
    r2 = next(p for p in g2.primes if isinstance(p, RegularPrime))
    assert r2.vertices == ("w",)
    assert {e.name for e in r2.edges} == {"f1", "f2"}
    assert g3.is_free("p") and not g3.is_free("r")
    assert g3.beta_target("p", 1, 1) == "w"


def test_validate_fixtures(graphs):
    for g in graphs.values():
        assert validate_adaptable(g) == []


@pytest.mark.parametrize("shape", ["tower_graph", "regular_graph", "mixed_graph"])
def test_validate_generated_families(gen_module, shape):
    for seed in (1, 2, 3):
        for k in range(16):
            text = getattr(gen_module, shape)(f"{seed}-{k}").text()
            assert validate_adaptable(parse_graph(text)) == [], (shape, seed, k)


def _random_graph_text(rng: random.Random) -> str:
    """A small graph over primes p0, p1, ... meant to lie below one another
    in that order, with faults mixed in: connectors into the same or a
    higher component (connector cycles), empty regular primes, vertices of
    out-degree 1, regular components that are not strongly connected, and
    free primes whose k does not match their minimality."""
    names = [f"p{i}" for i in range(rng.randint(1, 4))]
    verts = {}
    for p in names:
        free = rng.random() < 0.5
        verts[p] = [p] if free else [f"{p}v{j}" for j in range(rng.choice((0, 1, 1, 2, 3)))]

    def target(i):
        r = rng.random()
        if r < 0.8:
            pool = [v for q in names[:i] for v in verts[q]]
        elif r < 0.9:
            pool = verts[names[i]]
        else:
            pool = []
        return rng.choice(pool or [v for q in names for v in verts[q]])

    lines = ["graph t"]
    for i, p in enumerate(names):
        if verts[p] == [p]:
            k = rng.choice((0, 1, 2)) if i or rng.random() < 0.1 else 0
            lines.append(f"free {p} k={k}")
            for c in range(1, k + 1):
                lines.append(f"X {c} -> " + " ".join(target(i) for _ in range(rng.randint(1, 2))))
            continue
        vs = verts[p]
        lines += [f"regular {p}", "vertex " + " ".join(vs)] if vs else [f"regular {p}"]
        n = 0
        for j, v in enumerate(vs):
            heads = [vs[(j + 1) % len(vs)]] if rng.random() < 0.9 else []
            heads += [rng.choice(vs) for _ in range(rng.choice((0, 1, 1, 2)))]
            for h in heads:
                n += 1
                lines.append(f"edge {p}e{n}: {v} -> {h}")
        for c in range(rng.choice((0, 1, 1, 2)) if vs else 0):
            lines.append(f"connector {p}c{c}: {rng.choice(vs)} -> {target(i)}")
    return "\n".join(lines) + "\n"


def _vertex_graph_sccs(g):
    """Strongly connected components of the whole vertex graph, by a plain
    reachability closure from every vertex."""
    succ = {v: set() for v in g.vertex_prime}
    for p in g.primes:
        if isinstance(p, FreePrime):
            succ[p.name].update(v for targets in p.targets for v in targets)
        else:
            for e in p.edges + p.connectors:
                succ[e.src].add(e.rng)
    reach = {}
    for v in succ:
        seen, stack = {v}, [v]
        while stack:
            for u in succ[stack.pop()] - seen:
                seen.add(u)
                stack.append(u)
        reach[v] = seen
    return {frozenset(u for u in reach[v] if v in reach[u]) for v in succ}


def _component_closure(g):
    """Each prime's downset, by a plain reachability closure over the
    component graph: an edge p -> q for each connector or free target from
    p into q."""
    succ = {p.name: set() for p in g.primes}
    for p in g.primes:
        if isinstance(p, FreePrime):
            succ[p.name].update(g.vertex_prime[v] for targets in p.targets for v in targets)
        else:
            succ[p.name].update(g.vertex_prime[c.rng] for c in p.connectors)
    down = {}
    for p in succ:
        seen, stack = {p}, [p]
        while stack:
            for q in succ[stack.pop()] - seen:
                seen.add(q)
                stack.append(q)
        down[p] = seen
    return down


def test_adaptable_graphs_have_their_components_as_sccs():
    rng = random.Random(6)
    adaptable = flagged_mismatch = cyclic = minimality = 0
    for _ in range(3000):
        g = parse_graph(_random_graph_text(rng))
        declared = {
            frozenset([p.name] if isinstance(p, FreePrime) else p.vertices) for p in g.primes
        }
        same = _vertex_graph_sccs(g) == declared
        found = validate_adaptable(g)
        if found == []:
            adaptable += 1
            assert same, [str(p) for p in g.primes]
        elif not same:
            flagged_mismatch += 1
        # The order and minimality clauses agree with an independent closure.
        down = _component_closure(g)
        pairs = [v.item for v in found if v.condition == "(I, <=) antisymmetric"]
        assert sorted(pairs) == sorted(
            f"{p} ~ {q}" for p in down for q in down[p] if q != p and p in down[q]
        )
        items = [v.item for v in found if v.condition == "k(p)=0 iff p minimal"]
        assert items == [
            p.name for p in g.primes
            if isinstance(p, FreePrime) and (p.k == 0) != (down[p.name] == {p.name})
        ]
        cyclic += bool(pairs)
        minimality += bool(items)
    # Both sides of the implication are exercised, and so are both clauses.
    assert adaptable >= 300 and flagged_mismatch >= 300, (adaptable, flagged_mismatch)
    assert cyclic >= 300 and minimality >= 100, (cyclic, minimality)


def test_component_order(g3):
    # r lies below p: E_r is reachable from E_p, and not the other way
    assert g3.downset("p") == {"p", "r"}
    assert g3.downset("r") == {"r"}


def test_parse_rejects_bad_graph():
    with pytest.raises(GraphError, match="^line 2: expected: free NAME k=<int>$"):
        parse_graph("graph x\nfree p 1\n")


REG = "regular r\nvertex u v\nedge e1: u -> v\nedge e2: v -> u\n"


@pytest.mark.parametrize("case", [
    # shape errors
    ("graph x\nfree p k=1\nX 1\n", "line 3: expected: X I -> V1 [V2 ...]"),
    ("graph x\nfree p k=1\nX\n", "line 3: expected: X I -> V1 [V2 ...]"),
    ("graph x\nfree p k=1\nX 1 -> \n", "line 3: expected: X I -> V1 [V2 ...]"),
    ("graph x\nfree p k=1\nX 1 => w\n", "line 3: expected: X I -> V1 [V2 ...]"),
    ("graph x\nfree p k=1\nX a -> w\n", "line 3: expected: X I -> V1 [V2 ...]"),
    ("graph x\nfree p\n", "line 2: expected: free NAME k=<int>"),
    ("graph x\nfree p k=-1\n", "line 2: expected: free NAME k=<int>"),
    ("graph x\nfree p k=one\n", "line 2: expected: free NAME k=<int>"),
    ("graph x\nfree p k=1 q\n", "line 2: expected: free NAME k=<int>"),
    ("graph\n", "line 1: expected: graph NAME"),
    ("graph x y\n", "line 1: expected: graph NAME"),
    ("graph x\nregular\n", "line 2: expected: regular NAME"),
    ("graph x\n" + REG + "edge e3 u -> v\n", "line 6: expected: edge NAME: V -> W"),
    ("graph x\n" + REG + "connector c: u v\n", "line 6: expected: connector NAME: V -> W"),
    # the classes of a free prime
    ("graph x\nfree p k=1\nX 2 -> q\n", "line 3: class index 2 out of range 1..1"),
    ("graph x\nfree p k=1\nX 0 -> q\n", "line 3: class index 0 out of range 1..1"),
    ("graph x\nfree p k=1\nX 1 -> q\nX 1 -> q\nfree q k=0\n",
     "line 4: repeated class 1 at 'p'"),
    ("graph x\n# p\nfree p k=2\nX 1 -> q\nfree q k=0\n",
     "line 3: free prime 'p' has no X line for class 2"),
    ("graph x\nfree p k=1000000000000\nX 1 -> q\nfree q k=0\n",
     "line 2: free prime 'p' has no X line for class 2"),
    # lines outside their prime, unknown directives, no graph line
    ("graph x\nX 1 -> q\n", "line 2: X line outside a free prime"),
    ("graph x\n" + REG + "X 1 -> q\n", "line 6: X line outside a free prime"),
    ("graph x\nvertex u\n", "line 2: vertex line outside a regular prime"),
    ("graph x\nfree p k=0\nedge e: u -> u\n", "line 3: edge line outside a regular prime"),
    ("graph x\nfree p k=0\nconnector c: u -> p\n",
     "line 3: connector line outside a regular prime"),
    ("graph x\nprime p\n", "line 2: unknown directive 'prime'"),
    ("free p k=0\n", "missing 'graph NAME' line"),
    # duplicate names
    ("graph x\nfree p k=0\nfree p k=0\n", "duplicate prime name 'p'"),
    ("graph x\nfree p k=0\nregular p\n", "duplicate prime name 'p'"),
    ("graph x\nregular r\nvertex u u\n", "duplicate vertex name 'u'"),
    ("graph x\nfree p k=0\nregular r\nvertex p\n", "duplicate vertex name 'p'"),
    ("graph x\nregular r\nvertex s\nregular s\nvertex w\n", "duplicate vertex name 's'"),
    ("graph x\n" + REG + "edge e1: u -> u\n", "duplicate name 'e1'"),
    ("graph x\n" + REG + "edge u: u -> u\n", "duplicate name 'u'"),
    ("graph x\nfree z k=0\n" + REG + "connector e2: u -> z\n", "duplicate name 'e2'"),
    # references
    ("graph x\nfree p k=1\nX 1 -> nowhere\n", "dangling connector target 'nowhere' at 'p'"),
    ("graph x\n" + REG + "connector c: u -> nowhere\n", "dangling connector target 'nowhere'"),
    ("graph x\nfree z k=0\n" + REG + "edge e3: u -> z\n", "edge 'e3' endpoint outside 'r'"),
    ("graph x\nfree z k=0\n" + REG + "edge e3: z -> u\n", "edge 'e3' endpoint outside 'r'"),
    ("graph x\nfree z k=0\n" + REG + "connector c: z -> u\n",
     "connector 'c' source outside 'r'"),
    # several faults: the first in declaration order of its kind
    ("graph x\n" + REG + "edge e3: u -> nowhere\nconnector c: nowhere -> u\n",
     "edge 'e3' endpoint outside 'r'"),
])
def test_malformed_graph_files(case):
    text, message = case
    with pytest.raises(GraphError) as exc:
        parse_graph(text)
    assert str(exc.value) == message


@pytest.mark.parametrize("case", [
    ([FreePrime("p", 1, (("nowhere",),))], "dangling connector target 'nowhere' at 'p'"),
    ([RegularPrime("r", ("u",), (InternalEdge("e", "u", "z"),), ()), FreePrime("z", 0, ())],
     "edge 'e' endpoint outside 'r'"),
    ([RegularPrime("r", ("u",), (), (RegularConnector("c", "u", "nowhere"),))],
     "dangling connector target 'nowhere'"),
    ([FreePrime("p", 2, (("p",),))], "free prime 'p' needs 2 target classes"),
    ([FreePrime("p", -1, ())], "free prime 'p' needs -1 target classes"),
])
def test_hand_built_graphs_check_their_references(case):
    primes, message = case
    with pytest.raises(GraphError) as exc:
        SeparatedGraph("x", primes)
    assert str(exc.value) == message


def test_antisymmetry_pairs_follow_declaration_order():
    # a connector 4-cycle of free primes: p_i -> p_(i-1 mod 4)
    text = "graph c4\n" + "".join(f"free p{i} k=1\nX 1 -> p{(i - 1) % 4}\n" for i in range(4))
    pairs = [v.item for v in validate_adaptable(parse_graph(text))]
    assert pairs == [f"p{i} ~ p{j}" for i in range(4) for j in range(4) if i != j]


def test_regular_needs_out_degree():
    bad = "graph x\nregular r\nvertex w\nedge f1: w -> w\n"
    g = parse_graph(bad)
    assert validate_adaptable(g)


def test_free_prime_accessors(g1):
    p = next(q for q in g1.primes if isinstance(q, FreePrime) and q.name == "p")
    assert p.k == 2
    assert p.targets == (("q1",), ("q2",))


def test_compiled_tables_and_unknown_names():
    g = parse_graph(
        "graph two\nfree z k=0\nregular r\nvertex u v\nedge e1: u -> v\n"
        "edge e2: u -> u\nedge e3: v -> u\nedge e4: v -> v\nconnector c1: v -> z\n"
    )
    assert [e.name for e in g.out_edges_of["u"]] == ["e1", "e2"]
    assert [c.name for c in g.out_connectors_of["v"]] == ["c1"]
    assert g.out_edges_of["z"] == () and g.out_connectors_of["u"] == ()
    assert g.path_end("u", ("e1", "e3", "e1")) == "v" and g.path_end("u", ()) == "u"
    assert g.internal_walk("u", ("e1", "e3", "e1")) == ("v", 3)
    assert g.internal_walk("u", ()) == ("u", 0)
    assert g.internal_walk("u", ("e1", "c1", "e4")) == ("v", 1)  # a connector stops it
    assert g.internal_walk("u", ("e2", "e3")) == ("u", 1)  # e3 leaves v, not u
    assert g.is_free("z") and not g.is_free("r") and g.k("z") == 0
    for bad in (lambda: g.is_free("x"), lambda: g.k("x"), lambda: g.k("r"),
                lambda: g.internal_walk("u", ("e1", "x")), lambda: g.downset("x"),
                lambda: list(lt.enumerate_cpaths(g, "x", lt.Bounds())),
                lambda: list(lt.internal_paths(g, "x", 1))):
        with pytest.raises(GraphError):
            bad()
