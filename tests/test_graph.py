import pytest

from sepgroid.graph import (
    FreePrime,
    GraphError,
    RegularPrime,
    component_leq,
    hereditary_subsets,
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


def test_sigma_shift(g1):
    # crossing a connector shifts a t-index by k(p) - 1
    assert g1.sigma("p", 1) == 2
    assert g1.sigma("p", 2) == 3


def test_sigma_drop(g1):
    assert g1.sigma_drop("p", 1, 2) == 1
    assert g1.sigma_drop("p", 2, 1) == 1


def test_component_order(g3):
    assert component_leq(g3, "p", "r")
    assert not component_leq(g3, "r", "p")


def test_hereditary_subsets(g3):
    hs = hereditary_subsets(g3)
    assert frozenset() in hs
    assert frozenset({"r"}) in hs
    assert frozenset({"p", "r"}) in hs
    assert frozenset({"p"}) not in hs


def test_parse_rejects_bad_graph():
    with pytest.raises(GraphError):
        parse_graph("graph x\nfree p 1\n")


def test_regular_needs_out_degree():
    bad = "graph x\nregular r\nvertex w\nedge f1: w -> w\n"
    g = parse_graph(bad)
    assert validate_adaptable(g)


def test_free_prime_accessors(g1):
    p = next(q for q in g1.primes if isinstance(q, FreePrime) and q.name == "p")
    assert p.k == 2
    assert g1.g("p", 1) == 1 and g1.g("p", 2) == 1


def test_compiled_tables_and_unknown_names():
    g = parse_graph(
        "graph two\nfree z k=0\nregular r\nvertex u v\nedge e1: u -> v\n"
        "edge e2: u -> u\nedge e3: v -> u\nedge e4: v -> v\nconnector c1: v -> z\n"
    )
    assert [e.name for e in g.out_edges("u")] == ["e1", "e2"]
    assert [c.name for c in g.out_connectors("v")] == ["c1"]
    assert g.out_edges("z") == () and g.out_connectors("u") == ()
    assert g.path_end("u", ("e1", "e3", "e1")) == "v" and g.path_end("u", ()) == "u"
    assert g.internal_walk("u", ("e1", "e3", "e1")) == ("v", 3)
    assert g.internal_walk("u", ()) == ("u", 0)
    assert g.internal_walk("u", ("e1", "c1", "e4")) == ("v", 1)  # a connector stops it
    assert g.internal_walk("u", ("e2", "e3")) == ("u", 1)  # e3 leaves v, not u
    assert g.is_free("z") and not g.is_free("r") and g.k("z") == 0
    for bad in (lambda: g.out_edges("x"), lambda: g.out_connectors("x"),
                lambda: g.is_free("x"), lambda: g.k("x"), lambda: g.k("r"),
                lambda: g.internal_walk("u", ("e1", "x"))):
        with pytest.raises(GraphError):
            bad()
