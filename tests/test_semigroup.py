import dataclasses
import inspect
import random

import pytest
from hypothesis import given, settings, strategies as st

from sepgroid import filters as fl, graph as gr, groupoid as gp, lattice as lt
from sepgroid import monoid as mn, semigroup as sg
from sepgroid.graph import parse_graph
from sepgroid.lattice import Bounds
from sepgroid.semigroup import FreeStep, RegularStep, WordError

from conftest import alphabet, random_word
from oracle import ZERO, oracle_nf

# Normal forms frozen from the independent pair-rewriting oracle.
FROZEN_NF = [
    ("g1", "a:p.1 a:p.2", "a:p.1 a:p.2"),
    ("g1", "a:p.2 a:p.1", "a:p.1 a:p.2"),
    ("g1", "b:p.1.1* a:p.1* a:p.2*", "t:q1.1^-1 b:p.1.1* a:p.1*"),
    ("g1", "t:p.1 b:p.1.1", "b:p.1.1 t:q1.2"),
    ("g1", "a:p.1 b:p.2.1", "b:p.2.1 t:q2.1"),
    ("g1", "b:p.1.1* b:p.2.1", "0"),
    ("g1", "a:p.1 a:p.1* a:p.2", "a:p.1 a:p.2 a:p.1*"),
    ("g1", "t:p.2 a:p.1", "a:p.1 t:p.2"),
    ("g1", "b:p.1.1 t:q1.1", "b:p.1.1 t:q1.1"),
    ("g2", "e:f1 e:f2", "e:f1 e:f2"),
    ("g2", "e:f1* e:f1", "v:w"),
    ("g2", "e:f1 e:f1* e:f2", "0"),
    ("g2", "e:f2* e:f1", "0"),
    ("g3", "a:p.1 b:p.1.1 e:f1", "a:p.1 b:p.1.1 e:f1"),
    ("g3", "b:p.1.1 e:f1 e:f2 e:f1*", "b:p.1.1 e:f1 e:f2 e:f1*"),
    ("g3", "t:p.1 a:p.1", "a:p.1 t:p.1"),
    ("g3", "a:p.1* a:p.1 b:p.1.1", "b:p.1.1"),
    ("g3", "b:p.1.1* a:p.1", "0"),
]


@pytest.mark.parametrize("name,word,expected", FROZEN_NF)
def test_frozen_normal_forms(graphs, name, word, expected):
    g = graphs[name]
    e = sg.parse_word(g, word)
    if expected == "0":
        assert sg.is_zero(e)
        return
    # the library must consider the word equal to its oracle normal form,
    # and its own serialization must be oracle-equivalent to it
    assert sg.parse_word(g, expected) == e
    assert oracle_nf(g, sg.element_to_word(g, e)) == oracle_nf(g, word)


def test_normalize_spec_example(g3):
    assert sg.element_to_word(g3, sg.parse_word(g3, "a:p.1* a:p.1")) == "v:p"


@settings(max_examples=200, deadline=None)
@given(
    name=st.sampled_from(["g0", "g1", "g2", "g3"]),
    seeds=st.lists(st.integers(0, 10**9), min_size=3, max_size=3),
)
def test_semigroup_laws_random(graphs, name, seeds):
    import random

    g = graphs[name]
    toks = alphabet(g)
    es = []
    for s in seeds:
        r = random.Random(s)
        es.append(sg.parse_word(g, random_word(r, toks, 5)))
    a, b, c = es
    assert sg.mul(g, sg.mul(g, a, b), c) == sg.mul(g, a, sg.mul(g, b, c))
    assert sg.mul(g, a, sg.mul(g, sg.star(g, a), a)) == a
    assert sg.star(g, sg.star(g, a)) == a
    assert sg.star(g, sg.mul(g, a, b)) == sg.mul(g, sg.star(g, b), sg.star(g, a))


@settings(max_examples=300, deadline=None)
@given(
    name=st.sampled_from(["g1", "g2", "g3"]),
    seed=st.integers(0, 10**9),
)
def test_oracle_agreement_random(graphs, name, seed):
    import random

    g = graphs[name]
    r = random.Random(seed)
    w = random_word(r, alphabet(g), 7)
    e = sg.parse_word(g, w)
    nf = oracle_nf(g, w)
    if sg.is_zero(e):
        assert nf == ZERO
    else:
        assert nf == oracle_nf(g, sg.element_to_word(g, e))


def test_idempotents_are_projections(graphs, rng):
    for g in graphs.values():
        toks = alphabet(g)
        for _ in range(200):
            s = sg.parse_word(g, random_word(rng, toks, 5))
            e = sg.mul(g, sg.star(g, s), s)
            assert sg.mul(g, e, e) == e
            assert sg.star(g, e) == e
            if not sg.is_zero(e):
                assert sg.is_idempotent(e)


def test_word_round_trip(graphs, rng):
    for g in graphs.values():
        toks = alphabet(g)
        for _ in range(300):
            e = sg.parse_word(g, random_word(rng, toks, 6))
            assert sg.parse_word(g, sg.element_to_word(g, e)) == e


def test_zero_is_absorbing(g1):
    z = sg.ZERO
    e = sg.parse_word(g1, "a:p.1")
    assert sg.mul(g1, z, e) == z
    assert sg.mul(g1, e, z) == z
    assert sg.star(g1, z) == z


def test_vertex_words_are_units_locally(g1):
    e = sg.parse_word(g1, "a:p.1")
    v = sg.parse_word(g1, "v:p")
    assert sg.mul(g1, v, e) == e
    assert sg.mul(g1, e, v) == e


def test_t_generators_commute(g1):
    a = sg.parse_word(g1, "t:p.1 t:p.2")
    b = sg.parse_word(g1, "t:p.2 t:p.1")
    assert a == b
    inv = sg.parse_word(g1, "t:p.1 t:p.1^-1")
    assert sg.element_to_word(g1, inv) == "v:p"


def test_parse_rejects_garbage(g1):
    from sepgroid.graph import GraphError

    for bad in ("", "x:y", "a:p.9", "b:p.1.9", "e:zzz", "v:zzz"):
        with pytest.raises((WordError, GraphError)):
            sg.parse_word(g1, bad)


def test_validate_element(graphs, gen_module, rng):
    # mul and star check nothing of their operands, so their results must
    # be valid whenever the operands are: parsed words (each a fold of mul),
    # their stars, s*s, ss* and products of neighbours.  On the generated
    # graphs the benchmark's word stream makes products often nonzero.
    streams = [(g, lambda toks=alphabet(g): random_word(rng, toks, 5)) for g in graphs.values()]
    for shape in ("tower_graph", "regular_graph", "mixed_graph"):
        spec = getattr(gen_module, shape)("val-0")
        streams.append((parse_graph(spec.text()), gen_module.WordStream(spec, rng).next))
    for g, next_word in streams:
        prev, mixed = None, 0
        for _ in range(100):
            e = sg.parse_word(g, next_word())
            es = sg.star(g, e)
            products = [es, sg.mul(g, es, e), sg.mul(g, e, es)]
            if prev is not None:
                products += [sg.mul(g, prev, e), sg.mul(g, e, prev), sg.mul(g, es, prev)]
                mixed += sum(not sg.is_zero(x) for x in products[3:])
            for x in [e, *products]:
                sg.validate_element(g, x)
            prev = e
        assert mixed > 0


def _star_word(w):
    """The star of a generator word, token by token (t* = t^-1)."""
    out = []
    for tok in reversed(w.split()):
        if tok.startswith("t:"):
            out.append(tok[:-3] if tok.endswith("^-1") else tok + "^-1")
        elif tok.startswith("v:"):
            out.append(tok)
        else:
            out.append(tok[:-1] if tok.endswith("*") else tok + "*")
    return " ".join(out)


@pytest.mark.parametrize("shape", ["tower_graph", "regular_graph", "mixed_graph"])
@pytest.mark.parametrize("tag", ["nf-0", "nf-1"])
def test_oracle_agreement_on_generated_graphs(gen_module, shape, tag):
    # the fixtures have no regular connector below a free prime and no
    # mixed tower, so mul's translate branches meet these only here
    spec = getattr(gen_module, shape)(tag)
    g = parse_graph(spec.text())
    stream = gen_module.WordStream(spec, random.Random(f"{shape}/{tag}"), factors=(1, 2))
    prev = prev_w = None
    nonzero = 0  # nonzero products
    for _ in range(300):
        w = stream.next()
        e = sg.parse_word(g, w)
        cases = [(e, w)]
        if prev is not None:
            cases += [(sg.mul(g, prev, e), f"{prev_w} {w}"),
                      (sg.mul(g, sg.star(g, e), prev), f"{_star_word(w)} {prev_w}")]
        for x, word in cases:
            nf = oracle_nf(g, word)
            if sg.is_zero(x):
                assert nf == ZERO, word
            else:
                assert oracle_nf(g, sg.element_to_word(g, x)) == nf, word
        nonzero += sum(not sg.is_zero(x) for x, _ in cases[1:])
        prev, prev_w = e, w
    assert nonzero > 100


# A regular prime above a free prime with two loops, so that a free step
# with another loop follows a regular step: translate's regular branch then
# moves a t-part to new indices.  No fixture has this shape.
REG_OVER_FREE = (
    "graph rq\nregular r\nvertex w\nedge f1: w -> w\nedge f2: w -> w\n"
    "connector c: w -> q\nfree q k=2\nX 1 -> z\nX 2 -> z\nfree z k=0\n"
)


def test_translate_shifts_the_t_part_through_a_regular_step():
    # t:w.1 crosses the connector c and then b:q.1.1, whose free step
    # leaves k(q) - 1 = 1 other loop below it, so its index moves up by one
    g = parse_graph(REG_OVER_FREE)
    word = "b:q.1.1* e:c* t:w.1^-1"
    e = sg.parse_word(g, word)
    assert sg.element_to_word(g, e) == "t:z.2^-1 b:q.1.1* e:c*"
    assert oracle_nf(g, sg.element_to_word(g, e)) == oracle_nf(g, word) != ZERO


def _at(v, m, eta=None):
    return sg.Triple(sg.trivial_cpath(v), m, sg.trivial_cpath(eta or v))


def test_validate_element_rejects_ends_outside_the_prime(gen_module):
    # rbv0 lies in rb: the monomial, whose tails start at r(gamma) and r(eta),
    # carries no endpoint that could show it
    g = parse_graph(gen_module.regular_graph("p3").text())
    assert g.vertex_prime["rbv0"] == "rb" and g.vertex_prime["rav0"] == "ra"
    sg.validate_element(g, _at("rav0", sg.Monomial("ra", (), (), ())))
    for bad in (_at("rbv0", sg.Monomial("ra", (), (), ())),
                _at("rav0", sg.Monomial("ra", (), (), ()), "rbv0"),
                _at("rbv0", sg.Monomial("ra", (), (), ()), "rav0")):
        with pytest.raises(WordError, match="^prefix ends at rbv0, not in ra$"):
            sg.validate_element(g, bad)


def test_validate_element_rejects_tails_of_the_wrong_shape(g3):
    # g3: free p (k = 1), regular r at w with loops f1 and f2
    sg.validate_element(g3, _at("p", sg.Monomial("p", (), (2,), (1,))))
    sg.validate_element(g3, _at("w", sg.Monomial("r", (), ("f1",), ("f2",))))
    bad = [
        _at("w", sg.Monomial("r", (), (0,), (0,))),  # loop exponents at r
        _at("w", sg.Monomial("r", (), ("f1",), (1,))),
        _at("w", sg.Monomial("r", (), ["f1"], ["f1"])),  # not a tuple
        _at("p", sg.Monomial("p", (), ("f1",), ("f1",))),  # a path at p
        _at("p", sg.Monomial("p", (), (), ())),  # k(p) = 1 exponents
        _at("p", sg.Monomial("p", (), (1, 0), (1, 0))),
        _at("p", sg.Monomial("p", (), (-1,), (0,))),
    ]
    for e in bad:
        with pytest.raises(WordError):
            sg.validate_element(g3, e)


def test_validate_element_takes_int_exponents_only(g3):
    # each of these made element_to_word raise TypeError, or print a word
    # that parses to another value
    for e in (
        _at("p", sg.Monomial("p", (), (1.5,), (1.5,))),
        _at("p", sg.Monomial("p", (), (True,), (True,))),
        _at("p", sg.Monomial("p", ((1, 1.5),), (0,), (0,))),
        _at("p", sg.Monomial("p", ((1.0, 1),), (0,), (0,))),
        _at("p", sg.Monomial("p", ((True, 1),), (0,), (0,))),
        # unsorted or repeated indices print a word that parses to another value
        _at("p", sg.Monomial("p", ((2, 1), (1, 1)), (0,), (0,))),
        _at("p", sg.Monomial("p", ((1, 1), (1, 1)), (0,), (0,))),
    ):
        with pytest.raises(WordError):
            sg.validate_element(g3, e)
    sg.validate_element(g3, _at("p", sg.Monomial("p", ((1, -2),), (0,), (0,))))


def test_element_fields_reassemble(g3):
    e = sg.parse_word(g3, "a:p.1 b:p.1.1 e:f1 e:f2* e:f1* b:p.1.1*")
    gam, tp, body, eta = sg.element_fields(g3, e)
    flat = " ".join(x for x in (gam, tp, body, eta) if x)
    assert sg.parse_word(g3, flat) == e


# -- value layout --------------------------------------------------------

# Values are slotted, and c-path steps are named tuples compared as tuples,
# in C.  No code indexes or iterates a step: every reader uses its named
# fields.  Sort keys (lattice.epath_key) order steps as tuples, which is
# safe because two prefixes from one start first differ at steps that leave
# the same vertex, so of one kind.


def _mixed(gen_module):
    """A generated graph with regular connectors and a loop at every
    regular vertex."""
    return parse_graph(gen_module.mixed_graph("lay-0").text())


def _loop_and_connector(g):
    """(prime, vertex, loop edge, connector) at some regular vertex."""
    for v, conns in sorted(g.out_connectors_of.items()):
        loops = [e for e in g.out_edges_of[v] if e.rng == v]
        if conns and loops:
            return g.vertex_prime[v], v, loops[0].name, conns[0].name
    raise AssertionError("no regular vertex with a loop and a connector")


def test_values_have_no_instance_dict(g3, gen_module):
    mixed = _mixed(gen_module)
    e = sg.parse_word(g3, "a:p.1 b:p.1.1 e:f1 e:f1* b:p.1.1* a:p.1*")
    mu = lt.epath_of(g3, e)
    x = lt.EPath(sg.trivial_cpath("p"), "p", (fl.INF,))
    y = lt.EPath(e.gamma, "r", fl.PerTail((), ("f1",)))
    pres = mn.presentation(g3)
    free_p, reg_r = g3.prime("p"), g3.prime("r")
    prime, v, loop, conn = _loop_and_connector(mixed)
    values = [
        g3, free_p, reg_r, reg_r.edges[0], mixed.edge(conn), gr.Violation("c", "i"),
        e, e.gamma, e.gamma.steps[0], e.m, sg.parse_word(g3, "v:p").m,
        sg.ZERO, sg.generator_element(mixed, f"e:{conn}").gamma.steps[0],
        mu, Bounds(), lt.co_of(g3, e),
        y.tail, x,
        gp.GermWeight(), gp.unit(g3, x),
        mn.mon_unit("p"), pres.relations[0], mn.Budget(), mn.Yes(), mn.No(),
        mn.Unknown("state cap"), mn._Completion(), mn.EquidecompCertificate((), (), ()),
    ]
    for value in values:
        assert not hasattr(value, "__dict__"), type(value).__name__
    # every dataclass of the package is covered, except the two whose
    # cached_property needs an instance __dict__
    mods = (gr, sg, lt, fl, gp, mn)
    classes = {
        c for m in mods for _, c in inspect.getmembers(m, inspect.isclass)
        if c.__module__ == m.__name__ and dataclasses.is_dataclass(c)
    }
    assert classes - {type(value) for value in values} == {
        mn.Presentation, mn.RewritingSystem
    }
    assert {FreeStep, RegularStep} <= {type(value) for value in values}


def _same_value(steps, expect):
    assert len({id(s) for s in steps}) == len(steps)  # built separately
    for s in steps:
        assert isinstance(s, tuple)  # compared by the tuple code, in C
        assert s == expect and hash(s) == hash(expect) and type(s) is type(expect)
    assert set(steps) == {expect}


def test_steps_built_by_different_routes_are_equal(g3, gen_module):
    # g3: free p (k = 1) with one connector into the regular vertex w
    first = FreeStep("p", 1, 0, 1)
    looped = FreeStep("p", 1, 1, 1)
    beta = sg.generator_element(g3, "b:p.1.1")
    alpha = sg.generator_element(g3, "a:p.1")
    enumerated = [c.steps[0] for c in lt.enumerate_cpaths(g3, "p", Bounds(1, 1, 0)) if c.steps]
    children = [
        [m.gamma.steps[0] for m in lt.epath_children(g3, lt.EPath(sg.trivial_cpath("p"), "p", (n,)), 1)
         if m.gamma.steps]
        for n in (0, 1)
    ]
    _same_value([beta.gamma.steps[0], enumerated[0], children[0][0]], first)
    _same_value([sg.translate(g3, alpha.m, beta.gamma.steps)[0][0],
                 sg.parse_word(g3, "a:p.1 b:p.1.1").gamma.steps[0],
                 enumerated[1], children[1][0]], looped)

    g = _mixed(gen_module)
    prime, v, loop, conn = _loop_and_connector(g)
    bare, through = RegularStep(prime, (), conn), RegularStep(prime, (loop,), conn)
    gen = sg.generator_element(g, f"e:{conn}")
    edge = sg.generator_element(g, f"e:{loop}")
    enumerated = {s: s for c in lt.enumerate_cpaths(g, v, Bounds(1, 0, 1)) for s in c.steps}
    children = [
        {m.gamma.steps[0]: m.gamma.steps[0]
         for m in lt.epath_children(g, lt.EPath(sg.trivial_cpath(v), prime, tail), None)
         if m.gamma.steps}
        for tail in ((), (loop,))
    ]
    _same_value([gen.gamma.steps[0], enumerated[bare], children[0][bare]], bare)
    _same_value([sg.translate(g, edge.m, gen.gamma.steps)[0][0],
                 sg.parse_word(g, f"e:{loop} e:{conn}").gamma.steps[0],
                 enumerated[through], children[1][through]], through)


def test_free_steps_never_equal_regular_steps(gen_module):
    g = _mixed(gen_module)
    steps = {s for v in g.vertex_prime for c in lt.enumerate_cpaths(g, v, Bounds(2, 1, 1))
             for s in c.steps}
    free = [s for s in steps if isinstance(s, FreeStep)]
    regular = [s for s in steps if isinstance(s, RegularStep)]
    assert free and regular
    for f in free:
        for r in regular:
            assert f != r and not f == r
    assert len(set(free) | set(regular)) == len(free) + len(regular)
    assert FreeStep("p", 1, 0, 1) != RegularStep("p", 1, 0)


GENERATED = [(shape, f"rt-{i}") for shape in ("regular_graph", "mixed_graph") for i in (0, 1, 2)]


@pytest.mark.parametrize("shape,tag", GENERATED)
def test_idempotent_pool_round_trips_on_generated_graphs(gen_module, shape, tag):
    g = parse_graph(getattr(gen_module, shape)(tag).text())
    pool = list(lt.enumerate_idempotents(g, Bounds(3, 2, 2)))
    assert len(set(pool)) == len(pool)
    for e in pool:
        back = sg.parse_word(g, sg.element_to_word(g, e))
        assert back == e and hash(back) == hash(e)


def test_validate_takes_tuples_only(g3):
    # a list hashes with TypeError, after printing as a valid word
    with pytest.raises(WordError, match="t-part"):
        sg.validate_element(g3, _at("p", sg.Monomial("p", [(1, 1)], (0,), (0,))))
    with pytest.raises(WordError, match="steps"):
        sg.validate_cpath(g3, sg.CPath("p", [FreeStep("p", 1, 0, 1)]))
    sg.validate_cpath(g3, sg.CPath("p", (FreeStep("p", 1, 0, 1),)))


# -- parse_word against the plain fold ------------------------------------

# parse_word reads the opening and closing c-paths of a word as steps and
# folds only the tokens between them; the reference here folds every token.


def _fold(g, text):
    tokens = text.split()
    if not tokens:
        raise WordError("empty word")
    out = sg.generator_element(g, tokens[0])
    for tok in tokens[1:]:
        out = sg.mul(g, out, sg.generator_element(g, tok))
    return out


def _outcome(parse, g, text):
    try:
        return parse(g, text)
    except (WordError, gr.GraphError) as ex:
        return type(ex), str(ex)


def _assert_parses_as_fold(g, text):
    expect = _outcome(_fold, g, text)
    got = _outcome(sg.parse_word, g, text)
    assert got == expect, text


def _reader_words(g, rng):
    """element_to_word of idempotents and of random products."""
    idems = list(lt.enumerate_idempotents(g, Bounds(2, 1, 2)))
    elems = rng.sample(idems, min(len(idems), 40))
    toks = alphabet(g)
    for _ in range(40):
        e = _fold(g, random_word(rng, toks, 6))
        if not sg.is_zero(e):
            elems.append(e)
    for _ in range(40):
        a, b = rng.choice(elems), rng.choice(elems)
        elems.append(sg.mul(g, a, sg.star(g, b)))
    return [sg.element_to_word(g, e) for e in elems]


def test_parse_word_equals_the_fold(graphs, gen_module):
    rng = random.Random(21)
    gs = list(graphs.values()) + [
        parse_graph(getattr(gen_module, shape)("pw-0").text())
        for shape in ("tower_graph", "regular_graph", "mixed_graph")
    ]
    read = total = 0
    for g in gs:
        words = _reader_words(g, rng)
        texts = list(words)
        for _ in range(60):
            texts.append(" ".join(rng.choice(words) for _ in range(rng.randint(2, 3))))
        for w in list(texts):
            toks = w.split()
            shuffled = rng.sample(toks, len(toks))
            cut = rng.randint(1, len(toks))
            texts += [" ".join(shuffled), " ".join(toks[:cut]), " ".join(toks[cut - 1:])]
        total += len(texts)
        for text in texts:
            _assert_parses_as_fold(g, text)
            try:
                read += sg._read_cpath(g, text.split())[1] > 0
            except WordError:
                pass  # not a c-path: parse_word folded every token
    assert 10 * read > total  # the reader, not only the fold, made these values


def test_parse_word_edge_cases(g3, gen_module):
    # g3: free p (k = 1), one connector b:p.1.1 into w, loops f1 and f2 at w
    cases = [
        "a:p.1 a:p.1",  # a run of a: without its b:
        "a:p.1 a:p.1 t:p.1 b:p.1.1",
        "a:p.1 a:p.1* b:p.1.1",  # a starred token inside the opening run
        "b:p.1.1 e:f1* e:f1",
        "b:p.1.1 b:p.1.1",  # non-composable steps: zero
        "a:p.1 b:p.1.1 a:p.1 b:p.1.1 e:f1",
        "e:f1* b:p.1.1* b:p.1.1*",
        "a:p.1 b:p.1.1 e:nope",  # an unknown name inside a run
        "a:p.1 a:q.1 b:p.1.1",
        "a:p.1 b:p.1.9 e:f1",
        "a:p.2 b:p.2.1",
        "b:p.1.1 e:nope*",
        "b:p.x.1 b:p.1.1*",
        "v:x",
        "b:p.1.1 v:x",
        "v:x b:p.1.1*",
        "a:p.1 b:p.1.1 e:f1* e:f1 b:p.1.1* a:p.1*",
        "a:p.1 b:p.1.1 e:f1* e:f2 b:p.1.1*",
        "b:p.1.1 b:p.1.1* a:p.1 a:p.1*",
        "a:p.1 b:p.1.1 b:p.1.1** a:p.1*",
    ]
    for text in cases:
        _assert_parses_as_fold(g3, text)
    assert sg.parse_word(g3, "b:p.1.1 b:p.1.1") == sg.ZERO
    g = _mixed(gen_module)
    prime, v, loop, conn = _loop_and_connector(g)
    for text in (
        f"e:{loop} e:{conn}",
        f"e:{loop} e:{loop}",  # internal edges without their connector
        f"e:{loop} e:{conn} e:{conn}",
        f"e:{conn}* e:{loop}*",
        f"e:{loop} e:{conn} e:{conn}* e:{loop}*",
        f"e:{loop} e:{conn}* e:{loop}*",
        f"e:{loop} e:nope e:{conn}",
    ):
        _assert_parses_as_fold(g, text)
