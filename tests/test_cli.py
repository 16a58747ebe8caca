import json
import os
import pathlib
import subprocess
import sys

import pytest

import sepgroid
from sepgroid import fixture_path
from sepgroid.cli import COMMANDS, _co_tokens, main
from sepgroid.lattice import LatticeError

from conftest import TWO_WAY


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out.strip(), out.err.strip()


G0, G1, G2, G3 = (fixture_path(f"g{i}.sg") for i in range(4))


def test_normalize_example(capsys):
    code, out, _ = run(capsys, "normalize", G3, "a:p.1* a:p.1")
    assert (code, out) == (0, "v:p")


def test_normalize_zero(capsys):
    code, out, _ = run(capsys, "normalize", G3, "b:p.1.1* a:p.1")
    assert (code, out) == (0, "0")


def test_mul(capsys):
    code, out, _ = run(capsys, "mul", G3, "a:p.1", "a:p.1*")
    assert (code, out) == (0, "a:p.1 a:p.1*")


def test_validate(capsys, tmp_path):
    code, out, _ = run(capsys, "validate", G1)
    assert code == 0
    bad = tmp_path / "bad.sg"
    bad.write_text("graph x\nregular r\nvertex w\nedge f1: w -> w\n")
    code, out, _ = run(capsys, "validate", str(bad))
    assert code == 1 and out


def test_expand_and_cover(capsys):
    code, out, _ = run(capsys, "expand", G3, "v:p", "0:1")
    assert code == 0
    pieces = out.splitlines()
    assert sorted(pieces) == ["a:p.1 a:p.1*", "b:p.1.1 b:p.1.1*"]
    code, _, _ = run(capsys, "cover-check", G3, "v:p", *pieces)
    assert code == 0
    code, out, _ = run(capsys, "cover-to-expansion", G3, "v:p", *pieces)
    assert (code, out) == (0, "0:1")
    code, _, _ = run(capsys, "cover-check", G3, "v:p", pieces[0])
    assert code == 1


def test_cylinders(capsys):
    code, out, _ = run(capsys, "cylinders", G3, "Z(v:p) - Z(a:p.1 a:p.1*)")
    assert (code, out) == (0, "Z(b:p.1.1 b:p.1.1*)")
    code, out, _ = run(capsys, "cylinders", G3, "Z(v:p) & Z(v:w)")
    assert (code, out) == (1, "(empty)")
    code, out, _ = run(
        capsys, "cylinders", G3, "(Z(v:p) - Z(a:p.1 a:p.1*)) + Z(a:p.1 a:p.1*)"
    )
    assert code == 0


def test_cylinders_bad_expression(capsys):
    code, _, err = run(capsys, "cylinders", G3, "Z(v:p) %")
    assert code == 65 and err


def test_compact_open_tokens():
    text = " (Z( a:p.1 (x (y)) )&\tZ(v:p))-  Z()\n"
    assert _co_tokens(text) == [
        "(", ("Z", "a:p.1 (x (y))"), "&", ("Z", "v:p"), ")", "-", ("Z", ""),
    ]
    for bad in ("Z(v:p", "Z(v:p (x)", "Z(a ((b) c)"):
        with pytest.raises(LatticeError, match=r"^unbalanced Z\(\.\.\.\)$"):
            _co_tokens(bad)
    with pytest.raises(LatticeError, match="^bad character '%' in compact-open expression$"):
        _co_tokens("Z(v:p) % Z(v:p)")


def test_compact_open_nesting_is_bounded(capsys):
    def nested(n):
        return "(" * n + "Z(v:p)" + ")" * n

    assert run(capsys, "cylinders", G3, nested(100))[:2] == (0, "Z(v:p)")
    # a Z(...) between the bare parentheses does not reset their count
    interleaved = "(Z(v:p) & " * 100 + "Z(v:p)" + ")" * 100
    assert run(capsys, "cylinders", G3, interleaved)[:2] == (0, "Z(v:p)")
    # parentheses inside Z(...) are the word's, not the expression's
    assert _co_tokens("Z(" + nested(150) + ")") == [("Z", nested(150))]
    deep = "(Z(v:p) & " * 400 + "Z(v:p)" + ")" * 400
    for text in (nested(101), nested(330), deep, "(" * 101 + "Z(v:p)"):
        code, out, err = run(capsys, "cylinders", G3, text)
        assert (code, out, err) == (65, "", "error: parentheses nested deeper than 100")


def test_deep_subtraction_and_cover(capsys):
    deep = " ".join(["a:p.1"] * 1200 + ["a:p.1*"] * 1200)
    code, out, _ = run(capsys, "cylinders", G3, f"Z(v:p) - Z({deep})")
    assert code == 0 and out.count("Z(") == 1200
    code, out, err = run(capsys, "cover-to-expansion", G3, "v:p", deep)
    assert (code, out, err) == (65, "", "error: not an orthogonal cover")


def test_filter_and_ultrafilter(capsys):
    code, out, _ = run(
        capsys, "filter-contains", G3, "[v:p] ; free(inf)", "a:p.1 a:p.1*"
    )
    assert (code, out) == (0, "yes")
    code, out, _ = run(
        capsys, "filter-contains", G3, "[v:p] ; free(2)", "b:p.1.1 b:p.1.1*"
    )
    assert (code, out) == (1, "no")
    assert run(capsys, "ultrafilter", G2, "[v:w] ; reg(f2 ; f1)")[0] == 0
    assert run(capsys, "ultrafilter", G2, "[v:w] ; reg(f2 ; )")[0] == 1
    # a blank side of a reg(...) literal is the empty path
    assert run(capsys, "ultrafilter", G2, "[v:w] ; reg( ; f2)")[0] == 0
    assert run(capsys, "ultrafilter", G2, "[v:w] ; reg( ; )")[0] == 1
    assert run(capsys, "ultrafilter", G0, "[v:p] ; free()")[0] == 0


def test_germ(capsys):
    code, out, _ = run(capsys, "germ", G3, "a:p.1", "[v:p] ; free(inf)")
    assert code == 0
    assert out == "([v:p] ; free(inf) ; 0 ; 1 ; [v:p] ; free(inf))"
    code, out, _ = run(capsys, "germ", G2, "e:f1 e:f2*", "[v:w] ; reg( ; f2)")
    assert code == 0
    assert out == "([v:w] ; reg(f1 ; f2) ; 0 ; 0 ; [v:w] ; reg( ; f2))"


def test_bisection_check(capsys):
    assert run(capsys, "bisection-check", G2, "e:f1 e:f2*", "e:f2 e:f1*")[0] == 0
    assert run(capsys, "bisection-check", G2, "e:f1", "e:f2")[0] == 1


def test_monoid_eq_examples(capsys):
    code, out, _ = run(capsys, "monoid-eq", G1, "a:p", "a:p + a:q1")
    assert code == 0 and out.splitlines()[0] == "Yes"
    code, out, _ = run(capsys, "monoid-eq", G1, "a:q1", "a:q2")
    assert (code, out) == (1, "No")
    code, out, _ = run(
        capsys, "monoid-eq", G2, "a:w", "6*a:w", "--max-steps", "3"
    )
    assert (code, out) == (2, "Unknown")


def test_monoid_leq_and_refine(capsys):
    code, out, _ = run(capsys, "monoid-leq", G3, "a:w", "a:p")
    assert code == 0 and out.splitlines()[0] == "Yes"
    # the closure of q2 is {q2}, complete and unpruned: q1 <= q2 is false
    assert run(capsys, "monoid-leq", G1, "a:q1", "a:q2") == (1, "No", "")
    code, out, _ = run(capsys, "refine", G1, "a:p", "a:q1", "a:p", "a:q1")
    assert code == 0 and out.splitlines()[0] == "Yes"


def test_refine_exit_codes(capsys):
    # w = 3w: Yes at the default budget, Unknown (2) when the budget runs
    # out first; q1 + q2 and 2*q1 are provably unequal, an input error (65).
    argv = ("refine", G2, "a:w", "0", "2*a:w", "a:w")
    code, out, _ = run(capsys, *argv)
    assert (code, out.splitlines()[0]) == (0, "Yes")
    assert run(capsys, *argv, "--max-steps", "1") == (2, "Unknown", "")
    assert run_json(capsys, *argv, "--max-steps", "1") == (
        2, {"status": "Unknown", "reason": "state cap"}
    )
    code, out, err = run(capsys, "refine", G1, "a:q1", "a:q2", "a:q1", "a:q1")
    assert (code, out, err) == (65, "", "error: a+b and c+d are unequal")


def test_typ(capsys):
    code, out, _ = run(capsys, "typ", G3, "Z(v:p) + Z(v:w)")
    assert (code, out) == (0, "a:p + a:w")


def test_equidecompose_example(capsys):
    code, out, _ = run(capsys, "equidecompose", G3, "Z(v:p)", "Z(a:p.1 a:p.1*)")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "Yes"
    assert lines[1].startswith("a:p.1 ")
    code, out, _ = run(capsys, "equidecompose", G1, "Z(v:q1)", "Z(v:q2)")
    assert (code, out) == (1, "No")


def test_equidecompose_answers_from_its_own_search(capsys):
    # monoid-eq on the types and equidecompose on the compact opens run one
    # search, so they agree: one state per closure is enough for both.
    a, b = "Z(v:p)", "Z(a:p.2 a:p.2*) + Z(b:p.2.1 b:p.2.1*)"
    limits = ("--max-steps", "1", "--max-weight", "6")
    code, out, _ = run(capsys, "monoid-eq", G1, "a:p", "a:p + a:q2", *limits)
    assert (code, out) == (0, "Yes\na:p\na:p + a:q2")
    code, out, _ = run(capsys, "equidecompose", G1, a, b, *limits)
    assert code == 0
    assert out.splitlines()[0] == "Yes"


def test_json_output(capsys):
    code, out, _ = run(capsys, "normalize", G3, "a:p.1* a:p.1", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "normalize" and doc["result"] == "v:p"


def run_json(capsys, *argv):
    """The exit code and the `result` of one command's `--json` document;
    options go after the command's arguments."""
    code, out, err = run(capsys, *argv, "--json")
    assert not err
    doc = json.loads(out)
    inputs = list(argv[1:])
    while len(inputs) > 1 and inputs[-2].startswith("--"):
        inputs = inputs[:-2]
    assert doc == {"command": argv[0], "inputs": inputs, "result": doc["result"]}
    return code, doc["result"]


def test_json_monoid_documents(capsys):
    assert run_json(capsys, "monoid-eq", G1, "a:p", "a:p + a:q1") == (
        0, {"status": "Yes", "path": ["a:p", "a:p + a:q1"]}
    )
    assert run_json(capsys, "monoid-eq", G1, "a:q1", "a:q2") == (1, {"status": "No"})
    assert run_json(capsys, "monoid-eq", G2, "a:w", "6*a:w", "--max-steps", "3") == (
        2, {"status": "Unknown", "reason": "state cap"}
    )
    assert run_json(capsys, "monoid-eq", G2, "a:w", "6*a:w", "--max-weight", "5") == (
        2, {"status": "Unknown", "reason": "weight cap"}
    )
    # g1's completion processes one critical pair, so zero is too few
    assert run_json(capsys, "monoid-eq", G1, "a:p + a:q1", "a:p + a:q2", "--max-steps", "0") == (
        2, {"status": "Unknown", "reason": "completion budget"}
    )
    assert run_json(capsys, "monoid-leq", G3, "a:w", "a:p") == (
        0, {"status": "Yes", "z": "a:p"}
    )
    assert run_json(capsys, "monoid-leq", G2, "3*a:w", "a:w", "--max-steps", "1") == (
        2, {"status": "Unknown", "reason": "state cap"}
    )
    assert run_json(capsys, "monoid-leq", G2, "3*a:w", "a:w", "--max-weight", "1") == (
        2, {"status": "Unknown", "reason": "weight cap"}
    )
    assert run_json(capsys, "monoid-leq", G1, "a:q1", "a:q2") == (1, {"status": "No"})
    assert run_json(capsys, "refine", G1, "a:p", "a:q1", "a:p", "a:q1") == (
        0, {"status": "Yes", "witness": ["a:p", "0", "0", "a:q1"]}
    )


HALVES = "Z(e:f1 e:f1*) + Z(e:f2 e:f2*)"


def test_json_equidecompose_documents(capsys):
    assert run_json(capsys, "equidecompose", G2, "Z(v:w)", HALVES) == (0, {
        "status": "Yes",
        "certificate": [
            {"element": "e:f2 e:f1*", "source": "e:f1 e:f1*", "range": "e:f2 e:f2*"},
            {"element": "e:f1 e:f2*", "source": "e:f2 e:f2*", "range": "e:f1 e:f1*"},
        ],
    })
    no = run_json(capsys, "equidecompose", G1, "Z(v:q1)", "Z(v:q2)")
    assert no == (1, {"status": "No"})
    unknown = run_json(capsys, "equidecompose", G2, "Z(v:w)", HALVES, "--max-steps", "0")
    assert unknown == (2, {"status": "Unknown", "reason": "state cap"})


def test_json_filter_and_validate_documents(capsys, tmp_path):
    path = "[v:p] ; free(inf)"
    assert run_json(capsys, "filter-contains", G3, path, "a:p.1 a:p.1*") == (0, True)
    path = "[v:p] ; free(2)"
    assert run_json(capsys, "filter-contains", G3, path, "b:p.1.1 b:p.1.1*") == (1, False)
    assert run_json(capsys, "validate", G1) == (0, [])
    bad = tmp_path / "bad.sg"
    bad.write_text(NOT_ADAPTABLE)
    assert run_json(capsys, "validate", str(bad)) == (1, ["|s_Ep^-1(w)| >= 2: r:w"])


def test_idempotents(capsys):
    code, out, _ = run(capsys, "idempotents", G1, "--max-exp", "1", "--max-depth", "1")
    assert code == 0
    assert "v:p" in out.splitlines()


def test_usage_errors(capsys):
    assert run(capsys, "nonsense", G1)[0] == 64
    assert run(capsys, "mul", G1)[0] == 64
    assert run(capsys, "normalize", G1, "bogus")[0] == 65
    assert run(capsys, "normalize", "/nonexistent.sg", "v:p")[0] == 65


def test_selftest_and_seed_are_gone(capsys):
    code, out, err = run(capsys, "selftest")
    assert (code, out, err) == (64, "", "usage error: unknown command 'selftest'")
    code, out, err = run(capsys, "validate", G1, "--seed", "1")
    assert code == 64 and not out and "--seed" in err


def _readme_subcommands():
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text(encoding="utf-8")
    listed = text.split("Subcommands: `", 1)[1].split("`", 1)[0]
    return listed.split()


def test_readme_subcommands_reach_dispatch(capsys):
    commands = _readme_subcommands()
    assert commands == list(COMMANDS) and "selftest" not in commands
    for cmd in commands:
        usage = COMMANDS[cmd][0]
        assert run(capsys, cmd) == (64, "", f"usage error: {cmd} {usage}")
        assert usage.startswith("GRAPH")
    assert run(capsys, "nonsense") == (64, "", "usage error: unknown command 'nonsense'")


def test_argument_counts_are_checked_before_the_graph_is_read(capsys):
    for argv in (("mul", G3, "v:p"), ("expand", G3, "v:p"), ("idempotents", G1, "v:p"),
                 ("cover-check", "/nonexistent.sg"), ("validate", G1, G1)):
        code, out, err = run(capsys, *argv)
        assert code == 64 and not out and err.startswith(f"usage error: {argv[0]} GRAPH")


CONNECTOR_BELOW_LOOPS = (
    "graph cb\nfree s k=0\nregular r\nvertex w\n"
    "edge f1: w -> w\nedge f2: w -> w\nconnector c: w -> s\n"
)


def test_connector_in_a_regular_tail_is_a_parse_error(capsys, tmp_path):
    graph = tmp_path / "cb.sg"
    graph.write_text(CONNECTOR_BELOW_LOOPS)
    assert run(capsys, "validate", str(graph)) == (0, "ok", "")
    for literal in ("[v:w] ; reg(c ; )", "[v:w] ; reg(f1 ; c)", "[v:w] ; reg(c ; f1)"):
        code, out, err = run(capsys, "filter-contains", str(graph), literal, "e:c e:c*")
        assert (code, out) == (65, ""), literal
        assert err == "error: tail edge c does not continue at w"
    code, out, _ = run(capsys, "filter-contains", str(graph), "[e:c] ; free()", "e:c e:c*")
    assert (code, out) == (0, "yes")


def test_missing_cover_word_is_a_usage_error(capsys):
    code, _, err = run(capsys, "cover-to-expansion", G3)
    assert code == 64 and err.startswith("usage error")


def test_extra_normalize_word_is_a_usage_error(capsys):
    code, _, err = run(capsys, "normalize", G3, "v:p", "v:p")
    assert code == 64 and err.startswith("usage error")


@pytest.mark.parametrize("opt", ["--max-steps", "--max-weight", "--max-depth", "--max-exp"])
def test_negative_limits_are_usage_errors(capsys, opt):
    code, out, err = run(capsys, "monoid-eq", G1, "a:p", "a:p", opt, "-1")
    assert code == 64 and not out and opt in err


def test_unexpected_exception_exits_70(capsys, monkeypatch):
    def boom(g, e):
        raise RuntimeError("boom")

    monkeypatch.setattr("sepgroid.semigroup.element_to_word", boom)
    code, out, err = run(capsys, "normalize", G3, "v:p")
    assert code == 70 and not out
    assert err == "internal error: RuntimeError: boom"


@pytest.mark.parametrize("argv", [
    ("expand", G3, "v:p", "x"),
    ("expand", G3, "v:p", "0:y"),
    ("filter-contains", G3, "[v:p ; free(0)", "v:p"),
    ("filter-contains", G3, "[v:p] ; free(x)", "v:p"),
    ("monoid-eq", G1, "x*a:p", "a:p"),
    ("filter-contains", G3, "v:p ; free(0)", "v:p"),
    ("filter-contains", G3, "[v:p]", "v:p"),
    ("filter-contains", G3, "[v:p] ; loops(0)", "v:p"),
    ("filter-contains", G3, "[a:p.1*] ; free(0)", "v:p"),
    ("ultrafilter", G2, "[v:w] reg(f1 ; )"),
    # a tail literal of the wrong kind for its prime, or a negative loop
    # count; `free()` at the regular w and `reg( ; )` at g0's point prime
    # (no loops) give the same empty tuple as a tail of the right kind, so
    # only the literal's syntax tells them apart
    ("ultrafilter", G2, "[v:w] ; free()"),
    ("filter-contains", G3, "[v:p] ; reg( ; )", "v:p"),
    ("ultrafilter", G3, "[v:p] ; free(-1)"),
    ("ultrafilter", G0, "[v:p] ; reg( ; )"),
    ("cylinders", G3, "Z(v:p) Z(v:p)"),
    ("cylinders", G3, "Z(v:p"),
    ("typ", G3, "Z(v:p) & )"),
    ("equidecompose", G3, "Z(v:p)", "(Z(v:p)"),
    # a blank entry in a nonblank side of either tail syntax
    ("ultrafilter", G2, "[v:w] ; reg(f1,,f2 ; ,f1,)"),
    ("ultrafilter", G3, "[v:p] ; free(1,,2)"),
])
def test_malformed_literals_are_parse_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 65 and not out and err.startswith("error: ")


NOT_ADAPTABLE = "graph x\nregular r\nvertex w\nedge f1: w -> w\n"


def test_a_graph_that_is_not_adaptable_is_an_input_error(capsys, tmp_path):
    graph = tmp_path / "x.sg"
    graph.write_text(NOT_ADAPTABLE)
    code, out, _ = run(capsys, "validate", str(graph))
    assert (code, out) == (1, "|s_Ep^-1(w)| >= 2: r:w")
    for argv in (("ultrafilter", "[v:w] ; reg( ; f1)"), ("monoid-eq", "a:w", "2*a:w"),
                 ("normalize", "v:w"), ("idempotents",)):
        code, out, err = run(capsys, argv[0], str(graph), *argv[1:])
        assert (code, out) == (65, ""), argv
        assert err == f"error: {graph} is not adaptable: |s_Ep^-1(w)| >= 2: r:w"


@pytest.mark.parametrize("case", [
    ("graph x\nfree p k=1\nX 1\n", "line 3: expected: X I -> V1 [V2 ...]"),
    ("graph x\nfree p k=1\nX\n", "line 3: expected: X I -> V1 [V2 ...]"),
    ("graph\n", "line 1: expected: graph NAME"),
    ("graph x\nfree p\n", "line 2: expected: free NAME k=<int>"),
])
def test_malformed_graph_lines_are_parse_errors(capsys, tmp_path, case):
    text, message = case
    graph = tmp_path / "x.sg"
    graph.write_text(text)
    assert run(capsys, "validate", str(graph)) == (65, "", f"error: {message}")


def test_graph_file_that_is_not_utf8_is_a_parse_error(capsys, tmp_path):
    bad = tmp_path / "latin1.sg"
    bad.write_bytes(b"graph caf\xe9\n")
    code, out, err = run(capsys, "validate", str(bad))
    assert code == 65 and not out and "UTF-8" in err


def test_graph_path_that_is_a_directory_is_a_parse_error(capsys, tmp_path):
    code, out, err = run(capsys, "validate", str(tmp_path))
    assert code == 65 and not out and err.startswith("error: ")


def test_internal_value_error_exits_70(capsys, monkeypatch):
    def boom(g, e):
        raise ValueError("boom")

    monkeypatch.setattr("sepgroid.semigroup.element_to_word", boom)
    code, out, err = run(capsys, "normalize", G3, "v:p")
    assert code == 70 and not out
    assert err == "internal error: ValueError: boom"


@pytest.mark.parametrize("argv,message", [
    (("normalize", G3, "t:nope.1"), "bad t token 't:nope.1'"),
    (("normalize", G3, "t:p.0"), "bad t token 't:p.0'"),
    (("normalize", G3, "b:p.2.1"), "no loop class 2 at 'p'"),
    (("monoid-eq", G1, "a:p + b:q1", "a:p"), "bad monoid term 'b:q1'"),
    (("monoid-eq", G1, "a:p + -1*a:q1", "a:p"), "negative coefficient in {'p': 1, 'q1': -1}"),
    (("expand", G3, "v:p", "5"), "script position 5 out of range"),
])
def test_boundary_checks_name_what_they_reject(capsys, argv, message):
    assert run(capsys, *argv) == (65, "", f"error: {message}")


def test_the_zero_word_is_the_empty_compact_open(capsys):
    assert run(capsys, "cylinders", G3, "Z(0)") == (1, "(empty)", "")


def test_a_periodic_tail_must_return_to_its_start(capsys, tmp_path):
    graph = tmp_path / "h.sg"
    graph.write_text(TWO_WAY)
    code, out, err = run(capsys, "ultrafilter", str(graph), "[v:u] ; reg( ; e1)")
    assert (code, out, err) == (65, "", "error: cycle does not return to its start")
    assert run(capsys, "ultrafilter", str(graph), "[v:u] ; reg( ; e1,e3)")[:2] == (0, "ultrafilter")


# A connector cycle between regular a and b, and a free q whose only target
# is itself.
LOOP2 = (
    "graph loop2\nregular a\nvertex u\nedge e1: u -> u\nedge e2: u -> u\n"
    "connector c1: u -> w\nregular b\nvertex w\nedge f1: w -> w\nedge f2: w -> w\n"
    "connector c2: w -> u\nfree q k=1\nX 1 -> q\n"
)
# A connector 4-cycle of free primes.
CYCLE4 = (
    "graph c4\nfree p0 k=1\nX 1 -> p3\nfree p1 k=1\nX 1 -> p0\n"
    "free p2 k=1\nX 1 -> p1\nfree p3 k=1\nX 1 -> p2\n"
)


@pytest.mark.parametrize("argv,expected", [
    # every violation, in the order of the conditions
    (("validate", LOOP2), (1, "connector target strictly lower: q -> q\n"
                              "(I, <=) antisymmetric: a ~ b\n(I, <=) antisymmetric: b ~ a\n"
                              "k(p)=0 iff p minimal: q", "")),
    # an opening c-path, a folded middle and a closing starred c-path
    (("normalize", G3, "a:p.1 b:p.1.1 e:f1* e:f1 b:p.1.1* a:p.1*"),
     (0, "a:p.1 b:p.1.1 b:p.1.1* a:p.1*", "")),
    (("normalize", G3, "a:p.1 b:p.1.1 e:f1* e:f2 b:p.1.1*"), (0, "0", "")),
    # products across g3's connector from free p to regular w: a regular
    # body, a free body translated through the connector, and a t-part
    (("mul", G3, "e:f1* b:p.1.1* a:p.1*", "a:p.1 b:p.1.1 e:f1 e:f2"), (0, "e:f2", "")),
    (("mul", G3, "a:p.1* a:p.1 a:p.1*", "a:p.1 b:p.1.1 e:f1"), (0, "b:p.1.1 e:f1", "")),
    (("mul", G3, "e:f1* b:p.1.1*", "b:p.1.1 e:f1 t:w.1"), (0, "t:w.1", "")),
    # a monomial with a t-part or loops translated through g1's connector,
    # each way round, leaving its t-part to the kept monomial's
    (("mul", G1, "t:p.1 a:p.2", "b:p.1.1"), (0, "b:p.1.1 t:q1.1 t:q1.2", "")),
    (("mul", G1, "b:p.1.1*", "t:p.1 a:p.2"), (0, "t:q1.1 t:q1.2 b:p.1.1*", "")),
    (("mul", G1, "a:p.1 t:p.2", "b:p.1.1 t:q1.1"), (0, "a:p.1 b:p.1.1 t:q1.1 t:q1.3", "")),
    # q1 <= p: p's first expansion p + q1 lies above q1, so z = p
    (("monoid-leq", G1, "a:q1", "a:p"), (0, "Yes\na:p", "")),
    # p + q1 = p: the refinement witness
    (("refine", G1, "a:p", "a:q1", "a:p", "0"), (0, "Yes\na:p\n0\na:q1\n0", "")),
    # one loop count too many at g3's p (k = 1)
    (("filter-contains", G3, "[v:p] ; free(1,2)", "v:p"),
     (65, "", "error: free prime needs a loop-count tail")),
    # a path outside the source cylinder of s has no germ
    (("germ", G2, "e:f1 e:f2*", "[v:w] ; reg( ; f1)"),
     (65, "", "error: x is not in the source cylinder of s")),
])
def test_command_output(capsys, tmp_path, argv, expected):
    cmd, graph, *words = argv
    if "\n" in graph:
        (tmp_path / "graph.sg").write_text(graph)
        graph = str(tmp_path / "graph.sg")
    assert run(capsys, cmd, graph, *words) == expected


def test_validate_does_not_depend_on_the_hash_seed(tmp_path):
    # the twelve antisymmetry pairs of the 4-cycle, in declaration order,
    # from a fresh interpreter under two hash seeds
    graph = tmp_path / "c4.sg"
    graph.write_text(CYCLE4)
    src = pathlib.Path(sepgroid.__file__).resolve().parents[1]
    outs = set()
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(src))
        proc = subprocess.run([sys.executable, "-m", "sepgroid.cli", "validate", str(graph)],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 1 and not proc.stderr
        outs.add(proc.stdout)
    (out,) = outs
    assert out.splitlines() == [f"(I, <=) antisymmetric: p{i} ~ p{j}"
                                for i in range(4) for j in range(4) if i != j]
