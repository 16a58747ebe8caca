"""Tests for the benchmark itself: run with `python3 -m pytest perfbench -q`.

They check that the generators are deterministic and produce adaptable
graphs, that every workload's checker rejects a corrupted output, and that
the metric names the benchmark prints are the ones BENCHMARK.json names.
"""

import dataclasses
import json
import os
import random
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests"), BENCH]

import gen  # noqa: E402
import workloads as W  # noqa: E402
from sepgroid import groupoid as gp  # noqa: E402
from sepgroid import lattice as lt  # noqa: E402
from sepgroid import monoid as mn  # noqa: E402
from sepgroid import semigroup as sg  # noqa: E402
from sepgroid.graph import parse_graph, validate_adaptable  # noqa: E402

SHAPES = (gen.tower_graph, gen.regular_graph, gen.mixed_graph)


def _bench_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("shape", SHAPES)
def test_graph_text_is_a_function_of_the_tag(shape):
    assert shape("7-1").text() == shape("7-1").text()
    assert shape("7-1").text() != shape("8-1").text()


@pytest.mark.parametrize("shape", SHAPES)
def test_generated_graphs_are_adaptable(shape):
    for tag in ("1-0", "2-3", "17-5"):
        spec = shape(tag)
        g = parse_graph(spec.text())
        assert validate_adaptable(g) == []
        assert spec.sizes()["vertices"] == len(g.vertex_prime)
        assert spec.sizes()["primes"] == len(g.primes)


@pytest.mark.parametrize("wl", list(W.WORKLOADS.values()), ids=list(W.WORKLOADS))
def test_inputs_are_a_function_of_the_seed(wl):
    def draw(seed):
        spec = wl.shape("3-0")
        st = wl.setup(spec, spec.text())
        it = wl.inputs(st, random.Random(seed))
        return [next(it) for _ in range(20)]

    assert draw("a") == draw("a")
    assert draw("a") != draw("b")


def test_word_stream_has_no_repeats():
    spec = gen.tower_graph("1-0")
    stream = gen.WordStream(spec, random.Random(0))
    words = [stream.next() for _ in range(500)]
    assert len(set(words)) == len(words)


def test_zipf_ranks_follow_their_weights():
    n, draws = 12, 1200
    ranks = W.zipf_ranks(random.Random(5), n)
    counts = [0] * n
    for _ in range(draws):
        counts[next(ranks)] += 1
    weights = [1.0 / (r + 1) ** 0.8 for r in range(n)]
    for c, w in zip(counts, weights):
        assert abs(c - draws * w / sum(weights)) <= 2


def test_germs_scan_has_a_fixed_size():
    wl = W.WORKLOADS["germs"]
    for tag in ("1-0", "2-5"):
        spec = wl.shape(tag)
        st = wl.setup(spec, spec.text())
        assert len(st.pool) > wl.scan
        wl.prepare(st, random.Random(tag))
        assert len(st.scan) == wl.scan and set(map(repr, st.scan)) <= set(map(repr, st.pool))


def _first_output(wl, accept, tag="1-0", limit=500):
    """Set up wl on one graph and run operations until accept(inp, out)."""
    spec = wl.shape(tag)
    st = wl.setup(spec, spec.text())
    wl.prepare(st, random.Random(tag))
    it = wl.inputs(st, random.Random(tag))
    for i in range(limit):
        inp = next(it)
        out = wl.run(st, inp)
        wl.check(st, inp, out, i)
        if accept(inp, out):
            return st, inp, out, i
    raise AssertionError("no suitable operation found")


def test_words_check_rejects_a_wrong_normal_form():
    wl = W.WORKLOADS["words"]
    st, w, out, i = _first_output(
        wl, lambda w, out: not sg.is_zero(out[3]) and not sg.is_idempotent(out[0])
    )
    e, text, prev, p, ps = out
    other = sg.parse_word(st.g, text + " " + text)
    if other == e:
        other = sg.star(st.g, e)
    assert other != e
    with pytest.raises(W.CheckFailed):
        wl.check(st, w, (other, text, prev, p, ps), i)
    with pytest.raises(W.CheckFailed):
        wl.check(st, w, (e, text, prev, p, sg.ZERO), i)


def test_words_oracle_rejects_a_wrong_serialization():
    wl = W.WORKLOADS["words"]
    st, w, out, i = _first_output(
        wl, lambda w, out: not sg.is_zero(out[0]) and not sg.is_idempotent(out[0])
    )
    e, text, prev, p, ps = out
    bad = sg.star(st.g, e)
    assert bad != e
    # The checker compares the oracle's normal form of the input word with
    # that of the serialization; a different element must be caught even
    # if the serialization is self-consistent.
    with pytest.raises(W.CheckFailed):
        wl.check(st, w, (bad, sg.element_to_word(st.g, bad), prev,
                         sg.mul(st.g, prev, bad), sg.star(st.g, sg.mul(st.g, prev, bad))), 0)


def test_cylinders_check_rejects_a_wrong_union():
    wl = W.WORKLOADS["cylinders"]
    st, inp, out, i = _first_output(
        wl, lambda inp, out: inp[0] == "algebra" and len(out[4].cyls) >= 1
    )
    a, b, diff, meet, union, text = out
    short = lt.CompactOpen(union.cyls[1:])
    with pytest.raises(W.CheckFailed):
        wl.check(st, inp, (a, b, diff, meet, short, text), i)


def test_cylinders_check_rejects_a_wrong_script():
    wl = W.WORKLOADS["cylinders"]
    st, inp, out, i = _first_output(
        wl, lambda inp, out: inp[0] == "script" and len(out[2]) >= 2
    )
    e, sigma, script = out
    with pytest.raises(W.CheckFailed):
        wl.check(st, inp, (e, sigma, script[:-1]), i)


def test_cylinders_check_rejects_a_non_orthogonal_result():
    wl = W.WORKLOADS["cylinders"]
    st, inp, out, i = _first_output(wl, lambda inp, out: inp[0] == "orthogonalize")
    e, sigma, res = out
    with pytest.raises(W.CheckFailed):
        wl.check(st, inp, (e, sigma, list(res) + [e]), i)


def test_equidecompose_check_rejects_a_swapped_certificate():
    wl = W.WORKLOADS["equidecompose"]
    st, inp, out, i = _first_output(
        wl, lambda inp, out: isinstance(out[3], mn.EquidecompCertificate)
        and len(out[3].elements) >= 2
    )
    a, b, eq, cert = out
    els = list(cert.elements)
    els[0], els[1] = els[1], els[0]
    bad = dataclasses.replace(cert, elements=tuple(els))
    with pytest.raises(W.CheckFailed):
        wl.check(st, inp, (a, b, eq, bad), i)


def test_equidecompose_check_rejects_unknown_on_an_equal_pair():
    wl = W.WORKLOADS["equidecompose"]
    st, inp, out, i = _first_output(wl, lambda inp, out: inp[0])
    a, b, eq, cert = out
    with pytest.raises(W.CheckFailed):
        wl.check(st, inp, (a, b, eq, mn.Unknown()), i)
    with pytest.raises(W.CheckFailed):
        wl.check(st, inp, (a, b, mn.Unknown(), cert), i)


def test_germs_check_rejects_broken_laws():
    wl = W.WORKLOADS["germs"]
    st, inp, out, i = _first_output(
        wl, lambda inp, out: out[1] is not None and len(out[3]) >= 1
    )
    s, germ, batch, member, laws, paths = out
    in_own, loop, unit_x = laws
    flipped = (not member[0],) + member[1:]
    with pytest.raises(W.CheckFailed):
        wl.check(st, inp, (s, germ, batch, flipped, laws, paths), i)
    with pytest.raises(W.CheckFailed):
        wl.check(st, inp, (s, germ, batch, member, (False, loop, unit_x), paths), i)
    shifted = dataclasses.replace(
        germ, weight=gp.weight_add(germ.weight, gp.GermWeight((), (1,)))
    )
    with pytest.raises(W.CheckFailed):
        wl.check(st, inp, (s, shifted, batch, member, laws, paths), i)
    with pytest.raises(W.CheckFailed):
        wl.check(st, inp, (s, germ, batch, member, laws, paths[::-1] + ("x",)), i)


def _run(args, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py")] + args
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def test_printed_end_to_end_metrics_match_benchmark_json():
    spec = _bench_spec()
    proc = _run(["--workload", "words", "--seed", "3", "--seconds", "0.5", "--trace", "0"])
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want


def test_printed_per_layer_metrics_match_benchmark_json():
    spec = _bench_spec()
    proc = _run(["--workload", "germs", "--seed", "3", "--seconds", "1", "--trace", "1"])
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    want = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    assert res["metrics"]["filters.filter_contains.calls"]["value"] > 0


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in _bench_spec()["workloads"]] == list(W.WORKLOADS)


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "words", "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=str(tmp_path))
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout
