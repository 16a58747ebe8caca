"""Command-line interface: graph validation, word normalization, cylinder
algebra, filters, germs, and monoid computations.

Exit codes: 0 success/Yes/true, 1 No/false, 2 Unknown, 64 usage error (the
command line's shape: argument count, unknown command or option, negative
bound), 65 anything wrong inside an argument (an unreadable or non-adaptable
graph, a malformed word or literal), 70 internal error (an unexpected exception).

Each subcommand is one entry of `COMMANDS`: its usage line and its handler.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import filters as fl
from . import groupoid as gp
from . import lattice as lt
from . import monoid as mn
from . import semigroup as sg
from .graph import GraphError, SeparatedGraph, parse_graph, validate_adaptable


class UsageError(Exception):
    pass


# -- literals ------------------------------------------------------------


def parse_compact_open(g: SeparatedGraph, text: str) -> lt.CompactOpen:
    """`Z(<word>)` combined with `&` (intersect), `-` (subtract), `+`
    (union) and parentheses; `&` binds tighter."""
    tokens = _co_tokens(text)
    pos = [0]

    def peek():
        return tokens[pos[0]] if pos[0] < len(tokens) else None

    def eat(tok=None):
        t = peek()
        if t is None or (tok is not None and t != tok):
            raise lt.LatticeError(f"compact-open syntax error near token {t!r}")
        pos[0] += 1
        return t

    def atom(depth):
        t = peek()
        if t == "(":
            if depth == 100:  # each bare parenthesis costs three Python frames
                raise lt.LatticeError("parentheses nested deeper than 100")
            eat("(")
            out = expr(depth + 1)
            eat(")")
            return out
        if isinstance(t, tuple) and t[0] == "Z":
            eat()
            e = sg.parse_word(g, t[1])
            if sg.is_zero(e):
                return lt.CompactOpen(())
            return lt.CompactOpen((lt.epath_of(g, e),))
        raise lt.LatticeError(f"expected Z(...) or parenthesis, got {t!r}")

    def factor(depth):
        out = atom(depth)
        while peek() == "&":
            eat("&")
            out = lt.co_intersect(g, out, atom(depth))
        return out

    def expr(depth):
        out = factor(depth)
        while peek() in ("+", "-"):
            op = eat()
            rhs = factor(depth)
            out = (lt.co_union if op == "+" else lt.co_subtract)(g, out, rhs)
        return out

    out = expr(0)
    if pos[0] != len(tokens):
        raise lt.LatticeError(f"trailing tokens in compact-open expression {text!r}")
    return out


def _co_tokens(text: str):
    out = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
        elif c in "()&+-":
            out.append(c)
            i += 1
        elif text.startswith("Z(", i):
            # Jump from `)` to `)`: the opening parentheses passed on the
            # way raise the depth, each `)` lowers it by one.
            depth = 1
            j = i + 2
            while depth:
                close = text.find(")", j)
                if close < 0:
                    raise lt.LatticeError("unbalanced Z(...)")
                depth += text.count("(", j, close) - 1
                j = close + 1
            out.append(("Z", text[i + 2 : j - 1].strip()))
            i = j
        else:
            raise lt.LatticeError(f"bad character {c!r} in compact-open expression")
    return out


def format_compact_open(g: SeparatedGraph, a: lt.CompactOpen) -> str:
    if lt.co_is_empty(a):
        return "(empty)"
    return " + ".join(
        f"Z({sg.element_to_word(g, lt.trusted_idem(g, mu))})" for mu in a.cyls
    )


def parse_path(g: SeparatedGraph, text: str) -> lt.EPath:
    """`[<word>] ; free(k1,...|inf entries)` or `[<word>] ; reg(rho ; c)`."""
    text = text.strip()
    if not text.startswith("["):
        raise fl.FilterError("path literal must start with [<word>]")
    close = text.find("]")
    if close < 0:
        raise fl.FilterError("path literal has no closing ]")
    word = text[1:close].strip()
    rest = text[close + 1 :].strip()
    if not rest.startswith(";"):
        raise fl.FilterError("path literal needs `; <tail>`")
    tail_spec = rest[1:].strip()
    e = sg.parse_word(g, word)
    if sg.is_zero(e) or e.eta.steps or e.m != sg.t_monomial(g, {}, e.m.p):
        raise fl.FilterError("path prefix word must denote a descending path")
    gamma, p = e.gamma, e.m.p
    free = tail_spec.startswith("free(")
    if not (free or tail_spec.startswith("reg(")) or not tail_spec.endswith(")"):
        raise fl.FilterError("path tail must be free(...) or reg(...)")
    # Only the literal shows the tail's kind: validate_tail would take
    # `free()` at a regular prime for the empty path, and `reg( ; )` at a
    # point prime (k = 0) for the empty loop-count tail.
    if free != (p in g.free_k):
        raise fl.FilterError(
            "regular prime needs a path tail" if free else "free prime needs a loop-count tail"
        )
    if free:
        inner = tail_spec[5:-1].strip()
        try:
            tail = tuple(fl.INF if x == "inf" else int(x) for x in _tail_entries("free", inner))
        except ValueError:
            raise fl.FilterError(f"bad free tail entries {inner!r}") from None
    else:
        rho_s, _, cyc_s = tail_spec[4:-1].partition(";")
        rho, cyc = _tail_entries("reg", rho_s), _tail_entries("reg", cyc_s)
        tail = fl.PerTail(rho, cyc) if cyc else rho
    mu = lt.EPath(gamma, p, tail)
    fl.validate_tail(g, mu)  # parse_word has checked the prefix
    return mu


def _tail_entries(kind: str, side: str) -> tuple[str, ...]:
    """One side of a tail literal: blank is the empty tuple, and otherwise
    every comma-separated entry is nonempty."""
    entries = tuple(x.strip() for x in side.split(",")) if side.strip() else ()
    if "" in entries:
        raise fl.FilterError(f"bad {kind} tail entries {side.strip()!r}")
    return entries


def format_path(g: SeparatedGraph, mu: lt.EPath) -> str:
    prefix = " ".join(sg.cpath_tokens(mu.gamma)) or f"v:{mu.gamma.start}"
    if mu.p in g.free_k:
        inner = ",".join("inf" if x == fl.INF else str(x) for x in mu.tail)
        return f"[{prefix}] ; free({inner})"
    per = isinstance(mu.tail, fl.PerTail)
    rho, cyc = (mu.tail.prefix, mu.tail.cycle) if per else (mu.tail, ())
    return f"[{prefix}] ; reg({','.join(rho)} ; {','.join(cyc)})"


def format_germ(g: SeparatedGraph, germ: gp.Germ) -> str:
    n1 = ",".join(f"{i}:{d}" for i, d in germ.weight.n1) or "0"
    n2 = ",".join(str(x) for x in germ.weight.n2) or "0"
    return (
        f"({format_path(g, germ.x)} ; {n1} ; {n2} ; {format_path(g, germ.y)})"
    )


def parse_script(text: str) -> lt.Script:
    """Expansion scripts: whitespace-separated `pos` or `pos:choice` items."""
    out: lt.Script = []
    try:
        for item in text.split():
            if ":" in item:
                p, c = item.split(":", 1)
                out.append((int(p), int(c)))
            else:
                out.append((int(item), None))
    except ValueError:
        raise lt.LatticeError(f"bad expansion script {text!r}") from None
    return out


def format_script(script: lt.Script) -> str:
    return " ".join(f"{p}:{c}" if c is not None else str(p) for p, c in script)


# -- dispatch ------------------------------------------------------------


def _load(path: str) -> SeparatedGraph:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise GraphError(f"{path} is not UTF-8 text: {exc}") from None
    except OSError as exc:
        raise GraphError(f"cannot read {path}: {exc.strerror or exc}") from None
    return parse_graph(text)


def _budget(args) -> mn.Budget:
    return mn.Budget(max_states=args.max_steps, max_weight=args.max_weight)


def _emit(args, doc: dict, text_lines: list[str]) -> None:
    if args.json:
        print(json.dumps(doc, indent=2, default=str))
    else:
        for line in text_lines:
            print(line)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sepgroid",
        description="Symbolic computation for adaptable separated graphs.",
    )
    parser.add_argument("command", help="subcommand")
    parser.add_argument("args", nargs="*", help="subcommand arguments")
    parser.add_argument("--json", action="store_true")
    parser.add_argument("--max-steps", type=int, default=100_000)
    parser.add_argument("--max-weight", type=int, default=40)
    parser.add_argument("--max-depth", type=int, default=2)
    parser.add_argument("--max-exp", type=int, default=6)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 64 if exc.code else 0
    try:
        for opt in ("max_steps", "max_weight", "max_depth", "max_exp"):
            if getattr(args, opt) < 0:
                raise UsageError(f"--{opt.replace('_', '-')} must not be negative")
        return _dispatch(args)
    except BrokenPipeError:
        return 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 64
    except (GraphError, sg.WordError, fl.FilterError, lt.LatticeError,
            gp.GroupoidError, mn.MonoidError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 65
    except Exception as exc:  # noqa: BLE001 - no exit code may claim a result
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 70


def _need_rest(args, usage: str):
    """The loaded graph of the first argument and the arguments after it.
    Their count must match the names after GRAPH in `usage` (a last name
    ending in `...` takes any number), or a usage error shows the usage
    line.  Every command but `validate` computes under the adaptability
    axioms, so for those a graph that fails them is an input error."""
    rest = args.args[1:]
    n = len(usage.split()) - 1
    fits = len(rest) >= n - 1 if usage.endswith("...") else len(rest) == n
    if not args.args or not fits:
        raise UsageError(f"{args.command} {usage}")
    g = _load(args.args[0])
    violations = [] if args.command == "validate" else validate_adaptable(g)
    if violations:
        bad = "; ".join(str(v) for v in violations)
        raise GraphError(f"{args.args[0]} is not adaptable: {bad}")
    return g, rest


def _dispatch(args) -> int:
    if args.command not in COMMANDS:
        raise UsageError(f"unknown command {args.command!r}")
    usage, handler = COMMANDS[args.command]
    g, rest = _need_rest(args, usage)
    result, lines, code = handler(args, g, *rest)
    _emit(args, {"command": args.command, "inputs": args.args, "result": result}, lines)
    return code


# -- commands ------------------------------------------------------------
# Each handler takes the parsed options, the graph and the command's other
# arguments, and returns (the JSON result, the text lines, the exit code).


def _flag(ok: bool, yes_text: str, no_text: str):
    return ok, [yes_text if ok else no_text], 0 if ok else 1


def _answer(res, lines=(), **payload):
    """A monoid answer: No exits 1 and Unknown exits 2, each with its status
    alone in the text (JSON adds an Unknown's reason); anything else is a
    Yes that exits 0, with `lines` after "Yes" in the text and `payload`
    beside the status in JSON."""
    if isinstance(res, mn.No):
        return {"status": "No"}, ["No"], 1
    if isinstance(res, mn.Unknown):
        return {"status": "Unknown", "reason": res.reason}, ["Unknown"], 2
    return {"status": "Yes", **payload}, ["Yes", *lines], 0


def _validate(args, g):
    violations = [str(v) for v in validate_adaptable(g)]
    return violations, violations or ["ok"], 1 if violations else 0


def _normalize(args, g, word):
    out = sg.element_to_word(g, sg.parse_word(g, word))
    return out, [out], 0


def _mul(args, g, w1, w2):
    out = sg.element_to_word(g, sg.mul(g, sg.parse_word(g, w1), sg.parse_word(g, w2)))
    return out, [out], 0


def _idempotents(args, g):
    bounds = lt.Bounds(max_depth=args.max_depth, max_exp=args.max_exp)
    words = [sg.element_to_word(g, e) for e in lt.enumerate_idempotents(g, bounds)]
    return words, words, 0


def _expand(args, g, word, script):
    out = lt.expand(g, sg.parse_word(g, word), parse_script(script))
    words = [sg.element_to_word(g, x) for x in out]
    return words, words, 0


def _cover_check(args, g, word, *members):
    e = sg.parse_word(g, word)
    ok = lt.is_orthogonal_cover(g, e, [sg.parse_word(g, w) for w in members])
    return _flag(ok, "orthogonal cover", "not an orthogonal cover")


def _cover_to_expansion(args, g, word, *members):
    e = sg.parse_word(g, word)
    out = format_script(lt.cover_to_expansion(g, e, [sg.parse_word(g, w) for w in members]))
    return out, [out if out else "(empty script)"], 0


def _cylinders(args, g, expr):
    a = parse_compact_open(g, expr)
    out = format_compact_open(g, a)
    return out, [out], 1 if lt.co_is_empty(a) else 0


def _filter_contains(args, g, path_lit, word):
    ok = fl.filter_contains(g, parse_path(g, path_lit), sg.parse_word(g, word))
    return _flag(ok, "yes", "no")


def _ultrafilter(args, g, path_lit):
    ok = fl.is_ultrafilter(g, parse_path(g, path_lit))
    return _flag(ok, "ultrafilter", "not an ultrafilter")


def _germ(args, g, word, path_lit):
    germ = gp.germ_of(g, sg.parse_word(g, word), parse_path(g, path_lit))
    out = format_germ(g, germ)
    return out, [out], 0


def _bisection_check(args, g, *words):
    ok = gp.is_bisection_family(g, [sg.parse_word(g, w) for w in words])
    return _flag(ok, "bisection family", "not a bisection family")


def _monoid_eq(args, g, *specs):
    x, y = (mn.parse_monelem(g, s) for s in specs)
    res = mn.mon_eq(mn.presentation(g), x, y, _budget(args))
    if not isinstance(res, mn.Yes):
        return _answer(res)
    path = [mn.format_monelem(m) for m in res.path]
    return _answer(res, path, path=path)


def _monoid_leq(args, g, *specs):
    x, y = (mn.parse_monelem(g, s) for s in specs)
    res = mn.mon_leq(mn.presentation(g), x, y, _budget(args))
    if not isinstance(res, mn.Yes):
        return _answer(res)
    z = mn.format_monelem(res.path[0])
    return _answer(res, [z], z=z)


def _refine(args, g, *specs):
    a, b, c, d = (mn.parse_monelem(g, s) for s in specs)
    res = mn.refinement_witness(mn.presentation(g), a, b, c, d, _budget(args))
    if isinstance(res, mn.Unknown):
        return _answer(res)
    witness = [mn.format_monelem(m) for m in res]
    return _answer(res, witness, witness=witness)


def _typ(args, g, expr):
    out = mn.format_monelem(mn.typ_of(g, parse_compact_open(g, expr)))
    return out, [out], 0


def _equidecompose(args, g, a_s, b_s):
    a, b = parse_compact_open(g, a_s), parse_compact_open(g, b_s)
    cert = mn.equidecompose(g, a, b, _budget(args))
    if isinstance(cert, mn.Unknown):
        # types proven unequal are a No; any other Unknown names its limit
        return _answer(mn.No() if cert.reason == "types unequal" else cert)
    entries = [
        {"element": sg.element_to_word(g, s), "source": sg.element_to_word(g, src),
         "range": sg.element_to_word(g, rng)}
        for s, src, rng in zip(cert.elements, cert.sources, cert.ranges)
    ]
    lines = [f"{e['element']}  [{e['source']} -> {e['range']}]" for e in entries]
    return _answer(cert, lines, certificate=entries)


# name -> (usage after the name, handler), in the order of the README
COMMANDS = {
    "validate": ("GRAPH", _validate),
    "normalize": ("GRAPH WORD", _normalize),
    "mul": ("GRAPH WORD1 WORD2", _mul),
    "idempotents": ("GRAPH", _idempotents),
    "expand": ("GRAPH WORD SCRIPT", _expand),
    "cover-check": ("GRAPH WORD MEMBER...", _cover_check),
    "cover-to-expansion": ("GRAPH WORD MEMBER...", _cover_to_expansion),
    "cylinders": ("GRAPH EXPR", _cylinders),
    "filter-contains": ("GRAPH PATH WORD", _filter_contains),
    "ultrafilter": ("GRAPH PATH", _ultrafilter),
    "germ": ("GRAPH WORD PATH", _germ),
    "bisection-check": ("GRAPH WORD...", _bisection_check),
    "monoid-eq": ("GRAPH X Y", _monoid_eq),
    "monoid-leq": ("GRAPH X Y", _monoid_leq),
    "refine": ("GRAPH A B C D", _refine),
    "typ": ("GRAPH EXPR", _typ),
    "equidecompose": ("GRAPH EXPR EXPR", _equidecompose),
}


if __name__ == "__main__":
    sys.exit(main())
