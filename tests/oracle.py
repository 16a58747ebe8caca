"""Independent brute-force word normalizer.

Applies the defining relations of the semigroup token by token, with no
knowledge of the triple normal form or its bookkeeping: vertices are
absorbed, star-edge pairs cancel within a separation class, t-variables
migrate to the boundary between plain and starred tokens (picking up
index shifts when they cross connectors), and loop blocks are sorted.
Used as a cross-check oracle for parse_word / mul."""

from sepgroid.graph import InternalEdge, SeparatedGraph
from sepgroid.semigroup import WordError

ZERO = "ZERO"
ITER_CAP = 100_000


# Tokens:
#   ("v", vertex)
#   ("a", p, i, starred)
#   ("b", p, i, t, starred)
#   ("e", name, starred)            internal edge or regular connector
#   ("t", vertex, index, exponent)


def tokenize(g: SeparatedGraph, text: str):
    out = []
    for tok in text.split():
        if tok == "0":
            return ZERO
        kind, body = tok.split(":", 1)
        starred = body.endswith("*")
        if starred:
            body = body[:-1]
        if kind == "v":
            out.append(("v", body))
        elif kind == "e":
            out.append(("e", body, starred))
        elif kind == "a":
            p, i = body.rsplit(".", 1)
            out.append(("a", p, int(i), starred))
        elif kind == "b":
            p, i, t = body.rsplit(".", 2)
            out.append(("b", p, int(i), int(t), starred))
        elif kind == "t":
            exp = 1
            if body.endswith("^-1"):
                body, exp = body[:-3], -1
            v, i = body.rsplit(".", 1)
            out.append(("t", v, int(i), exp))
        else:
            raise WordError(f"bad token {tok!r}")
    return out


def _ends(g: SeparatedGraph, tok):
    """(source, range) of a token as a word factor."""
    kind = tok[0]
    if kind == "v":
        return tok[1], tok[1]
    if kind == "t":
        return tok[1], tok[1]
    if kind == "a":
        _, p, i, starred = tok
        return p, p
    if kind == "b":
        _, p, i, t, starred = tok
        s, r = p, g.beta_target(p, i, t)
        return (r, s) if starred else (s, r)
    _, name, starred = tok
    e = g.edge(name)
    return (e.rng, e.src) if starred else (e.src, e.rng)


def _is_plain_edge(tok):
    return tok[0] in ("a", "b", "e") and not tok[-1]


def _is_starred_edge(tok):
    return tok[0] in ("a", "b", "e") and tok[-1]


def _sigma_drop(dropped, j):
    return j if j < dropped else j - 1


def _pair_rule(g: SeparatedGraph, x, y):
    """Rewrite the adjacent pair (x, y); returns None (no rule), ZERO, or a
    replacement list of tokens."""
    sx, rx = _ends(g, x)
    sy, ry = _ends(g, y)
    if rx != sy:
        return ZERO
    # vertex absorption
    if x[0] == "v":
        return [y]
    if y[0] == "v":
        return [x]
    # t bookkeeping
    if x[0] == "t" and x[3] == 0:
        return [("v", x[1]), y]
    if y[0] == "t" and y[3] == 0:
        return [x, ("v", y[1])]
    if x[0] == "t" and y[0] == "t":
        if x[2] == y[2]:
            return [("t", x[1], x[2], x[3] + y[3])]
        if y[2] < x[2]:
            return [y, x]
        return None
    if x[0] == "t" and _is_plain_edge(y):
        v, i, d = x[1], x[2], x[3]
        if y[0] == "a":
            return [y, x]
        if y[0] == "b":
            _, p, j, t, _ = y
            return [y, ("t", g.beta_target(p, j, t), i + g.k(p) - 1, d)]
        return [y, ("t", g.edge(y[1]).rng, i, d)]
    if _is_starred_edge(x) and y[0] == "t":
        v, i, d = y[1], y[2], y[3]
        if x[0] == "a":
            return [y, x]
        if x[0] == "b":
            _, p, j, t, _ = x
            return [("t", g.beta_target(p, j, t), i + g.k(p) - 1, d), x]
        return [("t", g.edge(x[1]).rng, i, d), x]
    # star-edge then plain edge: cancellation inside a separation class
    if _is_starred_edge(x) and _is_plain_edge(y):
        vert = sy
        if g.is_free(g.prime_of_vertex(vert)):
            if x[0] == "a" and y[0] == "a":
                if x[2] == y[2]:
                    return [("v", vert)]
                return [y, x]
            if x[0] == "a" and y[0] == "b":
                i, (p, j, t) = x[2], (y[1], y[2], y[3])
                if i == j:
                    return ZERO
                rb = g.beta_target(p, j, t)
                return [y, ("t", rb, _sigma_drop(j, i), -1)]
            if x[0] == "b" and y[0] == "b":
                if x[1:4] == y[1:4]:
                    return [("v", g.beta_target(x[1], x[2], x[3]))]
                return ZERO
            if x[0] == "b" and y[0] == "a":
                (p, j, t), i = (x[1], x[2], x[3]), y[2]
                if i == j:
                    return ZERO
                rb = g.beta_target(p, j, t)
                return [("t", rb, _sigma_drop(j, i), 1), x]
        else:
            if x[0] == "e" and y[0] == "e" and x[1] == y[1]:
                return [("v", g.edge(x[1]).rng)]
            return ZERO
    # plain-plain at a free vertex
    if _is_plain_edge(x) and _is_plain_edge(y):
        if x[0] == "a" and y[0] == "a" and y[2] < x[2]:
            return [y, x]
        if x[0] == "a" and y[0] == "b" and x[2] != y[2]:
            i, (p, j, t) = x[2], (y[1], y[2], y[3])
            rb = g.beta_target(p, j, t)
            return [y, ("t", rb, _sigma_drop(j, i), 1)]
        return None
    # starred-starred at a free vertex
    if _is_starred_edge(x) and _is_starred_edge(y):
        if x[0] == "a" and y[0] == "a" and y[2] < x[2]:
            return [y, x]
        if x[0] == "b" and y[0] == "a":
            (p, j, t), i = (x[1], x[2], x[3]), y[2]
            if i != j:
                rb = g.beta_target(p, j, t)
                return [("t", rb, _sigma_drop(j, i), -1), x]
        return None
    return None


def _run_rule(g: SeparatedGraph, word):
    """Convert a loop of a foreign class through a same-prime connector even
    when same-class loops sit in between (loops commute)."""
    for m, tok in enumerate(word):
        if tok[0] != "b":
            continue
        p, c, t, starred = tok[1], tok[2], tok[3], tok[4]
        rb = g.beta_target(p, c, t)
        if not starred:
            i = m - 1
            while i >= 0 and word[i][0] == "a" and not word[i][3]:
                if word[i][2] != c:
                    j = word[i][2]
                    return (
                        word[:i]
                        + word[i + 1 : m + 1]
                        + [("t", rb, _sigma_drop(c, j), 1)]
                        + word[m + 1 :]
                    )
                i -= 1
        else:
            i = m + 1
            while i < len(word) and word[i][0] == "a" and word[i][3]:
                if word[i][2] != c:
                    j = word[i][2]
                    return (
                        word[:m]
                        + [("t", rb, _sigma_drop(c, j), -1)]
                        + word[m:i]
                        + word[i + 1 :]
                    )
                i += 1
    return None


# _pair_rule is a pure function of (graph, token, token), so its results
# are kept per graph.  Each entry holds its graph, so that no other graph
# can take over its id; a memo grows with the token pairs of the words
# rewritten on its graph.
_PAIR_MEMOS: dict[int, tuple[SeparatedGraph, dict]] = {}
_UNSEEN = object()


def _pair_memo(g: SeparatedGraph) -> dict:
    held = _PAIR_MEMOS.get(id(g))
    if held is None:
        held = _PAIR_MEMOS[id(g)] = (g, {})
    return held[1]


def normal_form(g: SeparatedGraph, tokens):
    """Rewrite to an irreducible word, or ZERO."""
    if tokens == ZERO:
        return ZERO
    memo = _pair_memo(g)
    word = list(tokens)
    if not word:
        raise WordError("empty word")
    if len(word) == 1 and word[0][0] == "t" and word[0][3] == 0:
        return (("v", word[0][1]),)
    # Every pair left of `start` is irreducible.  A pair rewrite at idx
    # changes only the pairs from idx - 1 on, so the scan resumes there and
    # still finds the leftmost redex; the whole-word rules rescan from 0.
    start = 0
    for _ in range(ITER_CAP):
        changed = False
        for idx in range(start, len(word) - 1):
            pair = word[idx], word[idx + 1]
            res = memo.get(pair, _UNSEEN)
            if res is _UNSEEN:
                res = _pair_rule(g, *pair)
                if isinstance(res, list):  # shared from here on, so frozen
                    res = tuple(res)
                memo[pair] = res
            if res is None:
                continue
            if res == ZERO:
                return ZERO
            word[idx : idx + 2] = res
            start = max(0, idx - 1)
            changed = True
            break
        if not changed:
            start = 0
            run = _run_rule(g, word)
            if run is not None:
                word = run
                continue
            if len(word) == 1 and word[0][0] == "t" and word[0][3] == 0:
                word = [("v", word[0][1])]
                continue
            return tuple(word)
    raise RuntimeError("rewriting did not terminate")


def oracle_nf(g: SeparatedGraph, text: str):
    return normal_form(g, tokenize(g, text))
