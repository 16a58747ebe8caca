"""Per-layer tracing from outside the program, on a `sys.setprofile` hook.

The layers are the modules of the sepgroid package.  A span opens whenever
a call enters a layer other than the one currently running (the
benchmark's own code counts as no layer) and closes when that frame
returns.  A layer's self time is the time its spans cover minus the time
their child spans cover.  Calls are counted per function on every call,
and per layer only when a public function is entered from outside the
layer.  A few functions' return values feed ratio metrics.

Full spans are kept only for the first SPAN_OPS traced operations, up to
MAX_SPANS, and written out by `dump`.
"""

from __future__ import annotations

import json
import os
import sys
from time import perf_counter

LAYERS = ("graph", "semigroup", "lattice", "filters", "groupoid", "monoid", "cli")

# Per-function call counts reported as metrics (all calls, from anywhere).
COUNTED = (
    "semigroup.mul",
    "semigroup.validate_element",
    "lattice.idem_of",
    "graph.prime",
    "graph.edge",
    "graph.out_edges",
    "monoid.mon_add",
    "filters.filter_contains",
    "cli.parse_compact_open",
    "cli.parse_path",
)


def _probes():
    """(metric, unit, module, function, value of a return) for the ratio
    metrics, each the mean of its values.  A value of None leaves the return
    out of the mean."""
    from sepgroid import filters, groupoid, lattice, monoid, semigroup

    def cyls(r):
        return len(r.cyls) if isinstance(r, lattice.CompactOpen) else None

    def share(pred):
        return lambda r: None if r is None else float(pred(r))

    out = [
        ("semigroup.zero_share", "ratio", semigroup, "mul", share(semigroup.is_zero)),
        ("monoid.unknown_share", "ratio", monoid, "equidecompose",
         share(lambda r: isinstance(r, monoid.Unknown))),
        ("monoid.cert_pieces", "count", monoid, "equidecompose",
         lambda r: len(r.elements) if isinstance(r, monoid.EquidecompCertificate) else None),
        ("filters.contains_true_share", "ratio", filters, "filter_contains",
         share(lambda r: r is True)),
        ("groupoid.in_bisection.true_share", "ratio", groupoid, "in_bisection",
         share(lambda r: r is True)),
    ]
    for fn in ("co_of", "co_intersect", "co_subtract", "co_union"):
        out.append(("lattice.cyls_per_result", "count", lattice, fn, cyls))
    return out


class LayerTracer:
    SPAN_OPS = 4  # operations whose full spans are kept
    MAX_SPANS = 50_000

    def __init__(self, pkg_dir: str):
        self.pkg_dir = os.path.realpath(pkg_dir)
        self.info: dict = {}  # code -> (layer, public name or None, qualname)
        self.counts: dict = {}  # code -> calls
        self.boundary = dict.fromkeys(LAYERS, 0)
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.entry_self_s: dict[str, float] = {}  # "layer.func" -> self time
        self.ratios: dict[str, list[float]] = {}  # metric -> [sum, count]
        self.units: dict[str, str] = {}
        self.probes: dict = {}  # code -> [(metric, value of a return)]
        for metric, unit, module, fn, value in _probes():
            self.ratios.setdefault(metric, [0.0, 0])
            self.units[metric] = unit
            self.probes.setdefault(getattr(module, fn).__code__, []).append((metric, value))
        self.op_time = 0.0
        self.ops = 0
        self.spans: list[list] = []
        # Stack entries: [frame, layer, start, child time, span index, entry name]
        self.stack: list[list] = [[None, None, 0.0, 0.0, -1, None]]

    def _classify(self, code):
        d, base = os.path.split(code.co_filename)
        layer = base[:-3] if base.endswith(".py") else None
        if layer not in LAYERS or os.path.realpath(d) != self.pkg_dir:
            return (None, None, None)
        q = code.co_qualname
        name = q.rsplit(".", 1)[-1]
        public = "<" not in q and not name.startswith("_") and q.count(".") <= 1
        return (layer, f"{layer}.{name}" if public else None, f"{layer}.{q}")

    def _make_hook(self):
        info, counts, stack = self.info, self.counts, self.stack
        boundary, self_s, entry_self_s = self.boundary, self.self_s, self.entry_self_s
        probes, ratios, spans = self.probes, self.ratios, self.spans
        classify = self._classify
        sampling = self.ops < self.SPAN_OPS
        op, max_spans = self.ops, self.MAX_SPANS

        def hook(frame, event, arg):
            if event == "call":
                code = frame.f_code
                counts[code] = counts.get(code, 0) + 1
                ci = info.get(code)
                if ci is None:
                    ci = info[code] = classify(code)
                layer = ci[0]
                if layer is not None and layer != stack[-1][1]:
                    if ci[1] is not None:
                        boundary[layer] += 1
                    now = perf_counter()
                    idx = -1
                    if sampling and len(spans) < max_spans:
                        idx = len(spans)
                        spans.append([op, stack[-1][4], layer, ci[2], now, None])
                    stack.append([frame, layer, now, 0.0, idx, ci[2]])
            elif event == "return":
                top = stack[-1]
                if top[0] is frame:
                    now = perf_counter()
                    stack.pop()
                    dur = now - top[2]
                    own = dur - top[3]
                    self_s[top[1]] += own
                    entry_self_s[top[5]] = entry_self_s.get(top[5], 0.0) + own
                    stack[-1][3] += dur
                    if top[4] >= 0:
                        spans[top[4]][5] = now
                pr = probes.get(frame.f_code)
                if pr is not None and arg is not None:
                    for metric, value in pr:
                        v = value(arg)
                        if v is not None:
                            acc = ratios[metric]
                            acc[0] += v
                            acc[1] += 1

        return hook

    def run(self, fn, *args):
        """Call fn(*args) with the hook installed; returns (result, seconds).
        An exception from fn propagates after the hook is removed."""
        hook = self._make_hook()
        t0 = perf_counter()
        sys.setprofile(hook)
        try:
            out = fn(*args)
        finally:
            sys.setprofile(None)
            dt = perf_counter() - t0
            self.op_time += dt
            self.ops += 1
            del self.stack[1:]
        return out, dt

    def calls_of(self, public_name: str) -> int:
        return sum(
            n for code, n in self.counts.items() if self.info[code][1] == public_name
        )

    def metrics(self) -> dict[str, tuple[float, str]]:
        out: dict[str, tuple[float, str]] = {}
        total = self.op_time or 1.0
        for layer in LAYERS:
            out[f"{layer}.calls"] = (self.boundary[layer], "count")
            out[f"{layer}.self_s"] = (self.self_s[layer], "s")
            out[f"{layer}.self_share"] = (self.self_s[layer] / total, "ratio")
        for name in COUNTED:
            out[f"{name}.calls"] = (self.calls_of(name), "count")
        for metric, (s, n) in self.ratios.items():
            out[metric] = (s / n if n else 0.0, self.units[metric])
        return out

    def dump(self, path: str, meta: dict) -> None:
        """Write the sampled spans and the per-entry-function self times."""
        doc = dict(meta)
        doc["span_fields"] = ["op", "parent", "layer", "function", "start", "end"]
        doc["spans"] = self.spans
        doc["entry_self_s"] = dict(
            sorted(self.entry_self_s.items(), key=lambda kv: -kv[1])
        )
        calls: dict[str, int] = {}
        for code, n in self.counts.items():
            layer, _, qualname = self.info[code]
            if layer is not None:
                calls[qualname] = calls.get(qualname, 0) + n
        doc["calls"] = dict(sorted(calls.items(), key=lambda kv: -kv[1]))
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
