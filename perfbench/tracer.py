"""Spans and counts around the public entry points of each loopgr layer.

Tracing lives in the benchmark, not in the library: ``install`` swaps each
traced entry point for a wrapper, on its class for methods and at every
module attribute bound to it for functions (``p1bundles.splitting_type``
calls ``h0`` through its module globals, ``extend_point`` calls
``factor_elementary`` the same way).  Spans are kept in memory and written
out at the end; ring operations are too many to keep one by one and are only
counted and timed.

Self time of a span is its duration minus the time covered by its child
spans.  Work done by a wrapper's bookkeeping is charged to no span.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

LAYERS = ("rings", "series", "loops", "cartan", "p1bundles", "factorization", "jsonio", "cli")


class Tracer:
    def __init__(self):
        self.active = False
        self.trace_id = 0
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.max_window = 0
        self.spans = []  # (trace id, span id, parent span id, name, start, end)
        self._stack = []  # (name, span id, start)
        self._last = 0.0
        self._next_id = 0
        self._inverse_seen = {}

    def start_job(self, trace_id: int) -> None:
        """Spans of one job share ``trace_id``; repeat detection is per job."""
        self.trace_id = trace_id
        self._inverse_seen.clear()

    def wrap(self, name: str, fn, keep_span: bool = True, after=None):
        tracer = self
        perf = time.perf_counter

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            start = perf()
            if stack:
                tracer.self_s[stack[-1][0]] += start - tracer._last
            tracer._next_id += 1
            frame = (name, tracer._next_id, start)
            stack.append(frame)
            tracer._last = start
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                tracer.self_s[name] += end - tracer._last
                stack.pop()
                tracer.calls[name] += 1
                if keep_span:
                    parent = stack[-1][1] if stack else 0
                    tracer.spans.append((tracer.trace_id, frame[1], parent, name, start, end))
                tracer._last = end
            if after is not None:
                after(args, kwargs, result)
                tracer._last = perf()
            return result

        traced.__wrapped__ = fn
        return traced

    # -- hooks that count work where it happens -------------------------------

    def _window(self, args, kwargs, result):
        w = result.window_length()
        if w is not None and w > self.max_window:
            self.max_window = w

    def _series_mul(self, args, kwargs, result):
        self.counts["series.mul.coeff_products"] += len(args[0].coeffs) * len(args[1].coeffs)
        self._window(args, kwargs, result)

    def _inverse(self, args, kwargs, result):
        loop = args[0]
        precision = args[1] if len(args) > 1 else kwargs.get("precision")
        key = (id(loop), precision)
        if key in self._inverse_seen:
            self.counts["loops.inverse.repeats"] += 1
        else:
            self._inverse_seen[key] = loop  # pinned so the id is not reused

    def _factors(self, args, kwargs, result):
        self.counts["factorization.factors"] += len(result)

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for trace_id, span_id, parent, name, start, end in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "trace": trace_id,
                            "span": span_id,
                            "parent": parent,
                            "name": name,
                            "start": start,
                            "end": end,
                        }
                    )
                    + "\n"
                )


def install(tracer: Tracer):
    """Wrap every traced entry point; returns a function that undoes it."""
    from loopgr import cartan, factorization, jsonio, loops, p1bundles, rings, series

    undo = []

    def method(cls, attr, name, **kw):
        raw = cls.__dict__[attr]
        if isinstance(raw, staticmethod):
            new = staticmethod(tracer.wrap(name, raw.__func__, **kw))
        else:
            new = tracer.wrap(name, raw, **kw)
        undo.append((cls, attr, raw))
        setattr(cls, attr, new)

    def function(module, attr, name, **kw):
        orig = getattr(module, attr)
        new = tracer.wrap(name, orig, **kw)
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("loopgr"):
                continue
            for key, val in list(vars(mod).items()):
                if val is orig:
                    undo.append((mod, key, orig))
                    setattr(mod, key, new)

    for cls, tag in (
        (rings.RationalField, "qq"),
        (rings.PrimeField, "gf"),
        (rings.ArtinianRing, "art"),
    ):
        for op in ("add", "neg", "mul", "inv"):
            method(cls, op, f"rings.{tag}.{op}", keep_span=False)

    LS = series.LaurentSeries
    method(LS, "mul", "series.mul", after=tracer._series_mul)
    method(LS, "add", "series.add", after=tracer._window)
    method(LS, "invert", "series.invert", after=tracer._window)
    method(LS, "div", "series.div", after=tracer._window)

    LM = loops.LoopMatrix
    method(LM, "mat_mul", "loops.mat_mul")
    method(LM, "det", "loops.det")
    method(LM, "inverse", "loops.inverse", after=tracer._inverse)
    method(LM, "is_positive", "loops.is_positive")
    method(LM, "pole_bound", "loops.pole_bound")

    function(cartan, "smith_normal_form", "cartan.smith_normal_form")
    function(p1bundles, "splitting_type", "p1bundles.splitting_type")
    function(p1bundles, "h0", "p1bundles.h0")
    function(factorization, "factor_elementary", "factorization.factor_elementary", after=tracer._factors)
    function(factorization, "lift_factorization", "factorization.lift_factorization")
    function(factorization, "extend_point", "factorization.extend_point")

    for attr in sorted(vars(jsonio)):
        if attr.endswith("_from_json"):
            function(jsonio, attr, "jsonio.parse")
        elif attr.endswith("_to_json"):
            function(jsonio, attr, "jsonio.emit")

    def restore():
        for owner, attr, orig in reversed(undo):
            setattr(owner, attr, orig)

    return restore


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer counts and self times, as metric name -> value."""
    calls, self_s = tracer.calls, tracer.self_s

    def total(prefix, table):
        return sum(v for k, v in table.items() if k.startswith(prefix))

    out = {
        "rings.qq.ops": total("rings.qq.", calls),
        "rings.gf.ops": total("rings.gf.", calls),
        "rings.art.ops": total("rings.art.", calls),
        "series.mul.coeff_products": tracer.counts["series.mul.coeff_products"],
        "series.div.calls": calls["series.div"],
        "series.max_window": tracer.max_window,
        "loops.det_per_mat_mul": _ratio(calls["loops.det"], calls["loops.mat_mul"]),
        "loops.inverse.repeat_ratio": _ratio(
            tracer.counts["loops.inverse.repeats"], calls["loops.inverse"]
        ),
        "loops.is_positive.self_s": self_s["loops.is_positive"],
        "loops.pole_bound.self_s": self_s["loops.pole_bound"],
        "p1bundles.h0_per_splitting": _ratio(
            calls["p1bundles.h0"], calls["p1bundles.splitting_type"]
        ),
        "factorization.factors_per_loop": _ratio(
            tracer.counts["factorization.factors"], calls["factorization.factor_elementary"]
        ),
        "factorization.lift_factorization.self_s": self_s["factorization.lift_factorization"],
        "factorization.extend_point.self_s": self_s["factorization.extend_point"],
        "jsonio.parse.self_s": self_s["jsonio.parse"],
        "jsonio.emit.self_s": self_s["jsonio.emit"],
    }
    for name in (
        "series.mul",
        "series.add",
        "series.invert",
        "loops.mat_mul",
        "loops.det",
        "loops.inverse",
        "cartan.smith_normal_form",
        "p1bundles.splitting_type",
        "p1bundles.h0",
        "factorization.factor_elementary",
    ):
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
    by_layer = {
        layer: sum(v for k, v in self_s.items() if k.split(".")[0] == layer) for layer in LAYERS
    }
    traced = sum(by_layer.values())
    for layer in LAYERS:
        out[f"share.{layer}"] = _ratio(by_layer[layer], traced)
    out["trace.layer_self_s"] = traced
    return out
