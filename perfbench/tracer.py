"""Spans around cmparity's layers, installed from outside the program.

Each traced callable is one that a module of cmparity calls in another, such
as `j_numeric` as `cmparity.density`, `cmparity.enumeration` and
`cmparity.modular` see it. `install` replaces the callable in every cmparity
module namespace that binds it (and `TauExact.__init__` on the class), so
calls from inside the defining module are traced too. The program's source is
not touched.

A span is (span id, parent span id, layer, start ns, end ns, self ns); the
worker files the spans of each operation under that operation's id. Self
time is the span's duration minus the durations of its child spans, kept on a
stack while the span is open.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (layer, module, attribute); a dotted attribute is a method of a class
TARGETS = (
    ("cli", "cmparity.cli", "main"),
    ("density", "cmparity.density", "sample_odd"),
    ("density", "cmparity.density", "sample_complex"),
    ("density.emit", "cmparity.density", "emit"),
    ("modular.j_numeric", "cmparity.modular", "j_numeric"),
    ("modular.is_real_j", "cmparity.modular", "is_real_j"),
    ("modular.t_representative", "cmparity.modular", "t_representative"),
    ("cmpoints.TauExact", "cmparity.cmpoints", "TauExact.__init__"),
    ("cmpoints.parity_of_tau", "cmparity.cmpoints", "parity_of_tau"),
    ("isogenies.moebius", "cmparity.isogenies", "moebius"),
    ("isogenies.odd_isogeny", "cmparity.isogenies", "odd_isogeny"),
    ("isogenies.in_odd_group", "cmparity.isogenies", "in_odd_group"),
    ("factorint.factorize", "cmparity.factorint", "factorize"),
    ("enumeration.enumerate_real_odd_cm", "cmparity.enumeration", "enumerate_real_odd_cm"),
    ("quadorders.order_from_discriminant", "cmparity.quadorders", "order_from_discriminant"),
)
LAYERS = tuple(dict.fromkeys(layer for layer, _, _ in TARGETS))


class Tracer:
    """Collects the spans of the current operation; `take` hands them over."""

    def __init__(self):
        self._spans: list[tuple[int, int, int, int, int, int]] = []
        self._stack = [[-1, 0]]  # [span id, child ns] of each open span
        self._next_id = 0

    def install(self) -> None:
        for layer, module_name, attr in TARGETS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, method, self._wrap(LAYERS.index(layer), getattr(cls, method)))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(LAYERS.index(layer), original)
            for name, mod in list(sys.modules.items()):
                if name == "cmparity" or name.startswith("cmparity."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapped)

    def _wrap(self, layer: int, fn):
        spans, stack, clock = self._spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._next_id
            self._next_id = span + 1
            parent = stack[-1][0]
            frame = [span, 0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stack[-1][1] += duration
                spans.append((span, parent, layer, start, end, duration - frame[1]))

        return traced

    def take(self) -> list[tuple[int, int, int, int, int, int]]:
        """The spans recorded since the last call, in the order they ended."""
        spans = list(self._spans)
        self._spans.clear()
        return spans


def layer_totals(spans) -> dict[str, list[int]]:
    """layer -> [calls, self ns] over the given spans."""
    totals = {layer: [0, 0] for layer in LAYERS}
    for _, _, layer, _, _, self_ns in spans:
        entry = totals[LAYERS[layer]]
        entry[0] += 1
        entry[1] += self_ns
    return totals
