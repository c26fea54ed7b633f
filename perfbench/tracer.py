"""Layer-boundary spans for the traced benchmark runs.

A span is recorded around every call that crosses from one surfcount
module into another.  The spans come from wrappers this file installs on
the names a calling module imported (``fitlab.count_N``,
``fitlab.interpolate_tensor``, ``series.count_G_r``, ``cli.load_cache``,
...), so the package itself is not changed.  Calls from ``engine`` into
``closed`` are not wrapped: closed forms run inside the engine recursion
and count towards the engine's spans.

Spans live in memory and are written out once, when the process ends.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
import types

LAYER = {
    "surfcount.exact": "exact",
    "surfcount.engine": "engine",
    "surfcount.fitlab": "fitlab",
    "surfcount.sums": "sums",
    "surfcount.series": "series",
    "surfcount.oracles": "oracles",
    "surfcount.verify": "verify",
    "surfcount.cli": "cli",
}

# Modules whose imported names get wrapped.  The engine is not among them:
# its only imports are closed forms and arithmetic helpers.
CALLERS = ("fitlab", "sums", "series", "oracles", "verify", "cli")

# exact's helpers (binomial, frac_str, ...) run once per term; wrapping them
# would measure the wrapper.  The interpolation kernel is the layer boundary.
EXACT_ENTRIES = {"interpolate_tensor"}

# The cache functions live in the engine but are reported on their own.
CACHE_LAYER = {"load_cache": "engine.cache_load", "save_cache": "engine.cache_save"}

clock = time.monotonic


class Tracer:
    def __init__(self) -> None:
        self.names: list[tuple[str, str]] = []  # (span name, layer)
        self._ids: dict[str, int] = {}
        self.spans: list[list] = []  # [name id, start, end, parent span, op id]
        self.counters: dict[str, int] = {}
        self.op = 0
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, key: str, amount: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, name: str, layer: str, fn, on_return=None):
        """``fn`` with a span named ``name`` around each call."""
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append((name, layer))
        nid = self._ids[name]
        spans, stack_of = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            rec = [nid, 0.0, 0.0, stack[-1] if stack else None, self.op]
            spans.append(rec)
            stack.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every cross-layer name the calling modules imported."""
        import importlib

        hooks = {
            "interpolate_tensor": self._on_interpolate,
            "load_cache": self._on_load_cache,
        }
        for short in CALLERS:
            mod = importlib.import_module(f"surfcount.{short}")
            for attr, value in list(vars(mod).items()):
                if not isinstance(value, types.FunctionType):
                    continue
                home = value.__module__
                if home not in LAYER or home == mod.__name__:
                    continue
                if home == "surfcount.exact" and attr not in EXACT_ENTRIES:
                    continue
                layer = CACHE_LAYER.get(attr, LAYER[home])
                setattr(mod, attr, self.wrap(f"{short}.{attr}", layer, value, hooks.get(attr)))

    def _on_interpolate(self, args, kwargs, result) -> None:
        grid = args[0] if args else kwargs["grid"]
        self.count("exact.interp_points", len(grid))

    def _on_load_cache(self, args, kwargs, records) -> None:
        path = args[0] if args else kwargs["path"]
        self.count("engine.cache_records", records)
        if os.path.exists(path):
            self.count("engine.cache_bytes", os.path.getsize(path))

    def dump(self, path: str, extra: dict) -> None:
        index = {id(rec): i for i, rec in enumerate(self.spans)}
        rows = [
            [nid, start, end, -1 if parent is None else index[id(parent)], op]
            for nid, start, end, parent, op in self.spans
        ]
        doc = dict(extra, names=self.names, spans=rows, counters=self.counters)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def layer_times(doc: dict) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
    """Busy time, self time and span count per layer of one process's spans.

    Self time is a span's duration minus the durations of its direct
    children.  Spans of one thread nest, so the children never overlap.
    Spans from worker threads have no parent and add their own busy time.
    """
    names, spans = doc["names"], doc["spans"]
    dur = [end - start for _, start, end, _, _ in spans]
    child = [0.0] * len(spans)
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            child[parent] += dur[i]
    busy: dict[str, float] = {}
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    for i, (nid, _, _, _, _) in enumerate(spans):
        layer = names[nid][1]
        busy[layer] = busy.get(layer, 0.0) + dur[i]
        own[layer] = own.get(layer, 0.0) + dur[i] - child[i]
        calls[layer] = calls.get(layer, 0) + 1
    return busy, own, calls


def span_times(doc: dict, prefix: str) -> dict[str, float]:
    """Total duration of each span name that starts with ``prefix``."""
    names = doc["names"]
    out: dict[str, float] = {}
    for nid, start, end, _, _ in doc["spans"]:
        name = names[nid][0]
        if name.startswith(prefix):
            out[name] = out.get(name, 0.0) + end - start
    return out

