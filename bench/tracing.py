"""Timing wrappers around the public functions of k3lat's layers.

A :class:`Tracer` replaces every public module-level function of the
layer modules (and ``CurveConfig.induced``) by a wrapper that records a
span: name, start, end, parent span and the top-level call it belongs to.
Names a layer imports from another layer (``bounds.inverse`` is
``exact.inverse``) are replaced by the same wrapper, so every call is seen
whichever module it is looked up in.  Nothing under ``src/`` is edited; the
wrappers are installed on the imported modules and removed afterwards.

Two times are kept per name.  ``self_s`` is the spans' duration minus
their child spans.  ``layer_s`` is, for spans entered from another layer,
the duration minus child spans of *other* layers: a call that stays in its
layer (``exact.signature`` calling ``exact.diagonalizing_congruence``)
counts in the callee's ``calls`` while its time stays with the span that
entered the layer.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
from array import array
from time import perf_counter

LAYERS = ("exact", "graph", "roots", "kodaira", "bounds", "catalog", "formats")

# Spans kept in memory per run; aggregates keep counting past the limit.
MAX_SPANS = 3_000_000

BENCH_CALL = "bench.call"


class Agg:
    """Per-name totals for one pass."""

    __slots__ = ("calls", "self_s", "layer_s", "raised", "none", "items", "n_sum", "n3_sum", "n_count")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.layer_s = 0.0
        self.raised = 0
        self.none = 0
        self.items = 0
        self.n_sum = 0
        self.n3_sum = 0
        self.n_count = 0


class Tracer:
    def __init__(self, package):
        self.package = package
        self.names: list[str] = [BENCH_CALL]
        self.layer_of: list[int] = [-1]
        self.span_name = array("H")
        self.span_parent = array("i")
        self.span_call = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.dropped = 0
        # open frames: [span index, layer, start, child time, other-layer child time]
        self.stack: list[list] = [[-1, -1, 0.0, 0.0, 0.0]]
        self.call_id = -1
        # while paused (the benchmark checking outputs) wrappers only forward
        self.paused = False
        self.aggs: dict[int, Agg] = {}
        self.exclude_calls: list[tuple] | None = None
        self.missing: list[str] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = {}
        for layer in LAYERS:
            mod = getattr(self.package, layer, None)
            if mod is None:
                self.missing.append(layer)
            else:
                modules[layer] = mod
        wrapped: dict[int, object] = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                wrapped[id(obj)] = self._wrap(f"{layer}.{attr}", layer, obj)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                wrapper = wrapped.get(id(obj))
                if wrapper is not None:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)
        graph = modules.get("graph")
        cls = getattr(graph, "CurveConfig", None)
        method = getattr(cls, "induced", None)
        if inspect.isfunction(method):
            self._restore.append((cls, "induced", method))
            cls.induced = self._wrap("graph.induced", "graph", method)
        else:
            self.missing.append("graph.induced")

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._restore):
            setattr(owner, attr, obj)
        self._restore.clear()

    def _name_id(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.layer_of.append(LAYERS.index(layer))
        return len(self.names) - 1

    def _wrap(self, name: str, layer: str, fn):
        name_id = self._name_id(name, layer)
        layer_id = self.layer_of[name_id]
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name_id, layer_id, fn)
        observe = _OBSERVERS.get(name)
        is_exact = layer == "exact"
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            agg = tracer._agg(name_id)
            agg.calls += 1
            if is_exact and args:
                n = getattr(args[0], "n", None)
                if type(n) is int and tracer.stack[-1][1] != layer_id:
                    agg.n_sum += n
                    agg.n3_sum += n * n * n
                    agg.n_count += 1
            frame = tracer._open(name_id, layer_id)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                agg.raised += 1
                tracer._close(frame, agg)
                raise
            tracer._close(frame, agg)
            if observe is not None:
                observe(tracer, agg, args, kwargs, result)
            return result

        return functools.update_wrapper(wrapper, fn)

    def _wrap_generator(self, name_id: int, layer_id: int, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.paused:
                yield from fn(*args, **kwargs)
                return
            agg = tracer._agg(name_id)
            agg.calls += 1
            it = fn(*args, **kwargs)
            while True:
                frame = tracer._open(name_id, layer_id)
                try:
                    item = next(it)
                except StopIteration:
                    tracer._close(frame, agg)
                    return
                except BaseException:
                    agg.raised += 1
                    tracer._close(frame, agg)
                    raise
                tracer._close(frame, agg)
                agg.items += 1
                yield item

        return functools.update_wrapper(wrapper, fn)

    # -- spans ------------------------------------------------------------

    def _agg(self, name_id: int) -> Agg:
        agg = self.aggs.get(name_id)
        if agg is None:
            agg = self.aggs[name_id] = Agg()
        return agg

    def _open(self, name_id: int, layer_id: int) -> list:
        parent = self.stack[-1]
        idx = -1
        if len(self.span_start) < MAX_SPANS:
            idx = len(self.span_start)
            self.span_name.append(name_id)
            self.span_parent.append(parent[0])
            self.span_call.append(self.call_id)
            self.span_end.append(0.0)
            start = perf_counter()
            self.span_start.append(start)
        else:
            self.dropped += 1
            start = perf_counter()
        frame = [idx, layer_id, start, 0.0, 0.0]
        self.stack.append(frame)
        return frame

    def _close(self, frame: list, agg: Agg) -> None:
        end = perf_counter()
        self.stack.pop()
        parent = self.stack[-1]
        if frame[0] >= 0:
            self.span_end[frame[0]] = end
        duration = end - frame[2]
        agg.self_s += duration - frame[3]
        parent[3] += duration
        if parent[1] == frame[1]:
            parent[4] += frame[4]
        else:
            agg.layer_s += duration - frame[4]
            parent[4] += duration

    def top_level(self, fn, *args, **kwargs):
        """Run one top-level call of the benchmark as a root span."""
        self.call_id += 1
        frame = self._open(0, -2)
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self.stack.pop()
            if frame[0] >= 0:
                self.span_end[frame[0]] = end
            self.exclude_time(end - frame[2])

    def exclude_time(self, seconds: float) -> None:
        """Take time spent outside k3lat out of the enclosing span."""
        self.stack[-1][3] += seconds
        self.stack[-1][4] += seconds

    def take_pass(self) -> dict[str, Agg]:
        """Totals since the last call, keyed by name."""
        out = {self.names[k]: agg for k, agg in self.aggs.items()}
        self.aggs = {}
        return out

    def write(self, path, meta: dict) -> None:
        data = dict(meta)
        data["names"] = self.names
        data["dropped_spans"] = self.dropped
        data["columns"] = ["name", "start", "end", "parent", "call"]
        data["spans"] = {
            "name": list(self.span_name),
            "start": [round(x, 7) for x in self.span_start],
            "end": [round(x, 7) for x in self.span_end],
            "parent": list(self.span_parent),
            "call": list(self.span_call),
        }
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(data, fh)


def _observe_exclude(tracer, agg, args, kwargs, result):
    if tracer.exclude_calls is not None and tracer.stack[-1][1] != LAYERS.index("bounds"):
        tracer.exclude_calls.append((args, kwargs, result))


def _observe_none(tracer, agg, args, kwargs, result):
    if result is None:
        agg.none += 1


def _observe_len(tracer, agg, args, kwargs, result):
    agg.items += len(result)


_OBSERVERS = {
    "bounds.exclude": _observe_exclude,
    "roots.recognize_component": _observe_none,
    "kodaira.find_kodaira_divisors": _observe_len,
}
