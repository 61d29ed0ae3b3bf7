"""Span recording around the package's public functions, applied from outside.

``Tracer.install`` rebinds each target function, in every ``blochkit`` module
namespace that holds a reference to it, to a wrapper that records one span per
call: name, start, end, parent span (per-thread stack), op id and whether the
call raised.  Spans stay in per-thread arrays until ``summary`` aggregates them
and ``save`` writes them out; nothing in the package is edited.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from array import array

import numpy as np

PACKAGE = "blochkit"
_FIELDS = ("span_id", "parent", "name", "op", "start", "end", "raised")


class _ThreadBuffer:
    """Spans and counters recorded by one thread (no locking needed)."""

    def __init__(self) -> None:
        self.span_id = array("q")
        self.parent = array("q")
        self.name = array("i")
        self.op = array("q")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")
        self.stack: list[int] = []
        self.counters: dict[str, float] = {}


class Tracer:
    """Records spans for ``targets``: {qualified name: counter function or None}.

    A counter function receives (args, kwargs, result) of a call that returned
    and yields (counter name, increment) pairs.
    """

    def __init__(self, targets: dict) -> None:
        self.targets = targets
        self.names = [self.short_name(q) for q in targets]
        self.op_id = -1
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._buffers: list[_ThreadBuffer] = []
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    @staticmethod
    def short_name(qualified: str) -> str:
        return qualified[len(PACKAGE) + 1:]

    def _buffer(self) -> _ThreadBuffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = _ThreadBuffer()
            with self._lock:
                self._buffers.append(buf)
            self._local.buf = buf
        return buf

    def _wrap(self, index: int, fn, count):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            buf = tracer._buffer()
            span = next(tracer._ids)
            parent = buf.stack[-1] if buf.stack else 0
            op = tracer.op_id
            buf.stack.append(span)
            raised = 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                raised = 0
            finally:
                end = time.perf_counter()
                buf.stack.pop()
                buf.span_id.append(span)
                buf.parent.append(parent)
                buf.name.append(index)
                buf.op.append(op)
                buf.start.append(start)
                buf.end.append(end)
                buf.raised.append(raised)
            if count is not None:
                for key, value in count(args, kwargs, result):
                    buf.counters[key] = buf.counters.get(key, 0) + value
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for index, (qualified, count) in enumerate(self.targets.items()):
            module_name, _, attr = qualified.rpartition(".")
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(index, original, count)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patches.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patches):
            setattr(module, key, original)
        self._patches.clear()

    def _arrays(self) -> dict[str, np.ndarray]:
        template = _ThreadBuffer()
        return {field: np.concatenate([np.array(getattr(b, field)) for b in self._buffers]
                                      or [np.array(getattr(template, field))])
                for field in _FIELDS}

    def summary(self) -> tuple[dict[str, dict[str, float]], dict[str, float]]:
        """Per span name: calls, busy_s, self_s, raised; plus merged counters.

        Self time is the span's duration minus the durations of its direct
        children, which run on the same thread inside the parent's interval.
        """
        a = self._arrays()
        duration = a["end"] - a["start"]
        child = np.zeros(duration.size)
        has_parent = a["parent"] > 0
        if has_parent.any():
            order = np.argsort(a["span_id"])
            rows = order[np.searchsorted(a["span_id"], a["parent"][has_parent], sorter=order)]
            np.add.at(child, rows, duration[has_parent])
        own = duration - child
        spans = {}
        for index, name in enumerate(self.names):
            mask = a["name"] == index
            spans[name] = {
                "calls": int(mask.sum()),
                "busy_s": float(duration[mask].sum()),
                "self_s": float(own[mask].sum()),
                "raised": int(a["raised"][mask].sum()),
            }
        counters: dict[str, float] = {}
        for buf in self._buffers:
            for key, value in buf.counters.items():
                counters[key] = counters.get(key, 0) + value
        return spans, counters

    def save(self, path) -> None:
        a = self._arrays()
        np.savez(path, span_names=np.array(self.names), **a)
