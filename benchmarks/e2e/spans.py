"""Benchmark-side span recorder for the traced runs.

Spans are recorded around calls into each layer's public functions from
the benchmark's own files (nothing under ``src/`` is instrumented), kept
in memory, and written out once when the traced child exits.  A span is
``(name, start, end, parent, workload)``; its *self time* is its duration
minus the part of that interval its child spans cover -- the union, so
concurrent children (the service's two client threads) are not counted
twice.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager


class SpanRecorder:
    """In-memory span list with per-thread parent tracking."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: list[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    @contextmanager
    def span(self, name: str, parent: int | None = None):
        """Record one span; yields its id (pass as ``parent`` across threads)."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        if parent is None and stack:
            parent = stack[-1]
        record = {"name": name, "parent": parent, "workload": self.workload,
                  "start": 0.0, "end": 0.0}
        with self._lock:
            record["id"] = len(self.spans)
            self.spans.append(record)
        stack.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record["id"]
        finally:
            record["end"] = time.perf_counter()
            stack.pop()

    def timed(self, name: str, fn):
        """Wrap ``fn`` so every call is one ``name`` span."""
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return wrapper

    # -- analysis ------------------------------------------------------------

    def subtree(self, root: int) -> list[dict]:
        """``root`` and every span below it, in recording order."""
        keep = {root}
        out = []
        for s in self.spans:  # parents are always recorded before children
            if s["id"] in keep or s["parent"] in keep:
                keep.add(s["id"])
                out.append(s)
        return out


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_times(spans: list[dict]) -> dict[int, float]:
    """Self time per span id: duration minus the union of its children."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered = 0.0
        edge = s["start"]
        for a, b in sorted(children.get(s["id"], ())):
            a, b = max(a, edge), min(b, s["end"])
            if b > a:
                covered += b - a
                edge = b
        out[s["id"]] = duration(s) - covered
    return out


def totals(spans: list[dict]) -> dict[str, dict]:
    """Per span name: call count, summed duration, summed self time."""
    selfs = self_times(spans)
    out: dict[str, dict] = {}
    for s in spans:
        row = out.setdefault(s["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += duration(s)
        row["self_s"] += selfs[s["id"]]
    return out
