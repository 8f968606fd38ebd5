"""Thread-safe span tracer for the *real* (threaded) pipeline.

The paper diagnoses its implementations by looking at timelines: Figs. 7
and 9 are nvvp screenshots whose rows are engines and whose boxes are
copies/kernels.  The virtual GPU already produces such a timeline
(:mod:`repro.gpu.profiler`); this module produces the matching timeline
for the host-side pipeline -- one :class:`Span` per handler invocation,
tagged with the stage, the worker, the item being processed, and whether
the time was spent *waiting* on a queue or *computing*.

Design constraints:

- **near-zero overhead when disabled**: every recording call is guarded
  by a single attribute check (``tracer.enabled``), and the module-level
  :data:`NULL_TRACER` lets instrumented code avoid ``None`` checks;
- **thread-safe**: spans arrive from every stage worker concurrently;
  recording is one lock-protected ``list.append``;
- **relative clock**: timestamps are seconds since the tracer's creation
  (``perf_counter`` based), so merged traces start near zero.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Span:
    """One closed interval of work on a named timeline track.

    ``track`` names the row the span renders on (e.g. ``"compute-1"`` =
    worker 1 of the compute stage); ``name`` is the box label (usually the
    stage name, or ``"<stage>:wait"`` for queue-wait time); ``key``
    identifies the item (tile position / pair) when known.
    """

    name: str
    track: str
    start: float
    end: float
    key: str | None = None
    args: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class CounterSample:
    """One sample of a named counter (e.g. a queue's depth) at time ``t``."""

    name: str
    t: float
    value: float


class Tracer:
    """Collects :class:`Span` and :class:`CounterSample` records.

    A disabled tracer (``Tracer(enabled=False)`` or :data:`NULL_TRACER`)
    accepts every call and records nothing; hot paths additionally guard
    on :attr:`enabled` so a disabled tracer costs one attribute read.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._lock = threading.Lock()
        self.spans: list[Span] = []
        self.counters: list[CounterSample] = []
        self._t0 = time.perf_counter()
        self._off = nullcontext(self)

    def now(self) -> float:
        """Seconds since this tracer was created (the trace's time base)."""
        return time.perf_counter() - self._t0

    # -- recording ----------------------------------------------------------

    def record_span(
        self,
        name: str,
        track: str,
        start: float,
        end: float,
        key: str | None = None,
        args: dict | None = None,
    ) -> None:
        if not self.enabled:
            return
        with self._lock:
            self.spans.append(Span(name, track, start, end, key, args))

    def counter(self, name: str, value: float, t: float | None = None) -> None:
        if not self.enabled:
            return
        if t is None:
            t = self.now()
        with self._lock:
            self.counters.append(CounterSample(name, t, float(value)))

    def span(self, name: str, track: str, key: object = None,
             args: dict | None = None):
        """Context manager recording one span around the ``with`` body;
        ``key`` (a tile position, a pair, ...) is formatted only if it is."""
        return self._record(name, track, key, args) if self.enabled else self._off

    @contextmanager
    def _record(self, name: str, track: str, key: object, args: dict | None):
        t0 = self.now()
        try:
            yield self
        finally:
            self.record_span(name, track, t0, self.now(),
                             key=None if key is None else str(key), args=args)

    # -- inspection ---------------------------------------------------------

    def tracks(self) -> list[str]:
        """Distinct span tracks in first-appearance order."""
        with self._lock:
            seen: dict[str, None] = {}
            for s in self.spans:
                seen.setdefault(s.track, None)
            return list(seen)

    def counter_names(self) -> list[str]:
        with self._lock:
            seen: dict[str, None] = {}
            for c in self.counters:
                seen.setdefault(c.name, None)
            return list(seen)

    def span_count(self, name_prefix: str = "") -> int:
        with self._lock:
            return sum(1 for s in self.spans if s.name.startswith(name_prefix))

    def busy_seconds(self, track: str, include_wait: bool = False) -> float:
        """Summed span durations on ``track`` (compute only by default)."""
        with self._lock:
            return sum(
                s.duration
                for s in self.spans
                if s.track == track
                and (include_wait or not s.name.endswith(":wait"))
            )


#: Shared disabled tracer: instrumented code holds this instead of ``None``
#: so the hot-path guard is always a plain attribute read.
NULL_TRACER = Tracer(enabled=False)
