"""Pipeline stages: N worker threads around a handler.

A stage's handler is a callable ``handler(item) -> result | None``;
whatever it returns (when not ``None``) is forwarded to the stage's output
queue.  A handler that produces nothing -- the bookkeeping stage of the
paper's Fig. 8, which queues a pair only once both members' FFTs are
ready -- returns ``None`` and puts onto the queues it was wired to.

End-of-stream is signalled by closing the input queue, *not* by poison
values: with multiple workers per stage a single poison pill would be
consumed by one worker and lost.  The framework closes each stage's output
once all its workers exit.

Failure handling: any handler exception aborts the whole pipeline.  A
handler that can survive a failure handles it itself -- in phase 1 that
is only the tile read, under :class:`~repro.core.kernel.ErrorPolicy`.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable

from repro.grid.neighbors import Pair
from repro.observe.tracer import NULL_TRACER
from repro.pipeline.queues import MonitorQueue, QueueClosed
from repro.recovery.cancel import enter_item, exit_item

#: Sentinel a *source* handler returns to end its stream.
END_OF_STREAM = object()


def item_key(item: Any) -> str | None:
    """Short stable identity of a work item for span labelling.

    Fig. 8's work items are pairs or dataclasses carrying a ``pos``
    (tile) or ``pair`` attribute, keyed ``str(pos)`` / ``str(pair)`` as
    the CPU schedulers key their spans; falling back to ``repr`` would
    stringify tile pixel arrays, so anything else is labelled by type
    only.
    """
    if item is None or item is END_OF_STREAM:
        return None
    if isinstance(item, Pair):
        return str(item)
    for attr in ("pos", "pair"):
        v = getattr(item, attr, None)
        if v is not None:
            return str(v)
    return type(item).__name__


class Stage:
    """One pipeline stage with ``workers`` threads.

    Stages come in two flavours:

    - *source* stages (``input is None``): the handler is called with
      ``None`` repeatedly until it returns :data:`END_OF_STREAM`;
    - *consumer* stages: the handler is called once per input item
      until the input queue closes and drains.
    """

    def __init__(
        self,
        name: str,
        handler: Callable[[Any], Any],
        workers: int = 1,
        input: MonitorQueue | None = None,
        output: MonitorQueue | None = None,
        on_error: Callable[[], None] | None = None,
        tracer=None,
        metrics=None,
        track_base: str | None = None,
        supervised: bool = False,
    ) -> None:
        if workers < 1:
            raise ValueError(f"stage {name!r} needs at least one worker")
        self.name = name
        self.handler = handler
        self.workers = workers
        self.input = input
        self.output = output
        self.on_error = on_error
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics
        #: Span-track stem (one track per worker: ``"<track_base>-<i>"``);
        #: pipelines prefix it with their own name so the per-GPU
        #: pipelines get distinct rows.
        self.track_base = track_base or name
        self.threads: list[threading.Thread] = []
        self.errors: list[BaseException] = []
        self.items_processed = 0
        self._count_lock = threading.Lock()
        self._active = 0
        #: When True (a watchdog supervises the pipeline), each handler
        #: invocation runs under a thread-local
        #: :class:`~repro.recovery.cancel.CancelToken` and is listed in
        #: the per-worker in-flight table the watchdog polls.  Off by
        #: default so unsupervised pipelines pay nothing.
        self.supervised = supervised
        self._inflight: dict[int, tuple] = {}

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        if self.threads:
            raise RuntimeError(f"stage {self.name!r} already started")
        self._active = self.workers
        for i in range(self.workers):
            t = threading.Thread(
                target=self._run, args=(i,), name=f"stage-{self.name}-{i}", daemon=True
            )
            self.threads.append(t)
            t.start()

    def join(self) -> None:
        for t in self.threads:
            t.join()

    # -- worker loop ---------------------------------------------------------

    def _worker_done(self) -> None:
        with self._count_lock:
            self._active -= 1
            last = self._active == 0
        # The last worker out closes the downstream queue so the next stage
        # sees end-of-stream exactly once all of this stage's work is done.
        if last and self.output is not None:
            self.output.close()

    def _run(self, worker_index: int) -> None:
        try:
            if self.input is None:
                self._run_source(worker_index)
            else:
                self._run_consumer(worker_index)
        except QueueClosed:
            # Downstream closed under us (pipeline aborting): exit quietly.
            pass
        except BaseException as exc:  # propagate to Pipeline.join()
            self.errors.append(exc)
            # Poison downstream so the rest of the pipeline unblocks.
            if self.output is not None:
                self.output.close()
            if self.input is not None:
                self.input.close()
            # Pipeline-wide abort (closes every registered queue) so stages
            # not adjacent to this one cannot deadlock on a failure.
            if self.on_error is not None:
                self.on_error()
        finally:
            self._worker_done()

    def inflight(self) -> list[tuple]:
        """Snapshot of ``(worker_index, item_key, started_monotonic, token)``
        for every handler invocation currently executing.

        Read lock-free by the watchdog: individual dict operations are
        GIL-atomic, and a slightly stale snapshot only shifts detection by
        one poll interval.
        """
        return list(self._inflight.values())

    def _handle(self, item: Any, worker_index: int) -> Any:
        """``handler(item)``, traced and supervised.  A source's span is
        keyed by the item it produced (it is called with ``None``)."""
        tracer = self.tracer
        span_t0 = tracer.now() if tracer.enabled else 0.0
        prev_token = None
        if self.supervised:
            prev_token = enter_item(self._inflight, worker_index, item_key(item))
        t0 = time.perf_counter()
        result = None
        try:
            result = self.handler(item)
        finally:
            dt = time.perf_counter() - t0
            if self.supervised:
                exit_item(self._inflight, worker_index, prev_token)
            with self._count_lock:
                self.items_processed += 1
            if tracer.enabled:
                tracer.record_span(
                    self.name,
                    f"{self.track_base}-{worker_index}",
                    span_t0,
                    span_t0 + dt,
                    key=item_key(result if item is None else item),
                )
            if self.metrics is not None:
                self.metrics.counter(f"stage.{self.name}.items").inc()
                self.metrics.histogram(f"stage.{self.name}.seconds").observe(dt)
        return result

    def _emit(self, result: Any) -> None:
        if result is None:
            return
        if self.output is None:
            raise RuntimeError(f"stage {self.name!r} has no output queue")
        self.output.put(result)

    def _run_source(self, worker_index: int) -> None:
        while True:
            result = self._handle(None, worker_index)
            if result is END_OF_STREAM:
                return
            self._emit(result)

    def _run_consumer(self, worker_index: int) -> None:
        assert self.input is not None
        tracer = self.tracer
        track = f"{self.track_base}-{worker_index}"
        while True:
            w0 = time.perf_counter()
            span_t0 = tracer.now() if tracer.enabled else 0.0
            try:
                item = self.input.get()
            except QueueClosed:
                return
            finally:
                waited = time.perf_counter() - w0
                # Only blocking waits become spans: an always-ready queue
                # would otherwise bury the timeline in zero-width boxes.
                if tracer.enabled and waited > 1e-4:
                    tracer.record_span(
                        f"{self.name}:wait", track, span_t0, span_t0 + waited,
                        args={"queue": self.input.name},
                    )
            self._emit(self._handle(item, worker_index))
