"""Pipeline stages: N worker threads around a user handler.

A stage's handler is a callable ``handler(item, ctx) -> result | None``;
whatever it returns (when not ``None``) is forwarded to the stage's output
queue.  Handlers may also emit explicitly (``ctx.emit``) to produce zero or
many outputs per input -- the bookkeeping stage of the paper's Fig. 8 does
exactly this, emitting a pair only when both members' FFTs are ready.

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
from dataclasses import dataclass
from typing import Any, Callable

from repro.observe.tracer import NULL_TRACER
from repro.pipeline.queues import MonitorQueue, QueueClosed
from repro.recovery.cancel import CancelToken, install_token

#: Sentinel a *source* handler returns to end its stream.
END_OF_STREAM = object()


def item_key(item: Any) -> str | None:
    """Short stable identity of a work item for span labelling.

    Work items in this codebase are dataclasses carrying a ``pos`` (tile)
    or ``pair`` attribute; falling back to ``repr`` would stringify tile
    pixel arrays, so anything unrecognized is labelled by type only.
    """
    if item is None:
        return None
    for attr in ("pos", "pair", "key"):
        v = getattr(item, attr, None)
        if v is not None:
            return str(v)
    if isinstance(item, (str, int, float, tuple)):
        return str(item)[:64]
    return type(item).__name__


@dataclass
class StageContext:
    """Handed to every handler invocation.

    ``emit`` pushes downstream; ``worker_index`` identifies the calling
    worker (0-based); ``stage`` is the owning stage (e.g. for its name).
    """

    stage: "Stage"
    worker_index: int

    def emit(self, item: Any) -> None:
        if self.stage.output is None:
            raise RuntimeError(f"stage {self.stage.name!r} has no output queue")
        self.stage.output.put(item)


class Stage:
    """One pipeline stage with ``workers`` threads.

    Stages come in two flavours:

    - *source* stages (``input is None``): the handler is called with
      ``None`` repeatedly until it returns :data:`END_OF_STREAM`;
    - *transform/sink* stages: the handler is called once per input item
      until the input queue closes and drains.
    """

    def __init__(
        self,
        name: str,
        handler: Callable[[Any, StageContext], Any],
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
        #: pipelines prefix it with their own name so multi-pipeline
        #: implementations (per-GPU, per-socket) get distinct rows.
        self.track_base = track_base or name
        self.threads: list[threading.Thread] = []
        self.errors: list[BaseException] = []
        self.items_processed = 0
        #: Wall-clock seconds spent inside the handler, summed over
        #: workers -- the numerator of the stage-utilization telemetry
        #: (how the pipeline's balance is diagnosed, cf. the paper's
        #: profiler-driven analysis of its stage occupancy).
        self.busy_seconds = 0.0
        #: Wall-clock seconds workers spent blocked on the input queue,
        #: summed over workers (the denominator's idle share: a stage with
        #: high queue-wait and low busy time is starved, not slow).
        self.queue_wait_seconds = 0.0
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
        ctx = StageContext(stage=self, worker_index=worker_index)
        try:
            if self.input is None:
                self._run_source(ctx)
            else:
                self._run_consumer(ctx)
        except QueueClosed:
            # Downstream closed under us (pipeline aborting): exit quietly.
            pass
        except BaseException as exc:  # propagate to Pipeline.result()
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

    def _handle(self, item: Any, ctx: StageContext) -> Any:
        tracer = self.tracer
        span_t0 = tracer.now() if tracer.enabled else 0.0
        token = prev_token = None
        if self.supervised:
            token = CancelToken()
            prev_token = install_token(token)
            self._inflight[ctx.worker_index] = (
                ctx.worker_index, item_key(item), time.monotonic(), token
            )
        t0 = time.perf_counter()
        try:
            result = self.handler(item, ctx)
        finally:
            dt = time.perf_counter() - t0
            if self.supervised:
                self._inflight.pop(ctx.worker_index, None)
                install_token(prev_token)
            with self._count_lock:
                self.items_processed += 1
                self.busy_seconds += dt
            if tracer.enabled:
                tracer.record_span(
                    self.name,
                    f"{self.track_base}-{ctx.worker_index}",
                    span_t0,
                    span_t0 + dt,
                    key=item_key(item),
                )
            if self.metrics is not None:
                self.metrics.counter(f"stage.{self.name}.items").inc()
                self.metrics.histogram(f"stage.{self.name}.seconds").observe(dt)
        return result

    def _run_source(self, ctx: StageContext) -> None:
        while True:
            result = self._handle(None, ctx)
            if result is END_OF_STREAM:
                return
            if result is not None:
                ctx.emit(result)

    def _run_consumer(self, ctx: StageContext) -> None:
        assert self.input is not None
        tracer = self.tracer
        track = f"{self.track_base}-{ctx.worker_index}"
        while True:
            w0 = time.perf_counter()
            span_t0 = tracer.now() if tracer.enabled else 0.0
            try:
                item = self.input.get()
            except QueueClosed:
                return
            finally:
                waited = time.perf_counter() - w0
                with self._count_lock:
                    self.queue_wait_seconds += waited
                # Only blocking waits become spans: an always-ready queue
                # would otherwise bury the timeline in zero-width boxes.
                if tracer.enabled and waited > 1e-4:
                    tracer.record_span(
                        f"{self.name}:wait", track, span_t0, span_t0 + waited,
                        args={"queue": self.input.name},
                    )
            result = self._handle(item, ctx)
            if result is not None and result is not END_OF_STREAM:
                ctx.emit(result)
