"""Pipeline wiring and lifecycle.

A :class:`Pipeline` owns stages and the queues between them, starts all
worker threads, waits for completion, and surfaces every worker exception
to the caller (wrapped in a single
:class:`~repro.recovery.watchdog.PipelineError` naming the failing
stages) instead of deadlocking -- failure injection tests depend
on this.

Stages need not form a single chain: the paper's Fig. 8 graph has a feedback
edge (the displacement stage notifies the bookkeeper about freed transform
buffers).  Stages only know their own input/output queues, so the handlers
wire the other edges themselves; cycles are the *user's* responsibility to
terminate (the bookkeeper closes its feedback consumer by counting).
"""

from __future__ import annotations

from typing import Callable

from repro.observe.sampler import QueueDepthSampler
from repro.observe.tracer import NULL_TRACER
from repro.pipeline.queues import MonitorQueue
from repro.pipeline.stage import Stage
from repro.recovery.watchdog import (
    PipelineStallError,
    Watchdog,
    WatchdogConfig,
    aggregate_failures,
    join_supervised,
)


class Pipeline:
    """A set of stages plus the queues connecting them.

    With a ``tracer`` (and optionally a ``metrics`` registry) every stage
    records per-item spans with queue-wait attribution, and a background
    :class:`~repro.observe.sampler.QueueDepthSampler` polls the depth of
    every queue in the graph for the trace's counter tracks -- the live
    equivalent of the paper's nvvp timelines plus its monitor-queue
    occupancy readings.
    """

    def __init__(
        self,
        name: str = "pipeline",
        tracer=None,
        metrics=None,
        watchdog: WatchdogConfig | None = None,
    ) -> None:
        self.name = name
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics
        #: When set, a :class:`~repro.recovery.watchdog.Watchdog` thread
        #: supervises the run: stages are built ``supervised`` (per-item
        #: cancel tokens + in-flight tables) and ``join()`` polls instead
        #: of blocking so an escalation raises :class:`PipelineStallError`
        #: rather than deadlocking.
        self.watchdog_config = watchdog
        self.stages: list[Stage] = []
        self.queues: list[MonitorQueue] = []
        self._sampler: QueueDepthSampler | None = None
        self._watchdog: Watchdog | None = None

    # -- construction --------------------------------------------------------

    def queue(self, maxsize: int = 0, name: str = "") -> MonitorQueue:
        q = MonitorQueue(maxsize=maxsize, name=name or f"q{len(self.queues)}")
        self.queues.append(q)
        return q

    def stage(
        self,
        name: str,
        handler: Callable,
        workers: int = 1,
        input: MonitorQueue | None = None,
        output: MonitorQueue | None = None,
    ) -> Stage:
        s = Stage(
            name,
            handler,
            workers=workers,
            input=input,
            output=output,
            on_error=self.abort,
            tracer=self.tracer,
            metrics=self.metrics,
            track_base=f"{self.name}/{name}",
            supervised=self.watchdog_config is not None,
        )
        self.stages.append(s)
        return s

    def abort(self) -> None:
        """Close every queue so all stages unblock (used on worker failure)."""
        for q in self.queues:
            q.close()

    # -- execution -------------------------------------------------------------

    def start(self) -> None:
        """Start queue-depth sampling (when observed) and every stage."""
        if not self.stages:
            raise ValueError("pipeline has no stages")
        if self._sampler is None and (
            self.tracer.enabled or self.metrics is not None
        ) and self.queues:
            self._sampler = QueueDepthSampler(
                self.queues,
                tracer=self.tracer,
                metrics=self.metrics,
                prefix=f"queue:{self.name}",
            ).start()
        if self._watchdog is None and self.watchdog_config is not None:
            self._watchdog = Watchdog(
                self, self.watchdog_config, metrics=self.metrics
            ).start()
        for s in self.stages:
            s.start()

    def join(self) -> None:
        """Wait for all workers; raise one aggregated
        :class:`~repro.recovery.watchdog.PipelineError`.

        Supervised pipelines (``watchdog=``) wait through
        :func:`~repro.recovery.watchdog.join_supervised`, so a watchdog
        escalation can interrupt the wait: blocked workers are unblocked
        by the abort's queue closures, any worker still wedged in a
        non-cooperative handler after the watchdog's grace is *abandoned*
        (the threads are daemons), and
        :class:`~repro.recovery.watchdog.PipelineStallError` carries the
        :class:`~repro.recovery.watchdog.StallReport` instead of
        ``join()`` hanging forever.
        """
        abandoned: list[str] = []
        try:
            if self._watchdog is None:
                for s in self.stages:
                    s.join()
            else:
                abandoned = join_supervised(
                    [t for s in self.stages for t in s.threads],
                    self._watchdog,
                )
        finally:
            if self._sampler is not None:
                self._sampler.stop()
            if self._watchdog is not None:
                self._watchdog.stop()
        failures = [(s.name, exc) for s in self.stages for exc in s.errors]
        if self._watchdog is not None and self._watchdog.escalated:
            raise PipelineStallError.escalated(
                self._watchdog, abandoned, failures=failures
            )
        if failures:
            raise aggregate_failures(self.name, failures)
