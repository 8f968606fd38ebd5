"""Pipeline wiring and lifecycle.

A :class:`Pipeline` owns stages and the queues between them, starts all
worker threads, waits for completion, and surfaces every worker exception
to the caller (wrapped in a single :class:`PipelineError` naming the
failing stages) instead of deadlocking -- failure injection tests depend
on this.

Stages need not form a single chain: the paper's Fig. 8 graph has a feedback
edge (the displacement stage notifies the bookkeeper about freed transform
buffers).  Arbitrary queue topologies are supported because stages only know
their own input/output queues; cycles are the *user's* responsibility to
terminate (the bookkeeper closes its feedback consumer by counting).
"""

from __future__ import annotations

import time
from typing import Any, Callable

from repro.observe.sampler import QueueDepthSampler
from repro.observe.tracer import NULL_TRACER
from repro.pipeline.queues import MonitorQueue
from repro.pipeline.stage import Stage
from repro.recovery.watchdog import StallReport, Watchdog, WatchdogConfig


class PipelineError(RuntimeError):
    """One or more stage workers raised.

    ``failures`` lists every collected ``(stage_name, exception)`` pair in
    stage order -- a run can fail in several stages at once (e.g. a reader
    hitting a corrupt tile while a compute worker times out on the pool),
    and losing all but the first hides the real sequence of events.  The
    first exception is also chained as ``__cause__`` for compatibility
    with ``raise ... from`` consumers.
    """

    def __init__(
        self,
        message: str,
        failures: list[tuple[str, BaseException]] | None = None,
    ) -> None:
        super().__init__(message)
        self.failures: list[tuple[str, BaseException]] = list(failures or [])


class PipelineStallError(PipelineError):
    """The watchdog escalated: a hung item or a whole-pipeline stall.

    Raised by ``join()``/``result()`` in place of an eternal block.
    ``report`` is the watchdog's structured
    :class:`~repro.recovery.watchdog.StallReport` (what hung, where, for
    how long, and the progress counters at escalation time);
    ``abandoned_threads`` names daemon workers that were still alive when
    the supervised join gave up waiting on them.
    """

    def __init__(
        self,
        message: str,
        report: StallReport,
        failures: list[tuple[str, BaseException]] | None = None,
        abandoned_threads: list[str] | None = None,
    ) -> None:
        super().__init__(message, failures=failures)
        self.report = report
        self.abandoned_threads = list(abandoned_threads or [])


def aggregate_failures(
    name: str, failures: list[tuple[str, BaseException]]
) -> PipelineError:
    """Build one :class:`PipelineError` chaining all worker exceptions."""
    stages = []
    for stage_name, _ in failures:
        if stage_name not in stages:
            stages.append(stage_name)
    detail = "; ".join(
        f"{stage_name}: {type(exc).__name__}: {exc}" for stage_name, exc in failures
    )
    err = PipelineError(
        f"stage {', '.join(repr(s) for s in stages)} of {name!r} failed "
        f"({len(failures)} worker error{'s' if len(failures) != 1 else ''}: "
        f"{detail})",
        failures=failures,
    )
    if failures:
        err.__cause__ = failures[0][1]
    return err


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
        queue_sample_interval: float = 0.005,
        watchdog: WatchdogConfig | None = None,
    ) -> None:
        self.name = name
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics
        self.queue_sample_interval = queue_sample_interval
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
        self._abandoned_threads: list[str] = []

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

    def add_chain(
        self,
        specs: list[tuple[str, Callable, int]],
        queue_size: int = 0,
    ) -> list[Stage]:
        """Convenience: wire ``specs`` (name, handler, workers) into a chain.

        The first stage is a source, the last a sink; a bounded queue of
        ``queue_size`` sits between each consecutive pair.
        """
        stages: list[Stage] = []
        prev_q: MonitorQueue | None = None
        for i, (name, handler, workers) in enumerate(specs):
            out_q = None
            if i + 1 < len(specs):
                out_q = self.queue(maxsize=queue_size, name=f"{name}-out")
            stages.append(
                self.stage(name, handler, workers=workers, input=prev_q,
                           output=out_q)
            )
            prev_q = out_q
        return stages

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
                interval=self.queue_sample_interval,
                prefix=f"queue:{self.name}",
            ).start()
        if self._watchdog is None and self.watchdog_config is not None:
            self._watchdog = Watchdog(
                self, self.watchdog_config, metrics=self.metrics
            ).start()
        for s in self.stages:
            s.start()

    def run(self) -> None:
        """Start every stage, join every stage, raise on any worker error."""
        self.start()
        self.join()

    def join(self) -> None:
        """Wait for all workers; raise one aggregated :class:`PipelineError`.

        Supervised pipelines (``watchdog=``) poll-join so a watchdog
        escalation can interrupt the wait: blocked workers are unblocked
        by the abort's queue closures, any worker still wedged in a
        non-cooperative handler after a short grace is *abandoned* (the
        threads are daemons), and :class:`PipelineStallError` carries the
        :class:`StallReport` instead of ``join()`` hanging forever.
        """
        try:
            if self._watchdog is None:
                for s in self.stages:
                    s.join()
            else:
                self._join_supervised()
        finally:
            if self._sampler is not None:
                self._sampler.stop()
            if self._watchdog is not None:
                self._watchdog.stop()
        failures = [(s.name, exc) for s in self.stages for exc in s.errors]
        if self._watchdog is not None and self._watchdog.escalated:
            report = self._watchdog.report()
            raise PipelineStallError(
                f"pipeline {self.name!r} stalled ({report.kind}): "
                f"{report.detail}",
                report=report,
                failures=failures,
                abandoned_threads=self._abandoned_threads,
            )
        if failures:
            raise aggregate_failures(self.name, failures)

    def _join_supervised(self, poll: float = 0.05, grace: float = 5.0) -> None:
        threads = [t for s in self.stages for t in s.threads]
        abandon_at: float | None = None
        while True:
            alive = [t for t in threads if t.is_alive()]
            if not alive:
                return
            if self._watchdog is not None and self._watchdog.escalated:
                now = time.monotonic()
                if abandon_at is None:
                    abandon_at = now + grace
                elif now >= abandon_at:
                    self._abandoned_threads = [t.name for t in alive]
                    return
            alive[0].join(timeout=poll)

    def watchdog_report(self) -> StallReport | None:
        """The watchdog's report (escalated or cooperative), if any."""
        return None if self._watchdog is None else self._watchdog.report()

    def result(self) -> dict[str, Any]:
        """Join and return :meth:`stats`; raises the aggregated error.

        This is the one-stop completion check: every worker exception
        collected during the run -- not just the first -- is surfaced in a
        single :class:`PipelineError` whose ``failures`` attribute names
        the stage of each.
        """
        self.join()
        return self.stats()

    # -- telemetry ---------------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "stages": {
                s.name: {
                    "workers": s.workers,
                    "items": s.items_processed,
                    "busy_seconds": s.busy_seconds,
                    "queue_wait_seconds": s.queue_wait_seconds,
                }
                for s in self.stages
            },
            "queues": {
                q.name: {
                    "peak_depth": q.peak_depth,
                    "total_put": q.total_put,
                    "total_get": q.total_get,
                    "put_wait_seconds": q.put_wait_seconds,
                    "get_wait_seconds": q.get_wait_seconds,
                }
                for q in self.queues
            },
        }
        report = self.watchdog_report()
        if report is not None:
            out["watchdog"] = report.to_dict()
        return out

    def utilization(self, wall_seconds: float) -> dict[str, float]:
        """Per-stage busy fraction over a run's wall time.

        The stage with utilization near 1.0 is the pipeline's bottleneck
        (the paper identifies its GPU-compute stage this way in Fig. 10's
        discussion); stages near 0 are over-provisioned.
        """
        if wall_seconds <= 0:
            raise ValueError("wall time must be positive")
        return {
            s.name: s.busy_seconds / (s.workers * wall_seconds)
            for s in self.stages
        }
