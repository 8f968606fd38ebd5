"""Stage supervision: per-item deadlines and whole-pipeline stall detection.

A pipelined stitch can wedge in two distinct ways that the tile read's
retry policy cannot see:

- **item hang** -- one handler invocation never returns (a stuck read, a
  dead remote filesystem, an injected :class:`FaultKind.HANG`); a retry
  only follows a failure, and a true hang never fails.
- **pipeline stall** -- every worker is blocked (e.g. a wedged worker
  starves its consumers) and ``Pipeline.join()`` would wait forever.

The :class:`Watchdog` is one daemon thread polling the supervised
pipeline's progress counters and per-worker in-flight table.  An item past
its deadline gets its :class:`~repro.recovery.cancel.CancelToken`
cancelled -- cooperative code raises
:class:`~repro.recovery.cancel.ItemCancelled`.  In phase 1 only the tile
read polls its token, so the disposition is the kernel's read policy
(:meth:`repro.core.kernel.Phase1Kernel.try_read`): a cancelled read is
never retried, and under ``skip`` the tile is dropped exactly like any
other exhausted read, flowing into the ledger's cancellation of its
pairs and the degraded stitch; under ``abort`` the run fails.  An item that ignores its cancelled token past
the escalation grace, or a pipeline making no progress for
``stall_timeout`` seconds, triggers **escalation**: the watchdog aborts
the pipeline (closing every queue so blocked workers unblock), records a
structured :class:`StallReport`, and the supervised ``Pipeline.join()``
returns/raises promptly instead of deadlocking.

The watchdog never imports the pipeline package (it duck-types the
``stages``/``queues``/``abort`` surface): the staged graph of
``pipeline/graph.py`` and the CPU schedule's tile reads
(:class:`SupervisedReads`) are both supervised through it, and both wait
for their threads with the one :func:`join_supervised`.  The failure
types of a phase-1 run -- :class:`PipelineError` and its
:class:`PipelineStallError` -- live here too, beside what raises them.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any

from repro.grid.tile_grid import GridPosition
from repro.recovery.cancel import current_token, enter_item, exit_item


@dataclass(frozen=True)
class WatchdogConfig:
    """Supervision thresholds.

    ``item_deadline``
        Per-item wall-clock budget (seconds); an in-flight item past this
        gets its cancel token flagged.  ``None`` disables per-item
        supervision (stall detection still runs).
    ``stall_timeout``
        Whole-pipeline no-progress budget (seconds): if no stage
        processes an item and no queue moves for this long while work is
        still in flight or queued, the pipeline is declared stalled.
    ``escalation_grace``
        A multiple of the deadline that fired, twice over: a *cancelled*
        item may remain in flight ``escalation_grace * item_deadline``
        longer before the watchdog concludes the handler is not
        cooperating and escalates to pipeline abort; once it has
        escalated, :func:`join_supervised` gives the threads
        ``escalation_grace`` times the deadline that fired
        (``item_deadline`` for an item hang, ``stall_timeout`` for a
        stall) to wind down before it abandons them.
    ``poll_interval``
        Watchdog wake-up period (seconds).  Detection latency is at most
        one poll past the configured deadline.
    """

    item_deadline: float | None = None
    stall_timeout: float = 30.0
    escalation_grace: float = 1.0
    poll_interval: float = 0.05

    def __post_init__(self) -> None:
        if self.item_deadline is not None and self.item_deadline <= 0:
            raise ValueError(f"item_deadline must be > 0, got {self.item_deadline}")
        if self.stall_timeout <= 0:
            raise ValueError(f"stall_timeout must be > 0, got {self.stall_timeout}")
        if self.poll_interval <= 0:
            raise ValueError(f"poll_interval must be > 0, got {self.poll_interval}")


@dataclass
class Intervention:
    """One watchdog action against a supervised item."""

    stage: str
    worker_index: int
    key: str | None
    elapsed: float
    action: str  # "cancelled" | "escalated"


@dataclass
class StallReport:
    """Structured account of why (and how) the watchdog intervened.

    ``kind`` is ``"item_hang"`` (a cancelled item would not die) or
    ``"pipeline_stall"`` (no progress anywhere).  The watchdog builds one
    only when it escalates; cancellations the handlers honoured count in
    its ``watchdog.cancelled`` metric instead.
    """

    pipeline: str
    kind: str | None = None
    escalated: bool = False
    detail: str = ""
    interventions: list[Intervention] = field(default_factory=list)
    #: ``stage -> [ {worker, key, elapsed} ]`` snapshot at escalation time.
    inflight: dict[str, list[dict]] = field(default_factory=dict)
    #: Stage/queue progress counters at escalation time.
    progress: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "pipeline": self.pipeline,
            "kind": self.kind,
            "escalated": self.escalated,
            "detail": self.detail,
            "interventions": [
                {
                    "stage": i.stage,
                    "worker": i.worker_index,
                    "key": i.key,
                    "elapsed": round(i.elapsed, 4),
                    "action": i.action,
                }
                for i in self.interventions
            ],
            "inflight": self.inflight,
            "progress": self.progress,
        }


class Watchdog:
    """One supervision thread over a running pipeline.

    ``pipeline`` must expose ``name``, ``stages`` (each with ``name``,
    ``items_processed``, and an ``inflight()`` snapshot of
    ``(worker_index, key, started_monotonic, token)`` tuples), ``queues``
    (each with ``total_put``/``total_get``/``depth()``/``closed``) and
    ``abort()``.
    """

    def __init__(self, pipeline, config: WatchdogConfig, metrics=None) -> None:
        self.pipeline = pipeline
        self.config = config
        self.metrics = metrics
        self.interventions: list[Intervention] = []
        self._report: StallReport | None = None
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._lock = threading.Lock()

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "Watchdog":
        if self._thread is not None:
            raise RuntimeError("watchdog already started")
        self._thread = threading.Thread(
            target=self._run, name=f"watchdog-{self.pipeline.name}", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)

    @property
    def escalated(self) -> bool:
        return self._report is not None and self._report.escalated

    def report(self) -> StallReport | None:
        """The escalation report, or ``None`` while the watchdog has not
        escalated."""
        with self._lock:
            return self._report

    # -- supervision loop ----------------------------------------------------

    def _progress_counter(self) -> int:
        total = 0
        for s in self.pipeline.stages:
            total += s.items_processed
        for q in self.pipeline.queues:
            total += q.total_put + q.total_get
        return total

    def _work_outstanding(self) -> bool:
        """Anything in flight or queued?  An idle-but-done pipeline is not
        a stall; join() returns and stops the watchdog on its own."""
        for s in self.pipeline.stages:
            if s.inflight():
                return True
        for q in self.pipeline.queues:
            if q.depth() > 0 and not q.closed:
                return True
        return False

    def _run(self) -> None:
        cfg = self.config
        last_progress = self._progress_counter()
        last_progress_t = time.monotonic()
        while not self._stop.wait(cfg.poll_interval):
            now = time.monotonic()

            # -- per-item deadlines ----------------------------------------
            if cfg.item_deadline is not None:
                for stage in self.pipeline.stages:
                    for worker, key, t0, token in stage.inflight():
                        if token is None:
                            continue
                        elapsed = now - t0
                        if elapsed <= cfg.item_deadline:
                            continue
                        if not token.cancelled:
                            token.cancel(
                                f"watchdog: stage {stage.name!r} item {key!r} "
                                f"exceeded {cfg.item_deadline}s deadline "
                                f"({elapsed:.3f}s elapsed)"
                            )
                            self._record(Intervention(
                                stage.name, worker, key, elapsed, "cancelled"
                            ))
                        elif elapsed > cfg.item_deadline * (1.0 + cfg.escalation_grace):
                            # Cancelled long ago and still running: the
                            # handler is not cooperating.  Clean shutdown
                            # beats an eternal join().
                            self._record(Intervention(
                                stage.name, worker, key, elapsed, "escalated"
                            ))
                            self._escalate(
                                "item_hang",
                                f"stage {stage.name!r} item {key!r} ignored "
                                f"cancellation for {elapsed:.3f}s "
                                f"(deadline {cfg.item_deadline}s)",
                            )
                            return

            # -- whole-pipeline stall --------------------------------------
            progress = self._progress_counter()
            if progress != last_progress:
                last_progress = progress
                last_progress_t = now
            elif now - last_progress_t > cfg.stall_timeout:
                if self._work_outstanding():
                    self._escalate(
                        "pipeline_stall",
                        f"no progress for {now - last_progress_t:.3f}s "
                        f"(stall_timeout {cfg.stall_timeout}s) with work "
                        f"outstanding",
                    )
                    return
                # Quiescent with nothing queued: let join() wind us down.
                last_progress_t = now

    def _record(self, intervention: Intervention) -> None:
        with self._lock:
            self.interventions.append(intervention)
        if self.metrics is not None:
            self.metrics.counter(
                f"watchdog.{intervention.action}"
            ).inc()

    def _escalate(self, kind: str, detail: str) -> None:
        now = time.monotonic()
        inflight: dict[str, list[dict]] = {}
        for stage in self.pipeline.stages:
            snap = [
                {"worker": w, "key": k, "elapsed": round(now - t0, 4)}
                for w, k, t0, _tok in stage.inflight()
            ]
            if snap:
                inflight[stage.name] = snap
        progress = {
            "stages": {
                s.name: s.items_processed for s in self.pipeline.stages
            },
            "queues": {
                q.name: {"put": q.total_put, "get": q.total_get,
                         "depth": q.depth()}
                for q in self.pipeline.queues
            },
        }
        with self._lock:
            self._report = StallReport(
                pipeline=self.pipeline.name,
                kind=kind,
                escalated=True,
                detail=detail,
                interventions=list(self.interventions),
                inflight=inflight,
                progress=progress,
            )
        if self.metrics is not None:
            self.metrics.counter("watchdog.escalations").inc()
        # Closing every queue unblocks all workers; stages treat
        # QueueClosed as shutdown, so this is the clean path out.
        self.pipeline.abort()


class PipelineError(RuntimeError):
    """One or more workers of a phase-1 run raised.

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
    """The watchdog escalated: a hung item or a whole-run stall.

    Raised in place of an eternal wait.  ``report`` is the watchdog's
    structured :class:`StallReport` (what hung, where, for how long, and
    the progress counters at escalation time); ``abandoned_threads``
    names daemon workers that were still alive when
    :func:`join_supervised` gave up waiting on them.
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

    @classmethod
    def escalated(cls, watchdog: Watchdog, abandoned_threads: list[str],
                  failures=None) -> "PipelineStallError":
        """The error for ``watchdog``'s escalation."""
        report = watchdog.report()
        return cls(
            f"pipeline {report.pipeline!r} stalled ({report.kind}): "
            f"{report.detail}",
            report=report,
            failures=failures,
            abandoned_threads=abandoned_threads,
        )


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


def join_supervised(threads: list[threading.Thread],
                    watchdog: Watchdog) -> list[str]:
    """Wait for ``threads`` under a started ``watchdog``, polling every
    ``poll_interval``; once it escalates, give them ``escalation_grace``
    times the deadline that fired (:class:`WatchdogConfig`), then abandon
    the ones still wedged -- daemons -- and return their names."""
    cfg = watchdog.config
    abandon_at: float | None = None
    while alive := [t for t in threads if t.is_alive()]:
        if abandon_at is None and watchdog.escalated:
            fired = (cfg.item_deadline if watchdog.report().kind == "item_hang"
                     else cfg.stall_timeout)
            abandon_at = time.monotonic() + cfg.escalation_grace * fired
        elif abandon_at is not None and time.monotonic() >= abandon_at:
            return [t.name for t in alive]
        alive[0].join(cfg.poll_interval)
    return []


class SupervisedReads:
    """A tile loader as the one stage a watchdog supervises (in phase 1
    only the read polls a cancel token).  Each call runs under its own
    token, listed in flight while it runs; once the watchdog aborts the
    run, every later read is cancelled before it starts, so the threads
    still running wind down instead of computing on."""

    name = "read"

    def __init__(self, load_tile) -> None:
        self.load_tile = load_tile
        self.items_processed = 0
        self.aborted = False
        self._inflight: dict[int, tuple] = {}
        self._lock = threading.Lock()

    def inflight(self) -> list[tuple]:
        return list(self._inflight.values())

    def abort(self) -> None:
        self.aborted = True

    def __call__(self, row: int, col: int):
        worker = threading.get_ident()
        prev = enter_item(self._inflight, worker, str(GridPosition(row, col)))
        try:
            if self.aborted:
                token = current_token()
                token.cancel("the run was aborted by its watchdog")
                token.raise_if_cancelled()
            return self.load_tile(row, col)
        finally:
            exit_item(self._inflight, worker, prev)
            with self._lock:
                self.items_processed += 1
