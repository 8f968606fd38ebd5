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
``stages``/``queues``/``abort`` surface), so ``pipeline/graph.py`` can
import *it* without a cycle.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any


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
        Extra multiple of ``item_deadline`` a *cancelled* item may remain
        in flight before the watchdog concludes the handler is not
        cooperating and escalates to pipeline abort.
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
    ``"pipeline_stall"`` (no progress anywhere); ``escalated`` is False
    when every intervention was handled cooperatively and the pipeline
    finished on its own.
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
    (each with ``total_put``/``total_get``/``depth()``) and ``abort()``.
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
        """The escalation report, or a non-escalated summary of cooperative
        cancellations, or ``None`` when the watchdog never intervened."""
        with self._lock:
            if self._report is not None:
                return self._report
            if self.interventions:
                return StallReport(
                    pipeline=self.pipeline.name,
                    kind="item_hang",
                    escalated=False,
                    detail=(
                        f"{len(self.interventions)} item(s) cancelled "
                        f"cooperatively; pipeline completed"
                    ),
                    interventions=list(self.interventions),
                )
            return None

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
