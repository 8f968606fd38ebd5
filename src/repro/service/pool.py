"""Persistent warm worker pool: forked processes that outlive their jobs.

Copik's parallel-registration thesis motivates the core economics here:
per-job startup cost (process spawn, FFT planning, import time) must
amortize to zero under sustained traffic, which means workers are
*persistent* -- each holds a warm :class:`~repro.fftlib.plans.PlanCache`
across jobs, so the second same-geometry job plans nothing and reports
``plan_cache.hits > 0``.

Durability and supervision reuse the recovery layer wholesale:

- every job runs with ``Stitcher(checkpoint=<spool>/jobs/<id>/ckpt)``,
  so its :class:`~repro.recovery.journal.RunJournal` is the per-job
  durability store.  A worker SIGKILLed mid-phase-1 loses nothing
  durable; the pool detects the death, re-queues the job (within its
  retry budget), and the next attempt resumes from the journal --
  recomputing only un-journaled pairs, positions bit-identical;
- each running job is supervised by a
  :class:`~repro.recovery.watchdog.Watchdog` over a small adapter that
  presents the job as a one-item pipeline whose progress counter is the
  journal's durable record count.  A job past its deadline gets its
  token cancelled (the dispatcher kills the worker and re-queues); a
  job writing no journal records for ``stall_timeout`` seconds
  escalates the same way.

The dispatcher side is one thread per worker slot: take a job from the
:class:`~repro.service.queue.JobQueue`, ship it over the worker's pipe,
supervise, classify the outcome (done / failed / died-requeue /
cancelled), respawn the worker if it died.  All shared state mutation
(job records, metrics) happens on the dispatcher threads; the registry
is thread-safe.
"""

from __future__ import annotations

import json
import multiprocessing as mp
import os
import threading
import time
import traceback
from dataclasses import replace
from pathlib import Path

from repro.recovery.cancel import CancelToken
from repro.recovery.harness import count_journal_records
from repro.recovery.journal import checkpoint_journal_path
from repro.recovery.watchdog import Watchdog, WatchdogConfig
from repro.service.jobs import JobRecord, JobState, stitch_keys_of
from repro.service.queue import JobQueue
from repro.service.resilience import (
    CircuitBreaker,
    PoisonTracker,
    ResilienceConfig,
    describe_exit,
)

#: Default supervision thresholds for service jobs: no per-job deadline
#: unless the spec names one, and a generous no-journal-progress window
#: (phase 2/3 legitimately write no pair records).
DEFAULT_WATCHDOG = WatchdogConfig(
    item_deadline=None, stall_timeout=120.0, poll_interval=0.05
)


# -- worker process side -----------------------------------------------------


def _write_atomic(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _execute_job(msg: dict, warm: dict) -> dict:
    """Run one job in the worker; returns the reply summary payload."""
    import numpy as np

    from repro.core.global_opt import GlobalPositions
    from repro.core.options import StitchOptions
    from repro.core.stitcher import Stitcher
    from repro.io.dataset import TileDataset

    spec = msg["spec"]
    flat = spec.get("options", {})
    options = StitchOptions.from_flat(stitch_keys_of(flat))
    job_dir = Path(msg["job_dir"])
    job_dir.mkdir(parents=True, exist_ok=True)
    dataset = TileDataset(spec["dataset"])
    if spec.get("inject_faults"):
        from repro.faults import FaultPlan

        plan = FaultPlan.from_spec(
            spec["inject_faults"], dataset.rows, dataset.cols
        )
        dataset = plan.wrap_dataset(dataset)

    plan_cache = warm["plan_cache"]
    hits0, misses0 = plan_cache.hits, plan_cache.misses
    shapes0 = {
        (tuple(row["shape"]), row["kind"]): (row["hits"], row["misses"])
        for row in plan_cache.stats()["per_shape"]
    }
    t0 = time.perf_counter()
    skipped: list = []
    summary: dict = {}

    reuse_path = msg.get("reuse_positions_path")
    if reuse_path is not None:
        # Parameter-reuse job: apply a completed job's solved positions
        # to this dataset (same scan, another channel/plane) -- phase 3
        # only, the cheap job shape of multi-channel acquisition.
        payload = json.loads(Path(reuse_path).read_text())
        positions = np.asarray(payload["positions"], dtype=np.int64)
        if positions.shape != (dataset.rows, dataset.cols, 2):
            raise ValueError(
                f"reused positions shape {positions.shape} does not fit "
                f"dataset grid {dataset.rows}x{dataset.cols}"
            )
        gp = GlobalPositions(positions=positions, method="reused")
        summary.update({
            "kind": "reuse",
            "pairs": 0,
            "reused_from": msg.get("reuse_source_job"),
            "phase1_seconds": 0.0,
            "phase2_seconds": 0.0,
        })
    else:
        result = Stitcher(
            options, cache=plan_cache, checkpoint=str(job_dir / "ckpt"),
            metrics=True,
        ).stitch(dataset)
        gp = result.positions
        skipped = result.skipped_tiles()
        summary.update({
            "kind": "full",
            "pairs": int(result.stats.get("pairs", 0)),
            "phase1_seconds": result.phase1_seconds,
            "phase2_seconds": result.phase2_seconds,
            "journal": result.stats.get("journal"),
            "degraded_tiles": len(gp.degraded_tiles()),
            "skipped_tiles": [list(rc) for rc in skipped],
        })
        if "quality_report" in result.stats:
            summary["quality_report"] = result.stats["quality_report"]
        for key in ("coarse_hits", "full_fallbacks"):
            if key in result.stats:
                summary[key] = int(result.stats[key])

    positions_path = job_dir / "positions.json"
    _write_atomic(
        positions_path,
        json.dumps({
            "positions": gp.positions.tolist(),
            "method": gp.method,
            "degraded": [list(rc) for rc in gp.degraded_tiles()],
            "skipped": [list(rc) for rc in skipped],
        }),
    )
    if spec.get("output"):
        from repro.core.streamcompose import stream_compose_to_tiff

        sres = stream_compose_to_tiff(
            spec["output"],
            lambda r, c: dataset.load(r, c, dtype=None),
            gp, dataset.tile_shape,
            blend=spec.get("blend", "overlay"),
            memory_budget=flat.get("memory_budget"),
            pyramid_levels=flat.get("pyramid_levels") or 0,
            skip_tiles=skipped,
            on_tile_error=options.on_tile_error,
        )
        summary["output"] = spec["output"]
        summary["compose"] = {
            "stripes": sres.stripes,
            "band_rows": sres.band_rows,
            "peak_bytes": sres.peak_bytes,
            "memory_budget": sres.memory_budget,
            "cache": sres.cache,
            "pyramid": [str(p) for p in sres.pyramid_paths],
        }

    warm["jobs_served"] += 1
    summary.update({
        "job_seconds": time.perf_counter() - t0,
        "positions_path": str(positions_path),
        "plan_cache": {
            "hits": plan_cache.hits - hits0,
            "misses": plan_cache.misses - misses0,
            "entries": len(plan_cache),
            # Per-(shape, kind) deltas for *this* job: a warm worker's
            # second same-geometry job shows hits and no misses on every
            # row -- including the coarse-shape rows when the job ran
            # coarse-to-fine registration.
            "per_shape": [
                {
                    **row,
                    "hits": row["hits"] - shapes0.get(
                        (tuple(row["shape"]), row["kind"]), (0, 0))[0],
                    "misses": row["misses"] - shapes0.get(
                        (tuple(row["shape"]), row["kind"]), (0, 0))[1],
                }
                for row in plan_cache.stats()["per_shape"]
            ],
        },
        "worker_jobs_served": warm["jobs_served"],
        "worker_pid": os.getpid(),
    })
    return summary


def _worker_main(conn, worker_id: int) -> None:
    """Worker loop: serve jobs from the pipe until told to shut down.

    The warm dict survives across jobs -- that persistence is the whole
    point of the pool.  Every exception is reported back as a failed
    job, never a dead worker; only SIGKILL (or a shutdown message) ends
    the loop.
    """
    from repro.fftlib.plans import PlanCache

    warm = {"plan_cache": PlanCache(), "jobs_served": 0}
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break
        if msg is None or msg.get("op") == "shutdown":
            break
        try:
            summary = _execute_job(msg, warm)
            conn.send({"id": msg["id"], "ok": True, "summary": summary})
        except Exception as exc:
            conn.send({
                "id": msg["id"],
                "ok": False,
                "error": f"{type(exc).__name__}: {exc}",
                "error_type": type(exc).__name__,
                "traceback": traceback.format_exc(limit=8),
            })


# -- parent side -------------------------------------------------------------


class _JobRun:
    """Watchdog adapter: one running job as a one-item, no-queue pipeline.

    Progress (``items_processed``) is the job journal's durable record
    count, so "stall" means *no durable progress*, not merely no return
    value.  ``abort`` SIGKILLs the worker -- the escalation path; the
    fsync'd journal is exactly what makes that safe.
    """

    def __init__(self, name: str, journal_path: Path, token: CancelToken,
                 kill) -> None:
        self.name = name
        self._journal_path = journal_path
        self.token = token
        self._kill = kill
        self._t0 = time.monotonic()
        self.stages = [self]
        self.queues: list = []

    @property
    def items_processed(self) -> int:
        return count_journal_records(self._journal_path)

    def inflight(self):
        return [(0, self.name, self._t0, self.token)]

    def abort(self) -> None:
        self._kill()


class _WorkerHandle:
    """One persistent worker process plus its parent-side pipe end."""

    def __init__(self, ctx, worker_id: int) -> None:
        self.worker_id = worker_id
        self.conn, child_conn = ctx.Pipe(duplex=True)
        self.process = ctx.Process(
            target=_worker_main,
            args=(child_conn, worker_id),
            name=f"stitch-worker-{worker_id}",
            daemon=True,
        )
        self.process.start()
        child_conn.close()
        self.jobs_served = 0

    @property
    def pid(self) -> int | None:
        return self.process.pid

    def alive(self) -> bool:
        return self.process.is_alive()

    def kill(self) -> None:
        try:
            self.process.kill()
        except (OSError, ValueError):  # pragma: no cover - defensive
            pass

    def shutdown(self, timeout: float = 5.0) -> None:
        if self.alive():
            try:
                self.conn.send({"op": "shutdown"})
            except (OSError, BrokenPipeError):
                pass
        self.process.join(timeout=timeout)
        if self.alive():
            self.kill()
            self.process.join(timeout=timeout)
        self.conn.close()


class WorkerPool:
    """N persistent workers draining a :class:`JobQueue`.

    ``resolve_positions(job_id) -> (path, source_id)`` is supplied by
    the service layer to turn ``reuse_positions_from`` references into
    concrete result files (and to enforce that the source job is DONE).
    ``on_transition(record)`` fires after every state change the pool
    makes -- the server uses it for bookkeeping; tests use it to block
    until a job settles.
    """

    def __init__(
        self,
        queue: JobQueue,
        spool_dir: str | Path,
        workers: int = 2,
        metrics=None,
        watchdog: WatchdogConfig = DEFAULT_WATCHDOG,
        resolve_positions=None,
        on_transition=None,
        clock=time.monotonic,
        resilience: ResilienceConfig | None = None,
        tracer=None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"need at least one worker, got {workers}")
        self.queue = queue
        self.spool_dir = Path(spool_dir)
        self.workers = workers
        self.metrics = metrics
        self.watchdog_config = watchdog
        self.resolve_positions = resolve_positions
        self.on_transition = on_transition
        self.clock = clock
        self.tracer = tracer
        self.resilience = resilience or ResilienceConfig()
        #: Crash-loop breaker gating every dispatch (see resilience.py).
        self.breaker = CircuitBreaker(
            self.resilience.breaker, clock=clock, metrics=metrics,
            tracer=tracer,
        )
        #: Per-job worker-death attribution feeding quarantine decisions.
        self.poison = PoisonTracker(
            self.resilience.quarantine_threshold, clock=clock
        )
        self._ctx = mp.get_context(
            "fork" if "fork" in mp.get_all_start_methods() else "spawn"
        )
        self._handles: list[_WorkerHandle | None] = [None] * workers
        self._threads: list[threading.Thread] = []
        #: Consecutive deaths per slot, resetting on a surviving reply --
        #: the exponent of the respawn backoff.
        self._consecutive_deaths: dict[int, int] = {}
        self._stopping = threading.Event()
        self._lock = threading.Lock()
        self._started = False

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "WorkerPool":
        if self._started:
            raise RuntimeError("pool already started")
        self._started = True
        self.spool_dir.mkdir(parents=True, exist_ok=True)
        for i in range(self.workers):
            self._handles[i] = _WorkerHandle(self._ctx, i)
            t = threading.Thread(
                target=self._dispatch_loop, args=(i,),
                name=f"dispatch-{i}", daemon=True,
            )
            self._threads.append(t)
            t.start()
        if self.metrics is not None:
            self.metrics.gauge("service.workers").set(self.workers)
        return self

    def stop(self, timeout: float = 10.0) -> None:
        self._stopping.set()
        self.queue.close()
        for t in self._threads:
            t.join(timeout=timeout)
        for handle in self._handles:
            if handle is not None:
                handle.shutdown()

    def worker_pids(self) -> list[int | None]:
        return [h.pid if h is not None else None for h in self._handles]

    def worker_stats(self) -> list[dict]:
        return [
            {
                "worker": i,
                "pid": h.pid if h is not None else None,
                "alive": h.alive() if h is not None else False,
                "jobs_served": h.jobs_served if h is not None else 0,
            }
            for i, h in enumerate(self._handles)
        ]

    # -- job paths -----------------------------------------------------------

    def job_dir(self, job_id: str) -> Path:
        return self.spool_dir / "jobs" / job_id

    def journal_path(self, job_id: str) -> Path:
        return checkpoint_journal_path(self.job_dir(job_id) / "ckpt")

    def positions_path(self, job_id: str) -> Path:
        return self.job_dir(job_id) / "positions.json"

    # -- dispatch ------------------------------------------------------------

    def _dispatch_loop(self, slot: int) -> None:
        while not self._stopping.is_set():
            # The breaker is the dispatch gate: CLOSED serves normally,
            # OPEN makes every slot wait out the cooldown, HALF_OPEN
            # grants exactly one canary permit at a time.
            permit = self.breaker.acquire()
            if permit is None:
                self._stopping.wait(0.05)
                continue
            record = self.queue.take(timeout=0.1)
            if record is None:
                self.breaker.abandon(permit)
                continue
            if record.cancel_requested:
                self.breaker.abandon(permit)
                self._finish(record, JobState.CANCELLED)
                continue
            died = False
            try:
                died = self._run_job(slot, record) == "died"
            except Exception as exc:  # pragma: no cover - defensive
                record.error = f"dispatcher error: {exc}"
                self._finish(record, JobState.FAILED)
            finally:
                self.breaker.release(permit, died)

    def _ensure_worker(self, slot: int) -> _WorkerHandle:
        handle = self._handles[slot]
        if handle is None or not handle.alive():
            if handle is not None:
                handle.shutdown(timeout=1.0)
                self._count("service.workers_respawned")
            handle = _WorkerHandle(self._ctx, slot)
            self._handles[slot] = handle
        return handle

    def _run_job(self, slot: int, record: JobRecord) -> str:
        """Run one job on this slot; returns ``"done"`` or ``"died"``."""
        handle = self._ensure_worker(slot)
        record.transition(JobState.RUNNING)
        record.attempts += 1
        record.started_at = self.clock()
        record.worker = slot
        self._notify(record)
        self._count("service.jobs_started")

        msg = {
            "id": record.id,
            "spec": record.spec.to_dict(),
            "job_dir": str(self.job_dir(record.id)),
        }
        if record.spec.reuse_positions_from is not None:
            if self.resolve_positions is None:
                record.error = "this pool cannot resolve reuse jobs"
                self._finish(record, JobState.FAILED)
                return "done"
            try:
                path, source = self.resolve_positions(
                    record.spec.reuse_positions_from
                )
            except Exception as exc:
                record.error = f"cannot reuse positions: {exc}"
                record.error_type = type(exc).__name__
                self._finish(record, JobState.FAILED)
                return "done"
            msg["reuse_positions_path"] = str(path)
            msg["reuse_source_job"] = source

        try:
            handle.conn.send(msg)
        except (OSError, BrokenPipeError):
            self._handle_death(slot, record)
            return "died"

        outcome = self._supervise(slot, handle, record)
        if outcome in ("died", "deadline"):
            self._handle_death(
                slot, record,
                cause="deadline" if outcome == "deadline" else "worker_death",
            )
            return "died"
        return "done"

    def _supervise(self, slot: int, handle: _WorkerHandle,
                   record: JobRecord) -> str:
        """Wait for the worker's reply under watchdog supervision.

        Returns ``"done"`` when a reply was handled (success or worker-
        reported failure, or cancellation), ``"died"`` when the worker
        process went away without replying, and ``"deadline"`` when the
        watchdog's deadline escalation killed it.
        """
        cfg = self.watchdog_config
        if record.spec.deadline_seconds is not None:
            cfg = replace(cfg, item_deadline=record.spec.deadline_seconds)
        run = _JobRun(
            f"job-{record.id}", self.journal_path(record.id),
            CancelToken(), handle.kill,
        )
        watchdog = Watchdog(run, cfg, metrics=self.metrics).start()
        try:
            while True:
                try:
                    if handle.conn.poll(0.05):
                        reply = handle.conn.recv()
                        self._handle_reply(handle, record, reply)
                        return "done"
                except (EOFError, OSError):
                    return "died"
                if not handle.alive():
                    # Killed (by the watchdog's abort, a test's SIGKILL,
                    # or the OS); there may still be a buffered reply.
                    try:
                        if handle.conn.poll(0):
                            reply = handle.conn.recv()
                            self._handle_reply(handle, record, reply)
                            return "done"
                    except (EOFError, OSError):
                        pass
                    return "died"
                if record.cancel_requested:
                    handle.kill()
                    handle.process.join(timeout=5.0)
                    self._finish(record, JobState.CANCELLED)
                    self._ensure_worker(slot)
                    return "done"
                if run.token.cancelled:
                    # Watchdog flagged the deadline; there is no
                    # cooperative path into another process, so the
                    # dispatcher is the cooperation: kill and requeue.
                    self._count("service.jobs_deadline_killed")
                    handle.kill()
                    handle.process.join(timeout=5.0)
                    return "deadline"
        finally:
            watchdog.stop()

    def _handle_reply(self, handle: _WorkerHandle, record: JobRecord,
                      reply: dict) -> None:
        self._consecutive_deaths[record.worker or 0] = 0
        if reply.get("ok"):
            summary = reply["summary"]
            handle.jobs_served = summary.get(
                "worker_jobs_served", handle.jobs_served + 1
            )
            record.result = summary
            self.poison.forget(record.id)
            self._finish(record, JobState.DONE)
            self._observe_success(record, summary)
        else:
            record.error = reply.get("error", "unknown worker error")
            record.error_type = reply.get(
                "error_type",
                (record.error or "").split(":", 1)[0] or None,
            )
            record.last_milestone = self._last_milestone(record.id)
            record.result = {"traceback": reply.get("traceback")}
            self._finish(record, JobState.FAILED)

    def _last_milestone(self, job_id: str) -> str | None:
        """Latest journal milestone the job durably reached, if any."""
        from repro.recovery.journal import load_journal

        try:
            state = load_journal(self.journal_path(job_id))
        except OSError:  # pragma: no cover - defensive
            return None
        if not state.milestones:
            return None
        return next(reversed(state.milestones))

    def _respawn(self, slot: int) -> None:
        """Replace a dead worker after the breaker's paced backoff.

        Capped exponential in the slot's consecutive-death count, with
        deterministic jitter -- the anti-hot-loop half of the crash-loop
        protection (the breaker's dispatch gate is the other half).
        """
        n = self._consecutive_deaths.get(slot, 0) + 1
        self._consecutive_deaths[slot] = n
        delay = self.breaker.respawn_backoff(n)
        if self.metrics is not None:
            self.metrics.histogram("service.respawn_backoff_seconds").observe(
                delay
            )
        if delay > 0:
            self._stopping.wait(delay)
        self._count("service.workers_respawned")
        self._handles[slot] = _WorkerHandle(self._ctx, slot)

    def _handle_death(self, slot: int, record: JobRecord,
                      cause: str = "worker_death") -> None:
        """Worker died without a reply: attribute, respawn (paced), then
        quarantine, requeue or fail.

        The respawn is unconditional: a SIGKILL surfaces as pipe EOF
        *before* ``Process.is_alive()`` flips false, so trusting
        liveness here would hand the requeued attempt straight back to
        the dying worker and burn its retry budget on the same death.
        What is *not* unconditional any more is the requeue: each death
        is attributed to the job that was running, and a job that has
        killed ``quarantine_threshold`` workers is quarantined with a
        post-mortem instead of being given another worker to kill.
        """
        self._count("service.worker_deaths")
        handle = self._handles[slot]
        exitcode = None
        if handle is not None:
            handle.kill()
            handle.process.join(timeout=5.0)
            exitcode = handle.process.exitcode
            handle.shutdown(timeout=5.0)
        sig = "deadline-kill" if cause == "deadline" else describe_exit(exitcode)
        self.breaker.record_death()
        is_poison = self.poison.record_death(
            record.id, record.attempts, sig, cause=cause
        )
        record.death_events.append({
            "attempt": record.attempts, "signal": sig,
            "cause": cause, "at": self.clock(),
        })
        self._respawn(slot)
        if record.cancel_requested:
            self.poison.forget(record.id)
            self._finish(record, JobState.CANCELLED)
            return
        if is_poison:
            self._quarantine(record)
            return
        if record.attempts <= record.spec.retry_budget:
            record.transition(JobState.QUEUED)
            record.worker = None
            self.queue.requeue(record)
            self._notify(record)
        else:
            record.error = (
                f"worker died ({sig}) and retry budget "
                f"({record.spec.retry_budget}) is exhausted after "
                f"{record.attempts} attempt(s)"
            )
            record.error_type = "WorkerDied"
            record.last_milestone = self._last_milestone(record.id)
            self._finish(record, JobState.FAILED)

    def _quarantine(self, record: JobRecord) -> None:
        """Terminal isolation for a poison job, with a post-mortem."""
        pm = self.poison.post_mortem(
            record.id, journal_path=self.journal_path(record.id)
        )
        record.post_mortem = pm
        record.last_milestone = pm.get("last_milestone")
        record.error = (
            f"quarantined: {pm['worker_deaths']} worker death(s) "
            f"attributed to this job (threshold "
            f"{self.poison.threshold}); signals {pm['death_signals']}"
        )
        record.error_type = "PoisonJobQuarantined"
        self._count("service.quarantined_jobs")
        if self.tracer is not None:
            t = self.tracer.now()
            self.tracer.record_span(
                f"quarantine:{record.id}", "service", t, t,
                args={"deaths": pm["worker_deaths"],
                      "signals": pm["death_signals"]},
            )
        self.poison.forget(record.id)
        self._finish(record, JobState.QUARANTINED)
        # The tenant's lane just lost its head-of-line job for good;
        # reset its rotation slot so it is not penalized for the time
        # its poison job monopolized a worker.
        self.queue.rebalance_rotation()

    # -- bookkeeping ---------------------------------------------------------

    def _finish(self, record: JobRecord, state: JobState) -> None:
        record.transition(state)
        record.finished_at = self.clock()
        self._count(f"service.jobs_{state.value}")
        self._notify(record)

    def _observe_success(self, record: JobRecord, summary: dict) -> None:
        if record.started_at is not None and record.finished_at is not None:
            self.queue.note_job_seconds(
                record.finished_at - record.started_at
            )
        if self.metrics is None:
            return
        self.metrics.histogram("service.job_seconds").observe(
            summary.get("job_seconds", 0.0)
        )
        self.metrics.histogram("service.phase1_seconds").observe(
            summary.get("phase1_seconds", 0.0)
        )
        self.metrics.histogram("service.phase2_seconds").observe(
            summary.get("phase2_seconds", 0.0)
        )
        pc = summary.get("plan_cache") or {}
        if pc.get("hits"):
            self.metrics.counter("service.plan_cache_hits").inc(pc["hits"])
        if pc.get("misses"):
            self.metrics.counter("service.plan_cache_misses").inc(pc["misses"])
        # Per-shape reuse counters: coarse-to-fine jobs surface their
        # coarse-shape plan rows here, so /metrics proves the coarse
        # plans are being reused across jobs, not re-planned.
        for row in pc.get("per_shape", []):
            shape = "x".join(str(n) for n in row["shape"])
            base = f"service.plan_cache.{row['kind']}.{shape}"
            if row.get("hits"):
                self.metrics.counter(f"{base}.hits").inc(row["hits"])
            if row.get("misses"):
                self.metrics.counter(f"{base}.misses").inc(row["misses"])
        if "coarse_hits" in summary:
            self.metrics.counter("service.coarse_hits").inc(
                summary["coarse_hits"]
            )
            self.metrics.counter("service.full_fallbacks").inc(
                summary.get("full_fallbacks", 0)
            )
        journal = summary.get("journal") or {}
        self.metrics.counter("service.pairs_resumed").inc(
            int(journal.get("resumed_pairs", 0))
        )
        self.metrics.counter("service.pairs_computed").inc(
            int(summary.get("pairs", 0))
        )

    def _notify(self, record: JobRecord) -> None:
        if self.on_transition is not None:
            self.on_transition(record)

    def _count(self, name: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc()
