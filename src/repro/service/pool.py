"""Persistent warm worker pool: forked processes that outlive their jobs.

Copik's parallel-registration thesis motivates the core economics here:
per-job startup cost (process spawn, import time, FFT set-up) must
amortize to zero under sustained traffic, which means workers are
*persistent* -- each keeps its imports and numpy's per-length FFT tables
across jobs.  The worker's :class:`~repro.fftlib.plans.TransformLedger`
shows it: a second same-geometry job reports ``plan_cache.hits > 0`` and
no misses.

Durability and supervision reuse the recovery layer wholesale:

- every job runs with ``Stitcher(checkpoint=<spool>/jobs/<id>/ckpt)``,
  so its :class:`~repro.recovery.journal.RunJournal` is the per-job
  durability store.  Every record is flushed as it is written, so a
  worker SIGKILLed mid-phase-1 loses none of them; the fsync that also
  guards them against power loss lands once per phase-1 traversal step
  for pair records (group commit), so a power loss costs at most the
  current step's pairs.  The pool detects a death, re-queues the job
  (within its retry budget), and the next attempt resumes from the
  journal -- recomputing only un-journaled pairs, positions
  bit-identical;
- each running job is supervised by its dispatcher thread's own poll
  loop, which waits for the worker's reply: a job past its deadline, or
  whose journal has not grown for ``stall_timeout`` seconds, gets its
  worker killed, and the death is recorded with that cause
  (``deadline-kill`` / ``stall-kill``) before the job is re-queued or
  failed.  No thread is started per job.

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
from pathlib import Path

from repro.recovery.journal import checkpoint_journal_path
from repro.service.jobs import JobRecord, JobState, stitch_keys_of
from repro.service.queue import JobQueue
from repro.service.resilience import (
    CircuitBreaker,
    ResilienceConfig,
    describe_exit,
    journal_progress,
    post_mortem,
)

#: Seconds between the dispatcher's looks at a running job's reply,
#: liveness, cancel flag, deadline and journal.
POLL_INTERVAL = 0.05


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
    from repro.fftlib.plans import default_cache
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

    plan_cache = default_cache()
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
            options, checkpoint=str(job_dir / "ckpt"), metrics=True,
        ).stitch(dataset)
        gp = result.positions
        skipped = result.skipped_tiles()
        summary.update({
            "kind": "full",
            "pairs": int(result.stats.get("pairs", 0)),
            "phase1_seconds": result.phase1_seconds,
            "phase2_seconds": result.phase2_seconds,
            "journal": result.stats.get("journal"),
            # journal.pairs_recorded / .milestones / .fsyncs / ...: the
            # parent folds them into the service registry (/metrics).
            "journal_counters": {
                name: value
                for name, value in result.stats["metrics"]["counters"].items()
                if name.startswith("journal.")
            },
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
            # Per-(shape, kind) deltas of the process's transform ledger
            # for *this* job: a warm worker's second same-geometry job
            # shows hits and no misses on every row -- including the
            # coarse-shape rows when the job ran coarse-to-fine
            # registration.
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


def _worker_main(conn, worker_id: int, parent_pid: int) -> None:
    """Worker loop: serve jobs from the pipe until told to shut down.

    The process -- its imports, numpy's FFT tables, the ``warm`` job
    count -- survives across jobs: that persistence is the whole point
    of the pool.  Every exception is reported back as a failed
    job, never a dead worker; only SIGKILL, a shutdown message or the
    death of ``parent_pid`` (the process that forked it) ends the loop.
    The pipe alone cannot report that death: every worker forked after
    this one holds this one's parent end, so no EOF ever comes.
    """
    from repro.fftlib.plans import default_cache

    # A fork inherits the parent's transform counts: start from zero, so
    # the first job's misses are this worker's own.
    default_cache().clear()
    warm = {"jobs_served": 0}
    while True:
        try:
            if not conn.poll(1.0):
                if os.getppid() != parent_pid:
                    break
                continue
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


class _WorkerHandle:
    """One persistent worker process plus its parent-side pipe end."""

    def __init__(self, ctx, worker_id: int) -> None:
        self.worker_id = worker_id
        self.conn, child_conn = ctx.Pipe(duplex=True)
        self.process = ctx.Process(
            target=_worker_main,
            args=(child_conn, worker_id, os.getpid()),
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
        if outcome == "done":
            return "done"
        self._handle_death(slot, record, cause=outcome)
        return "died"

    def _supervise(self, slot: int, handle: _WorkerHandle,
                   record: JobRecord) -> str:
        """Wait for the worker's reply; the job's only supervisor.

        Returns ``"done"`` when a reply was handled (success or worker-
        reported failure, or cancellation), ``"worker_death"`` when the
        worker process went away without replying, and ``"deadline"`` or
        ``"stall"`` when this loop killed it: the job ran past its
        deadline, or its journal did not grow for ``stall_timeout``
        seconds.  There is no cooperative path into another process, so
        the kill is the cancellation; the flushed journal makes it safe.
        """
        deadline = record.spec.deadline_seconds or self.resilience.job_deadline
        journal = self.journal_path(record.id)
        size, grew_at = 0, record.started_at
        while True:
            try:
                if handle.conn.poll(POLL_INTERVAL):
                    self._handle_reply(handle, record, handle.conn.recv())
                    return "done"
            except (EOFError, OSError):
                return "worker_death"
            if not handle.alive():
                # Killed (a test's SIGKILL, or the OS); there may still
                # be a buffered reply.
                try:
                    if handle.conn.poll(0):
                        self._handle_reply(handle, record, handle.conn.recv())
                        return "done"
                except (EOFError, OSError):
                    pass
                return "worker_death"
            if record.cancel_requested:
                handle.kill()
                handle.process.join(timeout=5.0)
                self._finish(record, JobState.CANCELLED)
                self._ensure_worker(slot)
                return "done"
            now = self.clock()
            try:
                grown = os.stat(journal).st_size
            except OSError:
                grown = 0
            if grown != size:
                size, grew_at = grown, now
            if deadline is not None and now - record.started_at > deadline:
                cause = "deadline"
            elif now - grew_at > self.resilience.stall_timeout:
                cause = "stall"
            else:
                continue
            self._count(f"service.jobs_{cause}_killed")
            handle.kill()
            handle.process.join(timeout=5.0)
            return cause

    def _handle_reply(self, handle: _WorkerHandle, record: JobRecord,
                      reply: dict) -> None:
        self._consecutive_deaths[record.worker or 0] = 0
        if reply.get("ok"):
            summary = reply["summary"]
            handle.jobs_served = summary.get(
                "worker_jobs_served", handle.jobs_served + 1
            )
            record.result = summary
            # Books first: a client woken by the terminal state reads
            # /metrics with this job in them.
            self._observe_success(record, summary)
            self._finish(record, JobState.DONE)
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
        return journal_progress(self.journal_path(job_id))[0]

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
        """Worker died without a reply: record, respawn (paced), then
        quarantine, requeue or fail.

        The respawn is unconditional: a SIGKILL surfaces as pipe EOF
        *before* ``Process.is_alive()`` flips false, so trusting
        liveness here would hand the requeued attempt straight back to
        the dying worker and burn its retry budget on the same death.
        What is *not* unconditional is the requeue: each death is
        recorded on the job that was running (``death_events``, with the
        ``cause`` :meth:`_supervise` returned), and a job that has killed
        ``quarantine_threshold`` workers is quarantined with a
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
        # A kill of the pool's own is named by its cause: "deadline-kill"
        # or "stall-kill".
        sig = (describe_exit(exitcode) if cause == "worker_death"
               else f"{cause}-kill")
        self.breaker.record_death()
        record.death_events.append({
            "attempt": record.attempts, "signal": sig,
            "cause": cause, "at": self.clock(),
        })
        self._respawn(slot)
        if record.cancel_requested:
            self._finish(record, JobState.CANCELLED)
            return
        if self.resilience.quarantines(record):
            self._quarantine(record)
            return
        if record.attempts <= record.spec.retry_budget:
            record.transition(JobState.QUEUED)
            record.worker = None
            self.queue.requeue(record)
            self._notify(record)
        else:
            why = {
                "deadline": "job ran past its deadline",
                "stall": "job's journal did not grow for "
                         f"{self.resilience.stall_timeout:g}s",
            }.get(cause, "worker died")
            record.error = (
                f"{why} ({sig}) and retry budget "
                f"({record.spec.retry_budget}) is exhausted after "
                f"{record.attempts} attempt(s)"
            )
            record.error_type = "WorkerDied"
            record.last_milestone = self._last_milestone(record.id)
            self._finish(record, JobState.FAILED)

    def _quarantine(self, record: JobRecord) -> None:
        """Terminal isolation for a poison job, with a post-mortem."""
        pm = post_mortem(
            record, self.resilience.quarantine_threshold,
            journal_path=self.journal_path(record.id),
        )
        record.post_mortem = pm
        record.last_milestone = pm.get("last_milestone")
        record.error = (
            f"quarantined: {pm['worker_deaths']} worker death(s) "
            f"attributed to this job (threshold "
            f"{pm['threshold']}); signals {pm['death_signals']}"
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
        # Folded into the registry, not kept: the job table holds every
        # record for the life of the service.
        journal_counters = summary.pop("journal_counters", {})
        if record.started_at is not None:
            self.queue.note_job_seconds(self.clock() - record.started_at)
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
        # coarse-shape rows here, so /metrics shows the coarse transforms
        # warm across jobs too.
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
        for name, value in journal_counters.items():
            self.metrics.counter(name).inc(value)
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
