"""Deterministic chaos harness for the stitching service.

The harness drives a real in-process :class:`StitchService` (forked
workers, journals, deadline kills -- nothing mocked) through a seeded
schedule of hostile jobs and environmental events:

- **poison jobs** whose input deterministically SIGKILLs every worker
  that touches it (:data:`FaultKind.CRASH` on a seeded tile) -- the
  quarantine path;
- **deadline jobs** whose injected read latency exceeds their declared
  ``deadline_seconds`` (a clock-skewed client lowballing its budget) --
  the pool's deadline-kill path;
- **data-fault jobs** whose tiles are damaged (dust / saturation) but
  readable -- they must *complete*, exercising the quality gate under
  chaos rather than dying;
- **disk-full events**: a filler file pushes the spool past its byte
  budget mid-run, and submissions during the event must be rejected
  with the ``spool_budget`` reason, then accepted after cleanup;
- **clean jobs** interleaved throughout, whose results must come out
  bit-identical to each other no matter what the chaos did around them.

The schedule is a pure function of the seed (``ChaosSchedule.generate``
uses one ``random.Random(seed)`` stream and nothing else), so a run is
replayable; the *invariants* asserted by :meth:`ChaosReport.verify` are
designed to hold for every seed and every thread interleaving:

1. conservation: ``accepted == done + failed + cancelled + quarantined``
   once the queue is empty and nothing is running;
2. worker deaths are bounded by the schedule (each job's deaths are
   capped by the quarantine threshold);
3. every poison job is quarantined after exactly K worker deaths, with
   a structured post-mortem;
4. clean jobs produce bit-identical positions;
5. the breaker recovers: after a final clean probe job the pool is
   dispatching normally again (breaker CLOSED).

Usable as a pytest fixture (``test_chaos.py``) or standalone for the CI
smoke job::

    PYTHONPATH=src python tests/service/chaos.py --seed 1234 --out DIR
"""

from __future__ import annotations

import argparse
import json
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from random import Random

from repro.service.jobs import JobState
from repro.service.queue import AdmissionRejected
from repro.service.resilience import (
    BreakerConfig,
    BreakerState,
    BrownoutPolicy,
    ResilienceConfig,
)
from repro.service.server import StitchService

#: Worker deaths one job may cause before quarantine (the K of the
#: invariant "quarantine within K deaths").
QUARANTINE_K = 3

#: Spool filler size for the disk-full event; the budget is set to half
#: of this so the filler alone overruns it.
FILLER_BYTES = 4 << 20


@dataclass(frozen=True)
class ChaosJob:
    """One scheduled submission: a job spec plus its chaos class."""

    kind: str          # "clean" | "poison" | "deadline" | "data"
    spec: dict


@dataclass(frozen=True)
class ChaosSchedule:
    """A seeded, replayable mix of hostile and healthy jobs.

    ``disk_full_after`` is the submission index before which the spool
    filler lands (submissions at that index are made during the event).
    """

    seed: int
    jobs: tuple[ChaosJob, ...]
    disk_full_after: int

    @classmethod
    def generate(cls, seed: int, dataset: str, n_jobs: int = 8,
                 ) -> "ChaosSchedule":
        """Pure function of ``seed``: same seed, same schedule, always.

        The mix always contains at least one job of each fault class
        (poison / deadline / data) so a run exercises >= 3 distinct
        fault classes regardless of the draw; the remainder is a seeded
        mix weighted toward clean jobs.
        """
        if n_jobs < 4:
            raise ValueError(f"need >= 4 jobs for full coverage, got {n_jobs}")
        rng = Random(seed)
        kinds = ["poison", "deadline", "data"]
        kinds += rng.choices(
            ["clean", "clean", "clean", "data", "deadline"], k=n_jobs - 3
        )
        rng.shuffle(kinds)
        jobs = []
        for i, kind in enumerate(kinds):
            fault_seed = rng.randrange(1, 10_000)
            spec: dict = {
                "dataset": dataset,
                "tenant": rng.choice(["lab-a", "lab-b", "lab-c"]),
                "priority": rng.randrange(0, 10),
            }
            if kind == "poison":
                # The crash tile kills every fresh worker that reads it;
                # the retry budget exceeds K so quarantine (not budget
                # exhaustion) must be what stops the carnage.
                spec["inject_faults"] = f"{fault_seed}:crash=1"
                spec["retry_budget"] = QUARANTINE_K + 2
            elif kind == "deadline":
                # Injected latency far beyond the declared deadline: the
                # skewed-clock client that promised a 0.4 s job.
                spec["inject_faults"] = f"{fault_seed}:slow=8,latency=0.35"
                spec["deadline_seconds"] = 0.4
                spec["retry_budget"] = 0
            elif kind == "data":
                spec["inject_faults"] = f"{fault_seed}:dust=1,saturate=1"
            jobs.append(ChaosJob(kind, spec))
        return cls(seed=seed, jobs=tuple(jobs),
                   disk_full_after=rng.randrange(1, n_jobs - 1))


@dataclass
class ChaosReport:
    """Everything one chaos run produced, ready for invariant checks."""

    schedule: ChaosSchedule
    records: dict = field(default_factory=dict)   # job id -> record dict
    kinds: dict = field(default_factory=dict)     # job id -> chaos kind
    shed_during_disk_full: int = 0
    queue_stats: dict = field(default_factory=dict)
    state_counts: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)
    breaker: dict = field(default_factory=dict)
    probe_state: str = ""
    probe_positions: list | None = None

    def by_kind(self, kind: str) -> list[dict]:
        return [r for jid, r in self.records.items()
                if self.kinds[jid] == kind]

    # -- the invariants ------------------------------------------------------

    def verify(self) -> list[str]:
        """Check every invariant; returns human-readable failures."""
        failures: list[str] = []

        def check(ok: bool, label: str) -> None:
            if not ok:
                failures.append(label)

        # 1. Conservation at exit: every accepted job is accounted for
        #    in exactly one terminal state, none queued, none running.
        s, c = self.queue_stats, self.state_counts
        terminal = (c["done"] + c["failed"] + c["cancelled"]
                    + c["quarantined"])
        check(
            s["accepted"] == terminal + s["depth"] and s["depth"] == 0
            and c["queued"] == 0 and c["running"] == 0,
            f"conservation: accepted={s['accepted']} != "
            f"done+failed+cancelled+quarantined={terminal} "
            f"(depth={s['depth']}, queued={c['queued']}, "
            f"running={c['running']})",
        )

        # 2. Worker deaths bounded by the schedule: every death is
        #    attributed to a job, and no job may exceed K deaths.
        deaths = self.metrics.get("service.worker_deaths", 0)
        poison = len(self.by_kind("poison"))
        deadline = len(self.by_kind("deadline"))
        bound = poison * QUARANTINE_K + deadline * QUARANTINE_K
        check(deaths <= bound,
              f"deaths unbounded: {deaths} > schedule bound {bound}")

        # 3. Every poison job quarantined after exactly K deaths, with
        #    a structured post-mortem naming each death.
        for record in self.by_kind("poison"):
            jid = record["id"]
            check(record["state"] == "quarantined",
                  f"poison job {jid} ended {record['state']}, "
                  f"not quarantined")
            detail = record.get("error_detail") or {}
            pm = detail.get("post_mortem") or {}
            check(pm.get("worker_deaths") == QUARANTINE_K,
                  f"poison job {jid} post-mortem deaths "
                  f"{pm.get('worker_deaths')} != K={QUARANTINE_K}")
            check(len(detail.get("death_signals") or []) == QUARANTINE_K,
                  f"poison job {jid} death_signals "
                  f"{detail.get('death_signals')}")
            check(detail.get("type") == "PoisonJobQuarantined",
                  f"poison job {jid} error type {detail.get('type')}")
        check(
            self.metrics.get("service.quarantined_jobs", 0) == poison,
            f"quarantine counter {self.metrics.get('service.quarantined_jobs')}"
            f" != poison jobs {poison}",
        )

        # 4. Non-quarantined clean jobs all finish and agree bit-for-bit.
        clean = self.by_kind("clean")
        for record in clean:
            check(record["state"] == "done",
                  f"clean job {record['id']} ended {record['state']}: "
                  f"{record.get('error')}")
        positions = [r["_positions"] for r in clean
                     if r.get("_positions") is not None]
        check(len({json.dumps(p) for p in positions}) <= 1,
              "clean jobs disagree on positions (determinism broken)")
        if self.probe_positions is not None and positions:
            check(self.probe_positions == positions[0],
                  "recovery probe positions differ from in-chaos results")

        # 5. Deadline jobs died by deadline, not by luck.
        for record in self.by_kind("deadline"):
            check(record["state"] == "failed",
                  f"deadline job {record['id']} ended {record['state']}")
            signals = (record.get("error_detail") or {}).get(
                "death_signals") or []
            check("deadline-kill" in signals,
                  f"deadline job {record['id']} signals {signals}")

        # 6. Data-fault jobs complete: damaged pixels are a quality
        #    problem, not a crash.
        for record in self.by_kind("data"):
            check(record["state"] == "done",
                  f"data-fault job {record['id']} ended {record['state']}")

        # 7. Disk-full event actually rejected something, with the
        #    typed reason.
        check(self.shed_during_disk_full >= 1,
              "disk-full event rejected no submissions")

        # 8. Recovery: the post-chaos probe ran to completion and the
        #    breaker is closed again.
        check(self.probe_state == "done",
              f"recovery probe ended {self.probe_state}")
        check(self.breaker.get("state") == "closed",
              f"breaker did not recover: {self.breaker}")
        return failures

    def to_dict(self) -> dict:
        return {
            "seed": self.schedule.seed,
            "jobs": [
                {"kind": self.kinds[jid], **record}
                for jid, record in self.records.items()
            ],
            "shed_during_disk_full": self.shed_during_disk_full,
            "queue": self.queue_stats,
            "states": self.state_counts,
            "breaker": self.breaker,
            "probe_state": self.probe_state,
            "metrics": self.metrics,
        }


class ChaosHarness:
    """Owns one service instance and drives one schedule through it."""

    def __init__(self, root: Path, dataset: str, seed: int,
                 workers: int = 2, n_jobs: int = 8) -> None:
        self.root = Path(root)
        self.dataset = dataset
        self.schedule = ChaosSchedule.generate(seed, dataset, n_jobs=n_jobs)
        self.spool = self.root / "spool"
        self.service = StitchService(
            self.spool,
            workers=workers,
            max_depth=64,
            resilience=ResilienceConfig(
                quarantine_threshold=QUARANTINE_K,
                breaker=BreakerConfig(
                    death_threshold=3,
                    window_seconds=30.0,
                    cooldown_seconds=0.1,
                    max_cooldown_seconds=1.0,
                    respawn_base=0.02,
                    respawn_cap=0.2,
                    jitter=0.5,
                    seed=seed,
                ),
                brownout=BrownoutPolicy(mode="off"),
                spool_budget_bytes=FILLER_BYTES // 2,
                spool_per_job_estimate=1 << 10,
            ),
        )

    def run(self, timeout: float = 180.0) -> ChaosReport:
        report = ChaosReport(schedule=self.schedule)
        self.service.start()
        try:
            submitted: list[str] = []
            filler = self.spool / "chaos-filler.bin"
            for i, job in enumerate(self.schedule.jobs):
                if i == self.schedule.disk_full_after:
                    # Disk-full event: this submission (and only the
                    # ones made while the filler exists) must bounce.
                    filler.write_bytes(b"\0" * FILLER_BYTES)
                    # The budget's accept path trusts its ttl cache;
                    # force the walk so the event is visible *now*
                    # (deterministic), not after the ttl expires.
                    self.service.spool_budget.refresh()
                    try:
                        stray = self.service.submit(dict(job.spec))
                    except AdmissionRejected as exc:
                        if exc.reason == "spool_budget":
                            report.shed_during_disk_full += 1
                    else:
                        # Budget failed to bounce it (itself an invariant
                        # violation, reported by verify) -- but account
                        # for the job so conservation still holds.
                        submitted.append(stray.id)
                        report.kinds[stray.id] = job.kind
                    filler.unlink()
                # Normal (or post-cleanup) submission of the same job.
                record = self.service.submit(dict(job.spec))
                submitted.append(record.id)
                report.kinds[record.id] = job.kind
            for jid in submitted:
                self.service.wait(jid, timeout=timeout)

            # Recovery probe: one clean job after the dust settles must
            # run normally and leave the breaker closed.
            probe = self.service.submit({"dataset": self.dataset,
                                         "tenant": "probe"})
            report.kinds[probe.id] = "probe"
            self.service.wait(probe.id, timeout=timeout)
            report.probe_state = probe.state.value
            if probe.state is JobState.DONE:
                report.probe_positions = json.loads(
                    self.service.pool.positions_path(probe.id).read_text()
                )["positions"]

            for jid in submitted:
                record = self.service.get(jid).to_dict()
                if record["state"] == "done":
                    record["_positions"] = json.loads(
                        self.service.pool.positions_path(jid).read_text()
                    )["positions"]
                report.records[jid] = record
            report.queue_stats = self.service.queue.stats()
            # The probe is part of the run's accounting too.
            report.state_counts = self.service.job_state_counts()
            # wait() wakes on the job's terminal transition, which the
            # dispatcher performs just *before* settling its breaker
            # permit -- so give the canary-success release a bounded
            # window to land before judging recovery.
            deadline = time.monotonic() + 5.0
            while True:
                report.breaker = self.service.pool.breaker.snapshot()
                if (report.breaker["state"] == "closed"
                        or time.monotonic() >= deadline):
                    break
                time.sleep(0.01)
            report.metrics = self.service.metrics.snapshot()["counters"]
        finally:
            self.service.stop()
        return report


def run_chaos(root: Path, seed: int, rows: int = 3, cols: int = 3,
              n_jobs: int = 8, workers: int = 2) -> ChaosReport:
    """Build a synthetic dataset and run one full chaos cycle."""
    from repro.synth import make_synthetic_dataset

    ds = make_synthetic_dataset(
        Path(root) / "dataset", rows=rows, cols=cols,
        tile_height=48, tile_width=48, overlap=0.25, seed=seed % 1000,
    )
    harness = ChaosHarness(Path(root), str(ds.directory), seed,
                           workers=workers, n_jobs=n_jobs)
    return harness.run()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--jobs", type=int, default=8)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--out", type=Path, default=None,
                        help="write chaos-report.json (+ post-mortems) here")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="chaos-") as tmp:
        report = run_chaos(Path(tmp), args.seed, n_jobs=args.jobs,
                           workers=args.workers)
    failures = report.verify()
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        (args.out / "chaos-report.json").write_text(
            json.dumps(report.to_dict(), indent=2, default=str) + "\n"
        )
        quarantined = [r for r in report.records.values()
                       if r["state"] == "quarantined"]
        (args.out / "post-mortems.json").write_text(
            json.dumps(quarantined, indent=2, default=str) + "\n"
        )
    states = report.state_counts
    print(f"chaos seed={args.seed}: "
          f"{states.get('done', 0)} done, "
          f"{states.get('failed', 0)} failed, "
          f"{states.get('quarantined', 0)} quarantined, "
          f"{report.metrics.get('service.worker_deaths', 0)} worker deaths, "
          f"breaker={report.breaker.get('state')}")
    if failures:
        for failure in failures:
            print(f"INVARIANT VIOLATED: {failure}")
        return 1
    print("all chaos invariants held")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
