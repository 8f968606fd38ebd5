"""Full service lifecycle over HTTP: concurrency, warmth, durability.

The acceptance scenarios from the service ISSUE:

- N concurrent jobs on a multi-worker pool produce positions
  bit-identical to a single-shot direct :class:`Stitcher` run;
- a second job on a warm worker reports ``plan_cache.hits > 0`` (and
  zero misses), observable in ``/metrics``;
- a worker SIGKILLed mid-phase-1 leads to a journal-based resume: the
  job is re-queued, finishes on the second attempt, and its positions
  are still bit-identical;
- backpressure (429 + Retry-After) never loses an accepted job.
"""

from __future__ import annotations

import json
import os
import signal
import time

import numpy as np
import pytest

from repro.core.stitcher import Stitcher
from repro.recovery.harness import count_journal_records
from repro.service import BackpressureError, ServiceClient, StitchService
from repro.synth import make_synthetic_dataset


@pytest.fixture(scope="module")
def e2e_ds(tmp_path_factory):
    return make_synthetic_dataset(
        tmp_path_factory.mktemp("e2e-ds"), rows=3, cols=3,
        tile_height=48, tile_width=48, overlap=0.25, seed=7,
    )


@pytest.fixture(scope="module")
def direct_positions(e2e_ds):
    """The single-shot ground line every service run must reproduce."""
    return Stitcher().stitch(e2e_ds).positions.positions


def start_service(tmp_path, **kwargs):
    svc = StitchService(tmp_path / "spool", **kwargs)
    svc.start()
    host, port = svc.start_http()
    return svc, ServiceClient(host, port)


class TestConcurrentBitIdentity:
    def test_eight_jobs_on_four_workers_match_direct_run(
        self, tmp_path, e2e_ds, direct_positions
    ):
        svc, client = start_service(tmp_path, workers=4)
        try:
            ids = [
                client.submit({"dataset": str(e2e_ds.directory),
                               "tenant": f"tenant-{i % 3}"})["id"]
                for i in range(8)
            ]
            records = [client.wait(i, timeout=180) for i in ids]
            assert [r["state"] for r in records] == ["done"] * 8
            for jid in ids:
                got = np.asarray(client.result(jid)["positions"])
                assert np.array_equal(got, direct_positions)
            # The pool really ran them side by side: all four workers
            # served at least one job.
            pids = {r["result"]["worker_pid"] for r in records}
            assert len(pids) == 4
        finally:
            svc.stop()


class TestWarmWorkers:
    def test_second_job_hits_warm_plan_cache(self, tmp_path, e2e_ds):
        svc, client = start_service(tmp_path, workers=1)
        try:
            first = client.wait(
                client.submit({"dataset": str(e2e_ds.directory)})["id"],
                timeout=120,
            )
            second = client.wait(
                client.submit({"dataset": str(e2e_ds.directory)})["id"],
                timeout=120,
            )
            assert first["result"]["plan_cache"]["misses"] > 0
            pc = second["result"]["plan_cache"]
            assert pc["hits"] > 0 and pc["misses"] == 0
            assert second["result"]["worker_jobs_served"] == 2

            # Observable in both metrics endpoints.
            snap = client.metrics()
            assert snap["counters"]["service.plan_cache_hits"] > 0
            text = client.metrics_text()
            hits = next(
                float(line.split()[1])
                for line in text.splitlines()
                if line.startswith("repro_service_plan_cache_hits ")
            )
            assert hits > 0
        finally:
            svc.stop()

    def test_plan_cache_counters_count_each_job_once(self, tmp_path, e2e_ds):
        svc, client = start_service(tmp_path, workers=1)
        try:
            records = [
                client.wait(
                    client.submit({"dataset": str(e2e_ds.directory)})["id"],
                    timeout=120,
                )
                for _ in range(2)
            ]
            counters = client.metrics()["counters"]
            for key in ("hits", "misses"):
                assert counters.get(f"service.plan_cache_{key}", 0) == sum(
                    r["result"]["plan_cache"][key] for r in records
                )
        finally:
            svc.stop()

    def test_reuse_job_skips_registration(self, tmp_path, e2e_ds,
                                          direct_positions):
        svc, client = start_service(tmp_path, workers=1)
        try:
            src = client.wait(
                client.submit({"dataset": str(e2e_ds.directory)})["id"],
                timeout=120,
            )
            reuse = client.wait(
                client.submit({
                    "dataset": str(e2e_ds.directory),
                    "reuse_positions_from": src["id"],
                })["id"],
                timeout=60,
            )
            assert reuse["result"]["kind"] == "reuse"
            assert reuse["result"]["pairs"] == 0
            got = np.asarray(client.result(reuse["id"])["positions"])
            assert np.array_equal(got, direct_positions)
        finally:
            svc.stop()


class TestKillResume:
    def test_sigkill_mid_phase1_resumes_bit_identical(
        self, tmp_path, e2e_ds, direct_positions
    ):
        """SIGKILL the (only) worker once the job's journal shows durable
        phase-1 progress; the service must requeue, resume from the
        journal, and converge to the same positions."""
        svc, client = start_service(tmp_path, workers=1)
        try:
            jid = client.submit({
                "dataset": str(e2e_ds.directory),
                # Slow every readable tile so phase 1 outlives the kill
                # window (faults only add latency, never change pixels).
                "inject_faults": "3:slow=8,latency=0.08",
                "retry_budget": 1,
            })["id"]
            journal = svc.pool.journal_path(jid)
            deadline = time.monotonic() + 60
            while count_journal_records(journal) < 3:  # header + 2 pairs
                assert time.monotonic() < deadline, "no journal progress"
                time.sleep(0.02)
            os.kill(svc.pool.worker_pids()[0], signal.SIGKILL)

            final = client.wait(jid, timeout=180)
            assert final["state"] == "done"
            assert final["attempts"] == 2
            assert final["result"]["journal"]["resumed_pairs"] >= 2

            got = np.asarray(client.result(jid)["positions"])
            assert np.array_equal(got, direct_positions)

            snap = client.metrics()
            assert snap["counters"]["service.worker_deaths"] == 1
            assert snap["counters"]["service.jobs_requeued"] == 1
            assert snap["counters"]["service.pairs_resumed"] >= 2
        finally:
            svc.stop()


class TestBackpressureLifecycle:
    def test_no_accepted_job_lost_under_backpressure(self, tmp_path, e2e_ds):
        """Flood a tiny queue; every 202 must end in `done`, every
        overflow must be a clean 429, and the books must balance."""
        svc, client = start_service(tmp_path, workers=2, max_depth=3,
                                    per_tenant_limit=3)
        try:
            accepted, rejected = [], 0
            # First job warms the EWMA so Retry-After hints are honest.
            accepted.append(
                client.submit({"dataset": str(e2e_ds.directory)})["id"]
            )
            client.wait(accepted[0], timeout=120)
            for _ in range(12):
                try:
                    rec = client.submit({
                        "dataset": str(e2e_ds.directory),
                        "reuse_positions_from": accepted[0],
                    })
                    accepted.append(rec["id"])
                except BackpressureError as exc:
                    rejected += 1
                    assert exc.retry_after > 0
                    time.sleep(min(exc.retry_after, 0.5))
            finals = [client.wait(jid, timeout=120) for jid in accepted]
            assert all(r["state"] == "done" for r in finals)

            snap = client.metrics()
            counters = snap["counters"]
            assert counters["service.jobs_submitted"] == len(accepted)
            assert counters["service.jobs_done"] == len(accepted)
            assert counters["service.queue_accepted"] == len(accepted)
            assert (
                counters.get("service.queue_rejected_full", 0)
                + counters.get("service.queue_rejected_tenant", 0)
            ) == rejected
        finally:
            svc.stop()

    def test_cancel_queued_job_while_pool_busy(self, tmp_path, e2e_ds):
        svc, client = start_service(tmp_path, workers=1)
        try:
            slow = client.submit({
                "dataset": str(e2e_ds.directory),
                "inject_faults": "3:slow=8,latency=0.05",
            })["id"]
            victim = client.submit({"dataset": str(e2e_ds.directory)})["id"]
            cancelled = client.cancel(victim)
            assert cancelled["state"] == "cancelled"
            assert client.wait(slow, timeout=120)["state"] == "done"
            jobs = client.metrics()["jobs"]
            assert jobs["cancelled"] == 1 and jobs["done"] == 1
        finally:
            svc.stop()


class TestOutOfCoreJobOptions:
    def test_budgeted_compose_job_reports_stats(self, tmp_path, e2e_ds):
        svc, client = start_service(tmp_path, workers=1)
        try:
            out = tmp_path / "job-mosaic.tif"
            rec = client.wait(
                client.submit({
                    "dataset": str(e2e_ds.directory),
                    "output": str(out),
                    "options": {"memory_budget": 512 * 1024,
                                "pyramid_levels": 1},
                })["id"],
                timeout=120,
            )
            assert rec["state"] == "done"
            stats = rec["result"]["compose"]
            assert stats["memory_budget"] == 512 * 1024
            assert stats["peak_bytes"] <= 512 * 1024
            assert stats["cache"]["capacity_bytes"] > 0
            assert out.exists()
            assert len(stats["pyramid"]) == 1
            from repro.core.streamcompose import pyramid_level_path

            assert pyramid_level_path(out, 1).exists()
        finally:
            svc.stop()

    def test_linear_blend_job_accepted(self, tmp_path, e2e_ds):
        svc, client = start_service(tmp_path, workers=1)
        try:
            out = tmp_path / "feathered.tif"
            rec = client.wait(
                client.submit({
                    "dataset": str(e2e_ds.directory),
                    "output": str(out),
                    "blend": "linear",
                })["id"],
                timeout=120,
            )
            assert rec["state"] == "done"
            assert out.exists()
        finally:
            svc.stop()


class TestOptionValidationAtSubmission:
    def test_bad_option_value_is_a_400_and_nothing_is_queued(
        self, tmp_path, e2e_ds
    ):
        """At the parent commit this was a 202, then a failed job with
        all of phase 1 computed and journaled."""
        from repro.service.client import ServiceError

        svc, client = start_service(tmp_path, workers=1)
        try:
            with pytest.raises(ServiceError) as err:
                client.submit({"dataset": str(e2e_ds.directory),
                               "options": {"position_method": "bogus"}})
            assert err.value.status == 400
            assert "position_method" in str(err.value)
            assert not svc.jobs
            assert not (tmp_path / "spool" / "jobs").exists()
        finally:
            svc.stop()

    def test_malformed_fault_spec_is_a_400_and_nothing_is_queued(
        self, tmp_path, e2e_ds
    ):
        """The spec's grammar is checked at submission, not in the worker:
        a malformed one never becomes a job."""
        from repro.service.client import ServiceError

        svc, client = start_service(tmp_path, workers=1)
        try:
            for spec, named in (("nope", "integer seed"),
                                ("11:stall=3", "'stall'"),
                                ("3:missing=x", "'missing'"),
                                (42, "must be a string")):
                with pytest.raises(ServiceError) as err:
                    client.submit({"dataset": str(e2e_ds.directory),
                                   "inject_faults": spec})
                assert err.value.status == 400
                assert named in str(err.value)
            assert not svc.jobs
            assert not (tmp_path / "spool" / "jobs").exists()
        finally:
            svc.stop()
