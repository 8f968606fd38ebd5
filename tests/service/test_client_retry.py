"""Client-side retry/backoff policy and structured failure rendering.

No HTTP here: ``submit`` / ``status`` are stubbed, ``sleep`` is a
recorder and the jitter stream is seeded, so every wait the client would
have performed is asserted exactly -- the fake-clock unit tests the
decorrelated-jitter contract calls for.
"""

from __future__ import annotations

import random

import pytest

from repro.service.client import (
    BackpressureError,
    JobFailedError,
    ServiceClient,
)


class StubClient(ServiceClient):
    """Rejects the first ``rejections`` submissions, then accepts."""

    def __init__(self, rejections: int, retry_after: float = 0.01):
        super().__init__("stub", 0)
        self.rejections = rejections
        self.retry_after = retry_after
        self.submissions = 0

    def submit(self, spec: dict) -> dict:
        self.submissions += 1
        if self.submissions <= self.rejections:
            raise BackpressureError(
                429, {"error": "full", "reason": "queue_full"},
                self.retry_after,
            )
        return {"id": "abcdefabcdef", "state": "queued", **spec}


class TestSubmitWithRetry:
    def test_success_after_rejections(self):
        client = StubClient(rejections=3)
        sleeps: list[float] = []
        record = client.submit_with_retry(
            {"dataset": "/d"}, attempts=10,
            sleep=sleeps.append, rng=random.Random(0),
        )
        assert record["state"] == "queued"
        assert client.submissions == 4
        assert len(sleeps) == 3  # one wait per rejection

    def test_gives_up_after_attempts_and_reraises(self):
        client = StubClient(rejections=100)
        sleeps: list[float] = []
        with pytest.raises(BackpressureError):
            client.submit_with_retry(
                {"dataset": "/d"}, attempts=5,
                sleep=sleeps.append, rng=random.Random(0),
            )
        assert client.submissions == 5
        assert len(sleeps) == 5

    def test_decorrelated_jitter_bounded_and_capped(self):
        client = StubClient(rejections=20, retry_after=0.0)
        sleeps: list[float] = []
        with pytest.raises(BackpressureError):
            client.submit_with_retry(
                {"dataset": "/d"}, attempts=20,
                max_wait=2.0, base_wait=0.05,
                sleep=sleeps.append, rng=random.Random(42),
            )
        # Every wait is inside [base, cap] ...
        assert all(0.05 <= s <= 2.0 for s in sleeps)
        # ... grows beyond the base early on (decorrelated expansion) ...
        assert max(sleeps) > 0.05 * 3
        # ... and the expansion saturates at the cap, not beyond it.
        assert max(sleeps) <= 2.0

    def test_jitter_stream_is_seed_replayable(self):
        waits = []
        for _ in range(2):
            client = StubClient(rejections=6, retry_after=0.0)
            sleeps: list[float] = []
            with pytest.raises(BackpressureError):
                client.submit_with_retry(
                    {"dataset": "/d"}, attempts=6,
                    sleep=sleeps.append, rng=random.Random(7),
                )
            waits.append(sleeps)
        assert waits[0] == waits[1]

    def test_honours_server_retry_after_as_floor(self):
        client = StubClient(rejections=1, retry_after=1.5)
        sleeps: list[float] = []
        client.submit_with_retry(
            {"dataset": "/d"}, attempts=3, max_wait=5.0,
            sleep=sleeps.append, rng=random.Random(0),
        )
        # The first jittered draw is tiny; the server's honest hint wins.
        assert sleeps[0] >= 1.5

    def test_retry_after_floor_respects_cap(self):
        client = StubClient(rejections=1, retry_after=60.0)
        sleeps: list[float] = []
        client.submit_with_retry(
            {"dataset": "/d"}, attempts=3, max_wait=2.0,
            sleep=sleeps.append, rng=random.Random(0),
        )
        assert sleeps[0] <= 2.0


class TestJobFailedError:
    def test_renders_structured_detail(self):
        record = {
            "id": "abcdefabcdef",
            "state": "quarantined",
            "error": "quarantined: 3 worker death(s) attributed to this job",
            "error_detail": {
                "error": "quarantined: 3 worker death(s)",
                "type": "PoisonJobQuarantined",
                "attempts": 3,
                "last_milestone": "phase1_complete",
                "death_signals": ["SIGKILL", "SIGKILL", "SIGKILL"],
            },
        }
        err = JobFailedError(record)
        text = str(err)
        assert "abcdefabcdef" in text
        assert "quarantined" in text
        assert "type=PoisonJobQuarantined" in text
        assert "attempts=3" in text
        assert "last_milestone=phase1_complete" in text
        assert "SIGKILL,SIGKILL,SIGKILL" in text
        assert err.record is record
        assert err.state == "quarantined"

    def test_renders_without_detail(self):
        err = JobFailedError({"id": "x", "state": "failed",
                              "error": "boom", "error_detail": None})
        assert "boom" in str(err)


class WaitStub(ServiceClient):
    def __init__(self, states: list[dict]):
        super().__init__("stub", 0)
        self.states = list(states)

    def status(self, job_id: str) -> dict:
        return self.states.pop(0) if len(self.states) > 1 else self.states[0]

    def watch(self, job_id: str, seconds: float) -> dict:
        # Answers at once, like a server that ignores ``wait``.
        return self.status(job_id)


class TestWait:
    def test_wait_returns_terminal_record_by_default(self):
        client = WaitStub([{"id": "j", "state": "failed", "error": "x"}])
        assert client.wait("j", timeout=1.0)["state"] == "failed"

    def test_wait_treats_quarantined_as_terminal(self):
        client = WaitStub([
            {"id": "j", "state": "running"},
            {"id": "j", "state": "quarantined", "error": "poison"},
        ])
        record = client.wait("j", timeout=1.0, poll=0.0)
        assert record["state"] == "quarantined"

    def test_wait_raise_on_failure(self):
        client = WaitStub([{
            "id": "j", "state": "failed", "error": "boom",
            "error_detail": {"type": "ValueError", "attempts": 1,
                             "death_signals": []},
        }])
        with pytest.raises(JobFailedError, match="type=ValueError"):
            client.wait("j", timeout=1.0, raise_on_failure=True)

    def test_wait_raise_on_failure_returns_done(self):
        client = WaitStub([{"id": "j", "state": "done"}])
        assert client.wait("j", raise_on_failure=True)["state"] == "done"
