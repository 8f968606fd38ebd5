"""The tile read's ErrorPolicy and its retry loop in Phase1Kernel.try_read,
Pipeline.result() aggregation, and queue-close races under failure.
"""

from __future__ import annotations

import threading
import time

import pytest

import repro.core.kernel as kernel_module
from repro.core.kernel import Phase1Kernel
from repro.faults import ErrorPolicy, FaultReport
from repro.pipeline.graph import Pipeline, PipelineError, aggregate_failures
from repro.pipeline.queues import MonitorQueue, QueueClosed
from repro.pipeline.stage import END_OF_STREAM, Stage
from repro.recovery.cancel import CancelToken, ItemCancelled


class TestErrorPolicy:
    def test_defaults_are_strict(self):
        p = ErrorPolicy()
        assert p.max_retries == 0
        assert p.on_exhausted == "abort"

    def test_validation(self):
        with pytest.raises(ValueError, match="max_retries"):
            ErrorPolicy(max_retries=-1)
        for value in ("explode", "degrade"):
            with pytest.raises(ValueError, match="on_exhausted"):
                ErrorPolicy(on_exhausted=value)

    def test_delay_exponential(self):
        p = ErrorPolicy(max_retries=3, backoff=0.1)
        assert p.delay(0) == pytest.approx(0.1)
        assert p.delay(1) == pytest.approx(0.2)
        assert p.delay(2) == pytest.approx(0.4)

    def test_zero_backoff_means_no_delay(self):
        assert ErrorPolicy(max_retries=2).delay(5) == 0.0


@pytest.fixture
def slept(monkeypatch):
    """Backoff delays ``try_read`` asked for, instead of sleeping them."""
    delays: list[float] = []
    monkeypatch.setattr(kernel_module.time, "sleep", delays.append)
    return delays


def try_read(load, policy, report=None, row=2, col=3):
    kernel = Phase1Kernel(error_policy=policy, fault_report=report)
    return kernel.try_read(load, row, col)


class TestRunWithRetries:
    """The read's retry loop, :meth:`Phase1Kernel.try_read`."""

    def test_success_first_try(self, slept):
        assert try_read(lambda r, c: 42, ErrorPolicy()) == (42, None)
        assert slept == []

    def test_retries_then_succeeds(self, slept):
        calls = []

        def flaky(row, col):
            calls.append((row, col))
            if len(calls) < 3:
                raise IOError("transient")
            return "ok"

        report = FaultReport()
        assert try_read(flaky, ErrorPolicy(max_retries=3), report) == ("ok", None)
        assert calls == [(2, 3)] * 3
        assert [(r["attempt"], r["error"]) for r in report.retries] == [
            (0, "OSError: transient"), (1, "OSError: transient")
        ]
        assert report.skipped_tiles == []

    def test_exhaustion_raises_last_error(self, slept):
        calls = []

        def always(_row, _col):
            calls.append(1)
            raise ValueError(f"permanent #{len(calls)}")

        with pytest.raises(ValueError, match="permanent #3"):
            try_read(always, ErrorPolicy(max_retries=2))

    def test_sleep_receives_backoff_delays(self, slept):
        calls = []

        def flaky(_row, _col):
            calls.append(1)
            if len(calls) < 3:
                raise IOError("x")
            return 1

        try_read(flaky, ErrorPolicy(max_retries=2, backoff=0.1))
        assert slept == [pytest.approx(0.1), pytest.approx(0.2)]

    @pytest.mark.parametrize("on_exhausted", ["abort", "skip"])
    def test_item_cancelled_never_retried(self, slept, on_exhausted):
        """The watchdog's cancellation keeps the token cancelled, so a
        retry could only burn backoff time before failing again."""
        calls = []
        token = CancelToken()
        token.cancel("watchdog: read overran its deadline")

        def hung(_row, _col):
            calls.append(1)
            token.raise_if_cancelled()

        report = FaultReport()
        policy = ErrorPolicy(max_retries=3, backoff=0.1,
                             on_exhausted=on_exhausted)
        if on_exhausted == "abort":
            with pytest.raises(ItemCancelled, match="watchdog"):
                try_read(hung, policy, report)
        else:
            pixels, reason = try_read(hung, policy, report)
            assert pixels is None and "watchdog" in reason
            assert report.skipped_tiles == [(2, 3)]
        assert calls == [1]
        assert slept == []
        assert report.retries == []


class TestStageWithPolicy:
    """A stage survives a failing item only through its handler's own
    policy; the pipelines' reader stage reads under the kernel's."""

    def _run_stage(self, load, policy, items):
        report = FaultReport()
        kernel = Phase1Kernel(error_policy=policy, fault_report=report)

        def handler(item, _ctx):
            pixels, _ = kernel.try_read(load, item, 0)
            return pixels

        q_in = MonitorQueue(name="in")
        q_out = MonitorQueue(name="out")
        stage = Stage("work", handler, workers=1, input=q_in, output=q_out)
        for item in items:
            q_in.put(item)
        q_in.close()
        stage.start()
        stage.join()
        out = []
        while True:
            try:
                out.append(q_out.get(timeout=0.1))
            except QueueClosed:
                break
        return stage, out, report

    def test_skip_policy_drops_and_continues(self):
        def load(row, _col):
            if row == 2:
                raise IOError("bad item")
            return row * 10

        stage, out, report = self._run_stage(
            load, ErrorPolicy(max_retries=1, on_exhausted="skip"), [1, 2, 3],
        )
        assert out == [10, 30]
        assert stage.errors == []
        assert report.skipped_tiles == [(2, 0)]
        assert report.to_dict()["skipped_tile_errors"] == {"2,0": "OSError: bad item"}
        assert len(report.retries) == 1  # initial + 1 retry

    def test_abort_policy_propagates_after_retries(self):
        calls = []

        def load(row, _col):
            calls.append(row)
            raise IOError("always")

        stage, out, _ = self._run_stage(
            load, ErrorPolicy(max_retries=2, on_exhausted="abort"), [7]
        )
        assert out == []
        assert len(calls) == 3
        assert len(stage.errors) == 1
        assert isinstance(stage.errors[0], IOError)

    def test_transient_failure_recovers_without_drop(self):
        attempts = {}

        def load(row, _col):
            attempts[row] = attempts.get(row, 0) + 1
            if attempts[row] == 1:
                raise IOError("transient")
            return row

        stage, out, report = self._run_stage(
            load, ErrorPolicy(max_retries=1, on_exhausted="skip"), [1, 2]
        )
        assert sorted(out) == [1, 2]
        assert report.skipped_tiles == []
        assert len(report.retries) == 2


class TestPipelineResult:
    def test_result_returns_stats_on_success(self):
        pipe = Pipeline("ok")
        count = iter(range(3))

        def src(_item, _ctx):
            try:
                return next(count)
            except StopIteration:
                return END_OF_STREAM

        seen = []
        pipe.add_chain([("src", src, 1), ("sink", lambda i, c: seen.append(i), 1)])
        for s in pipe.stages:
            s.start()
        stats = pipe.result()
        assert sorted(seen) == [0, 1, 2]
        assert stats["stages"]["src"]["items"] >= 3
        # A stage neither retries nor drops: only the tile read does.
        assert set(stats["stages"]["sink"]) == {
            "workers", "items", "busy_seconds", "queue_wait_seconds"
        }

    def test_result_raises_single_error_naming_all_stages(self):
        pipe = Pipeline("doomed")
        q1 = pipe.queue(name="a")

        sink_failed = threading.Event()

        def src(_item, _ctx):
            # The reader only dies after the sink has already failed, so
            # both failures are guaranteed to be present in the aggregate.
            sink_failed.wait(timeout=5)
            raise IOError("reader died")

        def sink(item, _ctx):
            try:
                raise ValueError("sink died")
            finally:
                sink_failed.set()

        pipe.stage("reader", src, workers=1, input=None, output=None)
        pipe.stage("sink", sink, workers=1, input=q1, output=None)
        for s in pipe.stages:
            s.start()
        q1.put("x")
        with pytest.raises(PipelineError) as exc_info:
            pipe.result()
        err = exc_info.value
        stages = {name for name, _ in err.failures}
        assert stages == {"reader", "sink"}
        assert len(err.failures) == 2
        # Message names both failing stages and both exception types.
        assert "reader" in str(err) and "sink" in str(err)
        assert "OSError" in str(err) and "ValueError" in str(err)
        # First failure chained for raise-from consumers.
        assert err.__cause__ is err.failures[0][1]

    def test_aggregate_failures_helper(self):
        e1, e2 = IOError("a"), ValueError("b")
        err = aggregate_failures("p", [("read", e1), ("read", e2)])
        assert isinstance(err, PipelineError)
        assert err.failures == [("read", e1), ("read", e2)]
        assert "2 worker errors" in str(err)
        assert err.__cause__ is e1


class TestQueueCloseRaces:
    """A stage erroring while peers block on queue ops must not hang."""

    JOIN_TIMEOUT = 10.0

    def _join_all(self, pipe: Pipeline) -> None:
        deadline = time.monotonic() + self.JOIN_TIMEOUT
        for s in pipe.stages:
            for t in s.threads:
                t.join(timeout=max(0.0, deadline - time.monotonic()))
                assert not t.is_alive(), (
                    f"worker {t.name} still alive after stage failure -- "
                    f"queue-close race left it blocked"
                )

    def test_consumer_blocked_on_get_unblocks_when_peer_stage_dies(self):
        pipe = Pipeline("race-get")
        q_dead = pipe.queue(name="never-fed")
        started = threading.Event()

        def blocked_sink(item, _ctx):  # pragma: no cover - never receives
            return None

        def doomed_src(_item, _ctx):
            started.wait(timeout=5)
            raise RuntimeError("boom")

        pipe.stage("sink", blocked_sink, workers=2, input=q_dead, output=None)
        pipe.stage("src", doomed_src, workers=1, input=None, output=None)
        for s in pipe.stages:
            s.start()
        started.set()
        self._join_all(pipe)
        with pytest.raises(PipelineError, match="src"):
            pipe.result()

    def test_producer_blocked_on_put_unblocks_when_peer_stage_dies(self):
        pipe = Pipeline("race-put")
        q_full = pipe.queue(maxsize=1, name="tiny")
        q_full.put("pre-filled")  # next put blocks

        def producer(_item, _ctx):
            q_full.put("overflow")  # blocks until the abort closes q_full
            return END_OF_STREAM

        def doomed(_item, _ctx):
            time.sleep(0.05)  # let the producer reach the blocking put
            raise RuntimeError("boom")

        pipe.stage("producer", producer, workers=1, input=None, output=None)
        pipe.stage("doomed", doomed, workers=1, input=None, output=None)
        for s in pipe.stages:
            s.start()
        self._join_all(pipe)
        with pytest.raises(PipelineError, match="doomed"):
            pipe.result()

    def test_multiworker_stage_one_worker_dies_all_terminate(self):
        pipe = Pipeline("race-multi")
        q_in = pipe.queue(name="work")

        def handler(item, _ctx):
            if item == "poison":
                raise RuntimeError("worker down")
            # Healthy workers block on the next get after this.
            return None

        pipe.stage("workers", handler, workers=4, input=q_in, output=None)
        for s in pipe.stages:
            s.start()
        for _ in range(8):
            q_in.put("ok")
        q_in.put("poison")
        self._join_all(pipe)
        with pytest.raises(PipelineError, match="workers"):
            pipe.result()

    def test_downstream_of_failed_stage_sees_end_of_stream(self):
        pipe = Pipeline("race-downstream")
        q_mid = pipe.queue(name="mid")
        received = []

        def src(_item, _ctx):
            raise RuntimeError("source exploded immediately")

        def sink(item, _ctx):
            received.append(item)
            return None

        pipe.stage("src", src, workers=1, input=None, output=q_mid)
        pipe.stage("sink", sink, workers=2, input=q_mid, output=None)
        for s in pipe.stages:
            s.start()
        self._join_all(pipe)
        assert received == []
        with pytest.raises(PipelineError, match="src"):
            pipe.result()
