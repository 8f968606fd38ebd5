"""Watchdog supervision: deadlines, cancellation, escalation, stalls."""

import threading
import time

import pytest

from repro.core.kernel import Phase1Kernel
from repro.faults import ErrorPolicy, Fault, FaultKind, FaultPlan, FaultReport
from repro.observe import MetricsRegistry
from repro.pipeline.graph import Pipeline
from repro.pipeline.stage import END_OF_STREAM
from repro.recovery import PipelineStallError
from repro.recovery.cancel import CancelToken, ItemCancelled, current_token
from repro.recovery.watchdog import WatchdogConfig


def make_source(n):
    it = iter(range(n))

    def handler(_item):
        try:
            return next(it)
        except StopIteration:
            return END_OF_STREAM

    return handler


class TestCancelToken:
    def test_cancel_is_idempotent_first_reason_wins(self):
        t = CancelToken()
        assert not t.cancelled
        t.cancel("first")
        t.cancel("second")
        assert t.cancelled and t.reason == "first"
        with pytest.raises(ItemCancelled, match="first"):
            t.raise_if_cancelled()

    def test_cooperative_sleep_wakes_on_cancel(self):
        t = CancelToken()
        t.cancel("now")
        t0 = time.monotonic()
        with pytest.raises(ItemCancelled):
            t.sleep(30.0)
        assert time.monotonic() - t0 < 1.0

    def test_no_token_installed_is_a_noop(self):
        assert current_token() is None


def wedged(dataset, released):
    """``dataset`` whose tile (2, 2) -- no column partition's ghost --
    blocks its read until ``released`` is set, never polling its token."""

    class Wedged:
        def __getattr__(self, name):
            return getattr(dataset, name)

        def load(self, row, col, dtype=None):
            if (row, col) == (2, 2):
                released.wait(30.0)
            return dataset.load(row, col, dtype=dtype)

    return Wedged()


def cooperative_hang(_row, _col):
    """A tile read that hangs until its item is cancelled."""
    current_token().sleep(30.0)


def run(pipe):
    pipe.start()
    pipe.join()


class TestCooperativeCancellation:
    """The watchdog cancels a hung read; the kernel's read policy -- the
    one handler of ``ItemCancelled`` -- decides what becomes of it."""

    def test_hung_item_is_cancelled_and_skipped(self):
        """A read that honors its token is cancelled within the deadline;
        under skip the pipeline completes and join() returns normally:
        the watchdog counts one cancellation and never escalates."""
        metrics = MetricsRegistry()
        pipe = Pipeline(
            "coop", metrics=metrics,
            watchdog=WatchdogConfig(item_deadline=0.2, stall_timeout=10),
        )
        report = FaultReport()
        kernel = Phase1Kernel(error_policy=ErrorPolicy(on_exhausted="skip"),
                              fault_report=report)
        results = []

        def work(x):
            load = cooperative_hang if x == 1 else (lambda r, c: r)
            pixels = kernel.read(load, x, 0)
            if pixels is not None:
                results.append(pixels)
            return None

        q = pipe.queue(maxsize=0, name="work")
        pipe.stage("src", make_source(5), workers=1, output=q)
        pipe.stage("work", work, workers=2, input=q)
        t0 = time.monotonic()
        run(pipe)  # must NOT raise and must NOT hang
        elapsed = time.monotonic() - t0
        assert elapsed < 5.0
        assert sorted(results) == [0, 2, 3, 4]
        counters = metrics.snapshot()["counters"]
        assert counters["watchdog.cancelled"] == 1
        assert "watchdog.escalated" not in counters
        assert "watchdog.escalations" not in counters
        assert report.skipped_tiles == [(1, 0)]
        error = report.to_dict()["skipped_tile_errors"]["1,0"]
        assert error.startswith("ItemCancelled") and "watchdog" in error

    def test_cancellation_is_never_retried(self):
        """ItemCancelled must not burn retry attempts: the token stays
        cancelled, so retries could never succeed."""
        attempts = []
        pipe = Pipeline(
            "noretry", watchdog=WatchdogConfig(item_deadline=0.15, stall_timeout=10)
        )
        kernel = Phase1Kernel(error_policy=ErrorPolicy(
            max_retries=3, backoff=0.0, on_exhausted="skip"))

        def load(row, col):
            attempts.append(row)
            if row == 0:
                cooperative_hang(row, col)
            return row

        def work(x):
            kernel.read(load, x, 0)

        q = pipe.queue(maxsize=0, name="work")
        pipe.stage("src", make_source(2), workers=1, output=q)
        pipe.stage("work", work, workers=1, input=q)
        run(pipe)
        assert attempts.count(0) == 1  # one attempt, no retries
        assert attempts.count(1) == 1


class TestEscalation:
    def test_noncooperative_hang_raises_stall_error(self):
        """A handler that ignores its cancelled token past the grace gets
        the whole pipeline aborted; join() raises instead of hanging."""
        pipe = Pipeline(
            "hard",
            watchdog=WatchdogConfig(
                item_deadline=0.1, stall_timeout=10,
                escalation_grace=0.5, poll_interval=0.02,
            ),
        )

        def work(x):
            if x == 0:
                time.sleep(1.0)  # ignores cancellation entirely
            return None

        q = pipe.queue(maxsize=0, name="work")
        pipe.stage("src", make_source(3), workers=1, output=q)
        pipe.stage("work", work, workers=1, input=q)
        with pytest.raises(PipelineStallError) as ei:
            run(pipe)
        report = ei.value.report
        assert report.kind == "item_hang" and report.escalated
        assert any(i.action == "escalated" for i in report.interventions)
        assert report.to_dict()["kind"] == "item_hang"

    def test_pipelined_cpu_read_ignoring_its_token_raises_stall_error(
        self, dataset_4x4
    ):
        """Pipelined-CPU supervises its tile reads: a read that ignores
        its cancelled token escalates, the other partition winds down, and
        ``run`` raises within the deadline plus twice its grace (escalation,
        then the wind-down) instead of waiting for the read.  The grace
        (5 x 0.2 s) leaves the healthy partition a second to finish."""
        from repro.impls import PipelinedCpu

        released = threading.Event()
        impl = PipelinedCpu(
            partitions=2,
            error_policy=ErrorPolicy(on_exhausted="skip"),
            fault_report=FaultReport(),
            watchdog=WatchdogConfig(item_deadline=0.2, stall_timeout=30,
                                    escalation_grace=5.0, poll_interval=0.02),
        )
        t0 = time.monotonic()
        try:
            with pytest.raises(PipelineStallError) as ei:
                impl.run(wedged(dataset_4x4, released))
            elapsed = time.monotonic() - t0
        finally:
            released.set()
        assert elapsed < 0.2 + 2 * (5.0 * 0.2) + 2.0
        assert len(ei.value.abandoned_threads) == 1  # only the wedged read
        report = ei.value.report
        assert report.kind == "item_hang" and report.escalated
        assert report.pipeline == "pipelined-cpu"
        assert report.inflight["read"][0]["key"] == "GridPosition(row=2, col=2)"
        assert [i.action for i in report.interventions] == [
            "cancelled", "escalated"]

    def test_default_stitch_read_ignoring_its_token_raises_stall_error(
        self, dataset_4x4
    ):
        """The default path supervises its tile reads like every CPU
        preset: it runs on one thread the caller can abandon, so a wedged
        read raises within the same bound instead of hanging the
        stitch."""
        from repro.core.stitcher import Stitcher

        released = threading.Event()
        stitcher = Stitcher(impl_options={"watchdog": WatchdogConfig(
            item_deadline=0.2, stall_timeout=30, escalation_grace=5.0,
            poll_interval=0.02)})
        t0 = time.monotonic()
        try:
            with pytest.raises(PipelineStallError) as ei:
                stitcher.stitch(wedged(dataset_4x4, released))
            elapsed = time.monotonic() - t0
        finally:
            released.set()
        assert elapsed < 0.2 + 2 * (5.0 * 0.2) + 2.0
        assert len(ei.value.abandoned_threads) == 1
        report = ei.value.report
        assert report.kind == "item_hang" and report.escalated
        assert report.pipeline == "simple-cpu"
        assert report.inflight["read"][0]["key"] == "GridPosition(row=2, col=2)"

    def test_pipeline_stall_detected_without_item_deadline(self):
        """No per-item deadline: a silently wedged worker with work still
        queued is caught by the whole-pipeline progress monitor."""
        pipe = Pipeline(
            "stall",
            watchdog=WatchdogConfig(
                item_deadline=None, stall_timeout=0.3, poll_interval=0.02
            ),
        )

        def work(x):
            if x == 0:
                time.sleep(1.5)  # wedges the only worker; queue backs up
            return None

        q = pipe.queue(maxsize=0, name="work")
        pipe.stage("src", make_source(4), workers=1, output=q)
        pipe.stage("work", work, workers=1, input=q)
        t0 = time.monotonic()
        with pytest.raises(PipelineStallError) as ei:
            run(pipe)
        assert time.monotonic() - t0 < 10.0
        report = ei.value.report
        assert report.kind == "pipeline_stall" and report.escalated
        assert report.progress["queues"]["work"]["depth"] > 0


class TestIdleOverhead:
    def test_enabled_but_idle_watchdog_changes_nothing(self):
        results = []
        metrics = MetricsRegistry()
        pipe = Pipeline(
            "idle", metrics=metrics,
            watchdog=WatchdogConfig(item_deadline=5.0, stall_timeout=30),
        )
        q = pipe.queue(maxsize=4, name="q")
        pipe.stage("src", make_source(50), workers=1, output=q)
        pipe.stage("sink", results.append, workers=2, input=q)
        run(pipe)  # no PipelineStallError
        assert sorted(results) == list(range(50))
        assert not [name for name in metrics.snapshot()["counters"]
                    if name.startswith("watchdog.")]


class TestInjectedHangEndToEnd:
    @pytest.mark.parametrize("max_retries", [0, 3])
    @pytest.mark.parametrize("impl, options", [
        ("simple-cpu", {}),
        ("mt-cpu", {"workers": 2}),
        ("pipelined-cpu", {"partitions": 1}),
        ("pipelined-cpu", {"partitions": 2}),
        ("pipelined-gpu", {}),
    ], ids=["simple-cpu", "mt-cpu-2", "pipelined-cpu", "pipelined-cpu-2",
            "pipelined-gpu"])
    def test_hang_fault_in_pipelined_cpu_degrades_not_deadlocks(
        self, dataset_4x4, impl, options, max_retries
    ):
        """FaultKind.HANG + watchdog + skip policy, on every scheduler a
        watchdog can supervise: the hung read is cancelled once (never
        retried), the tile is dropped, and the run completes degraded.
        Tile (2, 2) is no column partition's ghost, so exactly one
        pipeline reads it."""
        from repro.impls import ALL_IMPLEMENTATIONS

        plan = FaultPlan().add(
            Fault(FaultKind.HANG, tile=(2, 2), latency=0.0)  # until cancelled
        )
        report = FaultReport()
        run_impl = ALL_IMPLEMENTATIONS[impl](
            **options,
            error_policy=ErrorPolicy(max_retries=max_retries,
                                     on_exhausted="skip"),
            fault_report=report,
            watchdog=WatchdogConfig(item_deadline=0.3, stall_timeout=30),
        )
        t0 = time.monotonic()
        run = run_impl.run(plan.wrap_dataset(dataset_4x4))
        assert time.monotonic() - t0 < 30.0
        assert report.skipped_tiles == [(2, 2)]
        assert "ItemCancelled" in report.to_dict()["skipped_tile_errors"]["2,2"]
        assert plan.triggered_summary() == {"hang": 1}
        # Every pair not touching the hung tile was still computed.
        assert run.stats["pairs"] == 24 - 4

    def test_bounded_hang_just_delays(self, dataset_4x4):
        """latency > 0 bounds the hang: no watchdog needed, the read is
        merely slow and the run is complete and undamaged."""
        plan = FaultPlan().add(
            Fault(FaultKind.HANG, tile=(1, 1), latency=0.05)
        )
        from repro.impls import ALL_IMPLEMENTATIONS

        impl = ALL_IMPLEMENTATIONS["simple-cpu"]()
        run = impl.run(plan.wrap_dataset(dataset_4x4))
        assert run.stats["pairs"] == 24
        assert plan.triggered_summary() == {"hang": 1}
