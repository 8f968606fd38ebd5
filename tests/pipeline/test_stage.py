"""Stage semantics: sources, consumers, shutdown, error propagation."""

import threading

import pytest

from repro.pipeline.queues import MonitorQueue, QueueClosed
from repro.pipeline.stage import END_OF_STREAM, Stage


def run_stage(stage):
    stage.start()
    stage.join()


class TestSourceStage:
    def test_emits_until_end_of_stream(self):
        out = MonitorQueue()
        data = iter(range(5))

        def handler(_item):
            try:
                return next(data)
            except StopIteration:
                return END_OF_STREAM

        run_stage(Stage("src", handler, output=out))
        assert out.closed
        assert [out.get() for _ in range(5)] == list(range(5))

    def test_none_results_are_skipped(self):
        out = MonitorQueue()
        calls = []

        def handler(_item):
            calls.append(1)
            if len(calls) == 3:
                return END_OF_STREAM
            if len(calls) == 2:
                return None
            return "x"

        run_stage(Stage("src", handler, output=out))
        assert len(out) == 1


class TestConsumerStage:
    def test_processes_all_then_closes_output(self):
        q_in, q_out = MonitorQueue(), MonitorQueue()
        for i in range(10):
            q_in.put(i)
        q_in.close()
        run_stage(Stage("double", lambda x: 2 * x, input=q_in, output=q_out))
        assert q_out.closed
        assert sorted(q_out.get() for _ in range(10)) == [2 * i for i in range(10)]

    def test_multiple_workers_consume_everything(self):
        q_in, q_out = MonitorQueue(), MonitorQueue()
        for i in range(100):
            q_in.put(i)
        q_in.close()
        run_stage(Stage("w", lambda x: x, workers=4, input=q_in, output=q_out))
        got = sorted(q_out.get() for _ in range(100))
        assert got == list(range(100))

    def test_output_closed_only_after_last_worker(self):
        q_in, q_out = MonitorQueue(), MonitorQueue()
        barrier = threading.Barrier(2)

        def slow(x):
            barrier.wait(timeout=5)
            return x

        for i in range(2):
            q_in.put(i)
        q_in.close()
        run_stage(Stage("slow", slow, workers=2, input=q_in, output=q_out))
        assert len(q_out) == 2

    def test_items_processed_counter(self):
        q_in = MonitorQueue()
        for i in range(7):
            q_in.put(i)
        q_in.close()
        s = Stage("count", lambda x: None, input=q_in)
        run_stage(s)
        assert s.items_processed == 7


class TestErrors:
    def test_worker_exception_recorded_and_queues_poisoned(self):
        q_in, q_out = MonitorQueue(), MonitorQueue()
        q_in.put("boom")

        def handler(x):
            raise RuntimeError("kaboom")

        s = Stage("bad", handler, input=q_in, output=q_out)
        run_stage(s)
        assert len(s.errors) == 1
        assert q_out.closed
        assert q_in.closed

    def test_on_error_callback_invoked(self):
        q_in = MonitorQueue()
        q_in.put(1)
        called = []
        s = Stage(
            "bad",
            lambda x: 1 / 0,
            input=q_in,
            on_error=lambda: called.append(True),
        )
        run_stage(s)
        assert called == [True]

    def test_downstream_close_exits_quietly(self):
        q_in, q_out = MonitorQueue(), MonitorQueue()
        q_out.close()  # downstream gone
        q_in.put(1)
        q_in.close()
        s = Stage("s", lambda x: x, input=q_in, output=q_out)
        run_stage(s)
        assert s.errors == []  # QueueClosed is not an error

    def test_zero_workers_rejected(self):
        with pytest.raises(ValueError):
            Stage("s", lambda x: x, workers=0)

    def test_double_start_rejected(self):
        q = MonitorQueue()
        q.close()
        s = Stage("s", lambda x: x, input=q)
        s.start()
        with pytest.raises(RuntimeError):
            s.start()
        s.join()
