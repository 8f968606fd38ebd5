"""Pipeline wiring, execution, error surfacing."""

import pytest

from repro.pipeline.graph import Pipeline
from repro.pipeline.stage import END_OF_STREAM
from repro.recovery import PipelineError


def make_counter_source(n):
    it = iter(range(n))

    def handler(_item, _ctx):
        try:
            return next(it)
        except StopIteration:
            return END_OF_STREAM

    return handler


class TestChain:
    def test_three_stage_chain(self):
        pipe = Pipeline("test")
        results = []

        def sink(x, _ctx):
            results.append(x)
            return None

        pipe.add_chain(
            [
                ("src", make_counter_source(20), 1),
                ("square", lambda x, _ctx: x * x, 3),
                ("sink", sink, 1),
            ],
            queue_size=4,
        )
        pipe.run()
        assert sorted(results) == [i * i for i in range(20)]

    def test_stats(self):
        pipe = Pipeline("stats")
        pipe.add_chain(
            [("src", make_counter_source(5), 1), ("sink", lambda x, c: None, 2)]
        )
        pipe.run()
        s = pipe.stats()
        assert s["stages"]["sink"]["items"] == 5
        assert s["queues"]["src-out"]["total_put"] == 5

    def test_empty_pipeline_rejected(self):
        with pytest.raises(ValueError):
            Pipeline().run()


class TestErrorPropagation:
    def test_error_in_middle_stage_raises_pipeline_error(self):
        pipe = Pipeline("err")

        def bad(x, _ctx):
            if x == 7:
                raise ValueError("seven is right out")
            return x

        pipe.add_chain(
            [
                ("src", make_counter_source(20), 1),
                ("bad", bad, 2),
                ("sink", lambda x, c: None, 1),
            ]
        )
        with pytest.raises(PipelineError) as exc_info:
            pipe.run()
        assert isinstance(exc_info.value.__cause__, ValueError)

    def test_error_does_not_deadlock_bounded_queues(self):
        """A failing sink must unblock a producer stuck on a full queue."""
        pipe = Pipeline("deadlock")

        def bad_sink(x, _ctx):
            raise RuntimeError("sink dead on arrival")

        pipe.add_chain(
            [("src", make_counter_source(1000), 1), ("sink", bad_sink, 1)],
            queue_size=2,
        )
        with pytest.raises(PipelineError):
            pipe.run()  # must return, not hang

    def test_abort_closes_all_queues(self):
        pipe = Pipeline("abort")
        q1 = pipe.queue()
        q2 = pipe.queue()
        pipe.abort()
        assert q1.closed and q2.closed


class TestTelemetry:
    def test_busy_seconds_accumulates(self):
        import time

        pipe = Pipeline("busy")
        pipe.add_chain(
            [("src", make_counter_source(5), 1),
             ("work", lambda x, c: time.sleep(0.001) or x, 1),
             ("sink", lambda x, c: None, 1)]
        )
        pipe.run()
        stats = pipe.stats()
        assert stats["stages"]["work"]["busy_seconds"] >= 0.005
        assert stats["stages"]["work"]["items"] == 5

    def test_utilization_validation(self):
        pipe = Pipeline("u")
        pipe.add_chain([("src", make_counter_source(1), 1),
                        ("sink", lambda x, c: None, 1)])
        pipe.run()
        with pytest.raises(ValueError):
            pipe.utilization(0.0)
        util = pipe.utilization(1.0)
        assert set(util) == {"src", "sink"}
        assert all(v >= 0 for v in util.values())
