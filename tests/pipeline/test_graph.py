"""Pipeline wiring, execution, error surfacing."""

import time

import pytest

from repro.observe import Tracer
from repro.pipeline.graph import Pipeline
from repro.pipeline.stage import END_OF_STREAM
from repro.recovery import PipelineError


def make_counter_source(n):
    it = iter(range(n))

    def handler(_item):
        try:
            return next(it)
        except StopIteration:
            return END_OF_STREAM

    return handler


def chain(pipe, specs, queue_size=0):
    """Wire ``specs`` (name, handler, workers) source to sink, one queue
    of ``queue_size`` between neighbours, as Fig. 8's reader -> copier ->
    fft edges are wired."""
    prev = None
    for i, (name, handler, workers) in enumerate(specs):
        out = (pipe.queue(maxsize=queue_size, name=f"{name}-out")
               if i + 1 < len(specs) else None)
        pipe.stage(name, handler, workers=workers, input=prev, output=out)
        prev = out


def run(pipe):
    pipe.start()
    pipe.join()


class TestChain:
    def test_three_stage_chain(self):
        pipe = Pipeline("test")
        results = []

        def sink(x):
            results.append(x)
            return None

        chain(
            pipe,
            [
                ("src", make_counter_source(20), 1),
                ("square", lambda x: x * x, 3),
                ("sink", sink, 1),
            ],
            queue_size=4,
        )
        run(pipe)
        assert sorted(results) == [i * i for i in range(20)]

    def test_stats(self):
        """The counters the watchdog polls: items per stage, traffic per
        queue."""
        pipe = Pipeline("stats")
        chain(pipe, [("src", make_counter_source(5), 1),
                     ("sink", lambda x: None, 2)])
        run(pipe)
        sink = next(s for s in pipe.stages if s.name == "sink")
        assert sink.items_processed == 5
        (q,) = pipe.queues
        assert q.name == "src-out" and q.total_put == q.total_get == 5

    def test_empty_pipeline_rejected(self):
        with pytest.raises(ValueError):
            Pipeline().start()


class TestErrorPropagation:
    def test_error_in_middle_stage_raises_pipeline_error(self):
        pipe = Pipeline("err")

        def bad(x):
            if x == 7:
                raise ValueError("seven is right out")
            return x

        chain(
            pipe,
            [
                ("src", make_counter_source(20), 1),
                ("bad", bad, 2),
                ("sink", lambda x: None, 1),
            ],
        )
        with pytest.raises(PipelineError) as exc_info:
            run(pipe)
        assert isinstance(exc_info.value.__cause__, ValueError)

    def test_error_does_not_deadlock_bounded_queues(self):
        """A failing sink must unblock a producer stuck on a full queue."""
        pipe = Pipeline("deadlock")

        def bad_sink(x):
            raise RuntimeError("sink dead on arrival")

        chain(pipe, [("src", make_counter_source(1000), 1),
                     ("sink", bad_sink, 1)], queue_size=2)
        with pytest.raises(PipelineError):
            run(pipe)  # must return, not hang

    def test_abort_closes_all_queues(self):
        pipe = Pipeline("abort")
        q1 = pipe.queue()
        q2 = pipe.queue()
        pipe.abort()
        assert q1.closed and q2.closed


class TestTelemetry:
    def test_busy_seconds_accumulates(self):
        """Per-item spans carry a stage's busy time, one track per
        worker under the pipeline's name."""
        tracer = Tracer()
        pipe = Pipeline("busy", tracer=tracer)
        chain(pipe, [("src", make_counter_source(5), 1),
                     ("work", lambda x: time.sleep(0.001) or x, 1),
                     ("sink", lambda x: None, 1)])
        run(pipe)
        assert tracer.busy_seconds("busy/work-0") >= 0.005
        assert tracer.span_count("work") - tracer.span_count("work:") == 5
