"""End-to-end: traced runs export a valid unified Chrome trace.

The acceptance check of the observability layer: run the pipelined
implementations with a tracer attached, merge the pipeline spans, queue
counter tracks, and (for GPU impls) virtual-GPU engine rows into one
trace-event JSON, and validate it against the schema -- the same check
the CI smoke step performs on the CLI output.
"""

import json

import pytest

from repro.analysis.tracefmt import (
    GPU_PID_BASE,
    PIPELINE_PID,
    merged_trace_events,
    tracer_trace_events,
    validate_trace_events,
    write_chrome_trace,
)
from repro.core.stitcher import Stitcher
from repro.impls import PipelinedCpu, PipelinedGpu
from repro.observe import MetricsRegistry, Tracer


class TestPipelinedCpuTrace:
    """Pipelined-CPU has no queues: each partition's pipeline is a tile
    row and a pair row, the two stages overlapping in time."""

    @pytest.fixture(scope="class")
    def traced_run(self, dataset_4x4):
        tracer, metrics = Tracer(), MetricsRegistry()
        impl = PipelinedCpu(partitions=2, tracer=tracer, metrics=metrics)
        run = impl.run(dataset_4x4)
        return tracer, metrics, run

    def test_events_validate(self, traced_run):
        tracer, _, _ = traced_run
        events = merged_trace_events(tracer=tracer)
        validate_trace_events(events)
        assert not tracer.counter_names()

    def test_stage_tracks_present(self, traced_run):
        tracer, _, _ = traced_run
        tracks = set(tracer.tracks())
        for k in (0, 1):
            assert f"pipelined-cpu/partition-{k}-tiles" in tracks
            assert f"pipelined-cpu/partition-{k}-pairs" in tracks

    def test_spans_cover_all_pairs(self, traced_run):
        tracer, _, run = traced_run
        assert tracer.span_count("pair") == run.stats["pairs"] == 24

    def test_metrics_counted_all_items(self, traced_run):
        """Every read and transform is a span; the registry holds the
        run's wall time."""
        tracer, metrics, run = traced_run
        assert tracer.span_count("read") == run.stats["reads"] == 16
        assert tracer.span_count("fft") == run.stats["ffts"]
        snap = metrics.snapshot()
        assert snap["histograms"]["impl.pipelined-cpu.wall_seconds"]["count"] == 1

    def test_write_and_reload(self, traced_run, tmp_path):
        tracer, _, _ = traced_run
        out = tmp_path / "trace.json"
        write_chrome_trace(out, merged_trace_events(tracer=tracer))
        events = json.loads(out.read_text())
        validate_trace_events(events)


class TestPipelinedGpuTrace:
    @pytest.fixture(scope="class")
    def traced_run(self, dataset_4x4):
        tracer, metrics = Tracer(), MetricsRegistry()
        run = PipelinedGpu(tracer=tracer, metrics=metrics).run(dataset_4x4)
        return tracer, metrics, run

    def test_every_queue_has_a_counter_track(self, traced_run):
        tracer, _, _ = traced_run
        validate_trace_events(merged_trace_events(tracer=tracer),
                              require_counters=True)
        names = set(tracer.counter_names())
        for queue in ("read-copy", "copy-fft", "events", "ready-pairs",
                      "ccf-work"):
            assert f"queue:pipelined-gpu-0:{queue}" in names

    def test_stage_metrics_count_every_item(self, traced_run):
        _, metrics, run = traced_run
        counters = metrics.snapshot()["counters"]
        assert counters["stage.read.items"] >= run.stats["reads"]
        assert counters["stage.displacement.items"] == run.stats["pairs"]

    def test_merged_trace_has_gpu_process_rows(self, dataset_4x4):
        tracer = Tracer()
        impl = PipelinedGpu(devices=2, tracer=tracer)
        impl.run(dataset_4x4)
        events = merged_trace_events(
            tracer=tracer, gpu_profilers=[d.profiler for d in impl.devices]
        )
        validate_trace_events(events, require_counters=True)
        pids = {e["pid"] for e in events}
        assert PIPELINE_PID in pids
        assert {GPU_PID_BASE, GPU_PID_BASE + 1} <= pids
        procs = {
            e["args"]["name"] for e in events if e["name"] == "process_name"
        }
        assert procs == {"pipeline", "virtual-gpu-0", "virtual-gpu-1"}


class TestStitcherFacade:
    def test_trace_true_round_trip(self, dataset_4x4, tmp_path):
        result = Stitcher(trace=True).stitch(dataset_4x4)
        assert result.tracer is not None
        assert result.metrics is not None  # trace implies metrics
        out = tmp_path / "seq.json"
        n = result.write_trace(out)
        events = json.loads(out.read_text())
        assert len(events) == n
        validate_trace_events(events)
        names = {e["name"] for e in events if e["ph"] == "X"}
        assert {"phase1:displacements", "phase2:global-opt"} <= names

    def test_untraced_result_refuses_export(self, dataset_4x4):
        result = Stitcher().stitch(dataset_4x4)
        assert result.tracer is None
        with pytest.raises(ValueError, match="not traced"):
            result.trace_events()


class TestValidator:
    def test_rejects_non_list(self):
        with pytest.raises(ValueError, match="JSON array"):
            validate_trace_events({"not": "a list"})

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="empty"):
            validate_trace_events([])

    def test_rejects_missing_fields(self):
        with pytest.raises(ValueError, match="missing 'pid'"):
            validate_trace_events([{"name": "x", "ph": "X", "ts": 0, "tid": 0}])

    def test_rejects_unknown_phase(self):
        with pytest.raises(ValueError, match="unknown phase"):
            validate_trace_events(
                [{"name": "x", "ph": "Z", "ts": 0, "pid": 0, "tid": 0}]
            )

    def test_rejects_complete_event_without_dur(self):
        with pytest.raises(ValueError, match="bad dur"):
            validate_trace_events(
                [{"name": "x", "ph": "X", "ts": 0, "pid": 0, "tid": 0}]
            )

    def test_rejects_counter_without_numeric_args(self):
        with pytest.raises(ValueError, match="non-numeric args"):
            validate_trace_events(
                [{"name": "q", "ph": "C", "ts": 0, "pid": 0, "tid": 0,
                  "args": {"depth": "three"}}]
            )

    def test_require_counters(self):
        tracer = Tracer()
        with tracer.span("op", "w0"):
            pass
        events = tracer_trace_events(tracer)
        validate_trace_events(events)
        with pytest.raises(ValueError, match="no counter"):
            validate_trace_events(events, require_counters=True)
