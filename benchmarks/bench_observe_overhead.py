"""Observability overhead: tracing must be ~free off and cheap on.

The tentpole requirement for the observe layer: instrumented hot paths
cost one attribute read when tracing is disabled (<~0% measurable), and
well under 5% of wall-clock when a tracer + metrics registry is
attached.  Three configurations of the same Pipelined-CPU run (two
partitions, each an overlapped tile/pair pipeline):

- ``off``      -- no tracer/metrics (the NULL_TRACER fast path);
- ``on``       -- live ``Tracer`` + ``MetricsRegistry``: a span per read,
  transform, statistics build and pair on each partition's two rows;
- ``disabled`` -- a ``Tracer(enabled=False)`` passed explicitly (the
  guard path with a non-null object, bounding the attribute-read cost).

Timing-threshold asserts are intentionally loose (CI machines jitter);
the emitted table is the real deliverable.
"""

import time

import pytest

from benchmarks._util import emit
from repro.analysis.report import format_table
from repro.impls import PipelinedCpu
from repro.observe import MetricsRegistry, Tracer
from repro.synth import make_synthetic_dataset

ROUNDS = 5


@pytest.fixture(scope="module")
def bench_dataset(tmp_path_factory):
    d = tmp_path_factory.mktemp("obs_bench")
    return make_synthetic_dataset(
        d, rows=6, cols=6, tile_height=256, tile_width=256, overlap=0.2, seed=42
    )


def _timed_run(dataset, **impl_kw):
    impl = PipelinedCpu(partitions=2, **impl_kw)
    t0 = time.perf_counter()
    impl.run(dataset)
    return time.perf_counter() - t0


def test_observe_overhead(bench_dataset):
    tracer, metrics = Tracer(), MetricsRegistry()
    configs = {
        "off": {},
        "disabled": {"tracer": Tracer(enabled=False)},
        "on": {"tracer": tracer, "metrics": metrics},
    }
    # Warm-up (page cache, numpy/scipy internals), then interleave the
    # configurations round-robin so drift hits all three equally.
    for kw in configs.values():
        _timed_run(bench_dataset, **kw)
    samples = {name: [] for name in configs}
    for _ in range(ROUNDS):
        for name, kw in configs.items():
            samples[name].append(_timed_run(bench_dataset, **kw))
    medians = {
        name: sorted(s)[len(s) // 2] for name, s in samples.items()
    }
    off, disabled, on = medians["off"], medians["disabled"], medians["on"]

    def pct(x):
        return 100.0 * (x - off) / off

    emit(
        "observe_overhead",
        format_table(
            ["configuration", "median (s)", "overhead vs off"],
            [
                ["off (NULL_TRACER)", round(off, 4), "baseline"],
                ["disabled Tracer", round(disabled, 4), f"{pct(disabled):+.1f}%"],
                ["tracer + metrics on", round(on, 4), f"{pct(on):+.1f}%"],
            ],
            title=f"Pipelined-CPU 6x6/256px, median of {ROUNDS}",
        ),
    )
    # Sanity floor for the design goals; wide margins absorb CI jitter.
    assert pct(disabled) < 10.0, "disabled tracer must be near-free"
    assert pct(on) < 25.0, "enabled tracing should stay a small fraction"
    # The enabled run must actually have traced something: a read span
    # per tile read and the run's wall time in the registry.
    assert tracer.span_count("read") > 0
    assert metrics.snapshot()["histograms"]
