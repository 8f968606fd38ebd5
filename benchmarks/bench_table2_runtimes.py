"""Table II: run times and speedups for the 42x59 grid.

Two parts:

1. **Paper scale** (DES): the 42x59 x 1392x1040 workload on the modeled
   evaluation machine, all seven rows, with the published numbers printed
   alongside for comparison.  Also the Section VI laptop validation.
2. **Real execution** (small scale): every implementation actually runs on
   a synthetic 6x6 dataset in this container; wall times are reported by
   pytest-benchmark.  (This container has one CPU core, so real parallel
   speedups are not observable here -- the DES carries the scaling claims.)
"""

import pytest

from benchmarks._util import emit, once
from repro.analysis.report import format_table
from repro.impls import ALL_IMPLEMENTATIONS
from repro.simulate.costmodel import LAPTOP
from repro.simulate.experiments import PAPER_TABLE2, table2_runtimes
from repro.simulate.schedules import simulate_pipelined_cpu, simulate_pipelined_gpu
from repro.synth import make_synthetic_dataset


def test_table2_paper_scale(benchmark):
    from repro.analysis.steerability import steerability

    rows = once(benchmark, table2_runtimes)
    text = format_table(
        ["implementation", "time (s)", "S/CPU", "S/ImageJ", "threads", "GPUs",
         "paper (s)", "steerable@45min"],
        [
            [
                r.implementation,
                round(r.seconds, 1),
                round(r.speedup_vs_simple_cpu, 1),
                round(r.speedup_vs_imagej, 1),
                r.cpu_threads if r.cpu_threads else "-",
                r.gpus if r.gpus else "-",
                round(r.paper_seconds, 1),
                "yes" if steerability(r.seconds, analysis_seconds=600).steerable
                else "NO",
            ]
            for r in rows
        ],
        title="Table II -- run times & speedups, 42x59 grid (simulated machine)",
    )
    emit("table2_runtimes", text)
    by_name = {r.implementation: r for r in rows}
    # Paper ordering must hold.
    assert by_name["pipelined-gpu-2"].seconds < by_name["pipelined-gpu-1"].seconds
    assert by_name["pipelined-gpu-1"].seconds < by_name["pipelined-cpu"].seconds
    assert by_name["simple-gpu"].seconds < by_name["simple-cpu"].seconds
    assert by_name["imagej-fiji"].seconds > by_name["simple-cpu"].seconds
    for name, row in by_name.items():
        assert 0.65 < row.seconds / PAPER_TABLE2[name] < 1.35


def test_table2_laptop_validation(benchmark):
    def run():
        return (
            simulate_pipelined_gpu(LAPTOP, 42, 59, 1).makespan_seconds,
            simulate_pipelined_cpu(LAPTOP, 42, 59, 8).makespan_seconds,
        )

    gpu_s, cpu_s = once(benchmark, run)
    text = format_table(
        ["implementation", "time (s)", "paper (s)"],
        [["pipelined-gpu (laptop)", round(gpu_s, 1), 130],
         ["pipelined-cpu (laptop)", round(cpu_s, 1), 146]],
        title="Section VI laptop validation (i7-950 + GTX 560M, simulated)",
    )
    emit("table2_laptop", text)
    assert gpu_s == pytest.approx(130, rel=0.2)
    assert cpu_s == pytest.approx(146, rel=0.2)


@pytest.fixture(scope="module")
def bench_dataset(tmp_path_factory):
    d = tmp_path_factory.mktemp("t2")
    return make_synthetic_dataset(
        d, rows=6, cols=6, tile_height=64, tile_width=64, overlap=0.2, seed=2
    )


@pytest.mark.parametrize("name", sorted(ALL_IMPLEMENTATIONS))
def test_table2_real_execution(benchmark, bench_dataset, name):
    cls = ALL_IMPLEMENTATIONS[name]
    kwargs = {}
    if name == "mt-cpu":
        kwargs = {"workers": 2}
    elif name == "pipelined-cpu":
        kwargs = {"partitions": 2}
    elif name == "pipelined-gpu":
        kwargs = {"devices": 2, "ccf_workers": 2}

    def run():
        return cls(**kwargs).run(bench_dataset)

    res = once(benchmark, run)
    assert res.displacements.is_complete()
