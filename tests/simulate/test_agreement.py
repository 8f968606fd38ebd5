"""The simulated schedules read what the real schedulers read.

The Table II / Fig. 9-12 reproduction stands on the simulator building
each scheduler's own schedule: the same column partitions, ghost columns
and pair readiness (``repro.grid.traversal``).  Every partitioned
scheduler is run for real and simulated over the same grids and
partition counts, and the simulated operations are counted against the
run's own statistics.
"""

import pytest

from repro.impls import MtCpu, PipelinedCpu, PipelinedCpuNuma, PipelinedGpu
from repro.simulate.costmodel import PAPER_MACHINE
from repro.simulate.schedules import (
    simulate_mt_cpu,
    simulate_pipelined_cpu,
    simulate_pipelined_cpu_numa,
    simulate_pipelined_gpu,
)
from repro.synth import make_synthetic_dataset

GRIDS = [(1, 4), (2, 3), (3, 5), (4, 1)]
TILE = (32, 32)

#: ``name -> (real scheduler, simulated schedule)`` for ``n`` partitions.
#: The per-socket simulator gets ``threads >= sockets`` so its socket
#: count is not clamped below the real one.
SCHEDULERS = {
    "pipelined-cpu": (
        lambda n: PipelinedCpu(workers=1),
        lambda rows, cols, n: simulate_pipelined_cpu(
            PAPER_MACHINE, rows, cols, 1, tile=TILE),
    ),
    "pipelined-cpu-numa": (
        lambda n: PipelinedCpuNuma(sockets=n, workers_per_socket=1),
        lambda rows, cols, n: simulate_pipelined_cpu_numa(
            PAPER_MACHINE, rows, cols, n, sockets=n, tile=TILE),
    ),
    "pipelined-gpu": (
        lambda n: PipelinedGpu(devices=n, ccf_workers=1),
        lambda rows, cols, n: simulate_pipelined_gpu(
            PAPER_MACHINE, rows, cols, n, tile=TILE),
    ),
    "pipelined-gpu-p2p": (
        lambda n: PipelinedGpu(devices=n, ccf_workers=1, p2p=True),
        lambda rows, cols, n: simulate_pipelined_gpu(
            PAPER_MACHINE, rows, cols, n, tile=TILE, p2p=True),
    ),
}

#: Schedulers whose simulated schedule is deliberately not the real one.
EXEMPT = {
    "mt-cpu": (
        "simulate_mt_cpu models the paper's MT-CPU, where the band below "
        "re-reads the boundary row (what Table II's MT-CPU row measures); "
        "MtCpu prefetches each boundary row once"
    ),
}


@pytest.fixture(scope="module")
def datasets(tmp_path_factory):
    root = tmp_path_factory.mktemp("agreement")
    return {
        (rows, cols): make_synthetic_dataset(
            root / f"{rows}x{cols}", rows=rows, cols=cols,
            tile_height=TILE[0], tile_width=TILE[1], overlap=0.25, seed=5,
        )
        for rows, cols in GRIDS
    }


def op_count(sim_result, *names) -> int:
    return sum(1 for op in sim_result.sim.ops if op.name in names)


@pytest.mark.parametrize("parts", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"{g[0]}x{g[1]}")
@pytest.mark.parametrize("name", sorted(SCHEDULERS))
def test_simulated_schedule_counts_the_real_run(name, grid, parts, datasets):
    real, simulated = SCHEDULERS[name]
    stats = real(parts).run(datasets[grid]).stats
    sim = simulated(*grid, parts)
    assert op_count(sim, "read") == stats["reads"]
    assert op_count(sim, "pair", "ccf") == stats["pairs"]
    assert op_count(sim, "p2p-copy") == stats.get("p2p_copies", 0)


def test_mt_cpu_is_the_one_exemption(tmp_path):
    assert set(EXEMPT) == {"mt-cpu"}
    ds = make_synthetic_dataset(
        tmp_path / "6x4", rows=6, cols=4, tile_height=TILE[0],
        tile_width=TILE[1], overlap=0.25, seed=5,
    )
    real = MtCpu(workers=3).run(ds).stats
    sim = simulate_mt_cpu(PAPER_MACHINE, 6, 4, 3, tile=TILE)
    assert real["reads"] == 24
    assert op_count(sim, "read") == 32  # two boundary rows read again
