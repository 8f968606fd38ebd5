"""Determinism: repeated runs of every implementation agree exactly.

The pipelined implementations are heavily threaded; this pins that thread
scheduling can never change *answers* (only timing).
"""

import pytest

from repro.analysis.metrics import displacement_agreement
from repro.impls import ALL_IMPLEMENTATIONS


#: ``name -> (scheduler, constructor kwargs)``: every scheduler, plus
#: Pipelined-CPU's per-socket configuration under the paper's name for it.
CONFIGS = {name: (name, {}) for name in ALL_IMPLEMENTATIONS} | {
    "mt-cpu": ("mt-cpu", {"workers": 3}),
    "pipelined-cpu-numa": ("pipelined-cpu", {"partitions": 3}),
    "pipelined-gpu": ("pipelined-gpu", {"devices": 2, "ccf_workers": 3}),
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_two_runs_identical(name, dataset_3x5):
    impl, kwargs = CONFIGS[name]
    cls = ALL_IMPLEMENTATIONS[impl]
    a = cls(**kwargs).run(dataset_3x5)
    b = cls(**kwargs).run(dataset_3x5)
    assert displacement_agreement(a.displacements, b.displacements) == 1.0


def test_des_deterministic():
    from repro.simulate.costmodel import PAPER_MACHINE
    from repro.simulate.schedules import simulate_pipelined_gpu

    a = simulate_pipelined_gpu(PAPER_MACHINE, 8, 8, 2, tile=(64, 64))
    b = simulate_pipelined_gpu(PAPER_MACHINE, 8, 8, 2, tile=(64, 64))
    assert a.makespan_seconds == b.makespan_seconds
    assert [(o.start, o.end) for o in a.sim.ops] == [
        (o.start, o.end) for o in b.sim.ops
    ]
