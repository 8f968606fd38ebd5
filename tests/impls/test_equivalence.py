"""Cross-implementation equivalence: all six produce the same phase 1.

This is the reproduction's analogue of the paper's validation that its
parallel implementations match the sequential reference.
"""

import pytest

from repro.analysis.metrics import displacement_agreement
from repro.impls import (
    FijiBaseline,
    MtCpu,
    PipelinedCpu,
    PipelinedGpu,
    SimpleCpu,
    SimpleGpu,
)

PARALLEL_IMPLS = [
    ("fiji-baseline", lambda: FijiBaseline()),
    ("mt-cpu-1", lambda: MtCpu(workers=1)),
    ("mt-cpu-3", lambda: MtCpu(workers=3)),
    ("pipelined-cpu-1", lambda: PipelinedCpu(partitions=1)),
    ("pipelined-cpu-2", lambda: PipelinedCpu(partitions=2)),
    ("pipelined-cpu-3", lambda: PipelinedCpu(partitions=3)),
    ("simple-gpu", lambda: SimpleGpu()),
    ("pipelined-gpu-1", lambda: PipelinedGpu(devices=1)),
    ("pipelined-gpu-2", lambda: PipelinedGpu(devices=2, ccf_workers=2)),
    ("pipelined-gpu-3", lambda: PipelinedGpu(devices=3, ccf_workers=1)),
]


@pytest.mark.parametrize("name,factory", PARALLEL_IMPLS)
def test_matches_reference(name, factory, dataset_4x4, reference_displacements):
    res = factory().run(dataset_4x4)
    assert res.displacements.is_complete()
    agreement = displacement_agreement(
        res.displacements, reference_displacements.displacements
    )
    assert agreement == 1.0, f"{name} diverged from Simple-CPU"


@pytest.mark.parametrize("name,factory", [
    ("mt-cpu", lambda: MtCpu(workers=2)),
    ("pipelined-cpu", lambda: PipelinedCpu(partitions=2)),
    ("pipelined-gpu", lambda: PipelinedGpu(devices=2, ccf_workers=2)),
])
def test_nonsquare_grid(name, factory, dataset_3x5):
    ref = SimpleCpu().run(dataset_3x5)
    res = factory().run(dataset_3x5)
    assert displacement_agreement(res.displacements, ref.displacements) == 1.0


def test_correlations_match_too(dataset_4x4, reference_displacements):
    """Not just (tx, ty): the winning CCF values agree across impls."""
    res = PipelinedGpu(devices=2).run(dataset_4x4)
    ref = reference_displacements.displacements
    got = res.displacements
    for arr_ref, arr_got in ((ref.west, got.west), (ref.north, got.north)):
        for row_ref, row_got in zip(arr_ref, arr_got):
            for tr, tg in zip(row_ref, row_got):
                if tr is None:
                    assert tg is None
                else:
                    assert tg.correlation == pytest.approx(tr.correlation, abs=1e-9)
