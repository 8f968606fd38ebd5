"""Coarse-to-fine mode across implementations.

Two guarantees: with ``coarse`` unset every implementation is
bit-identical to its pre-coarse self (the two-pass code must be
invisible when off), and with ``coarse`` set all implementations agree
with coarse-mode Simple-CPU -- including which pairs were coarse hits
versus full-resolution fallbacks (the shared
:func:`~repro.core.coarse.resolve_coarse_peaks` gate is what makes the
GPU paths land on the same answers as the CPU ones).
"""

import pytest

from repro.core.coarse import CoarseConfig
from repro.impls import (
    FijiBaseline,
    MtCpu,
    PipelinedCpu,
    PipelinedGpu,
    SimpleCpu,
    SimpleGpu,
)

COARSE = CoarseConfig()

IMPLS = [
    ("fiji-baseline", lambda **kw: FijiBaseline(**kw)),
    ("mt-cpu", lambda **kw: MtCpu(workers=3, **kw)),
    ("pipelined-cpu", lambda **kw: PipelinedCpu(partitions=2, **kw)),
    ("simple-gpu", lambda **kw: SimpleGpu(**kw)),
    ("pipelined-gpu", lambda **kw: PipelinedGpu(devices=2, ccf_workers=2, **kw)),
]


def signatures(result):
    """Per-pair (corr, tx, ty, provenance) map keyed by (direction, r, c)."""
    sig = {}
    d = result.displacements
    for direction, grid in (("west", d.west), ("north", d.north)):
        for r, row in enumerate(grid):
            for c, t in enumerate(row):
                if t is not None:
                    sig[(direction, r, c)] = (
                        t.correlation, t.tx, t.ty,
                        getattr(t, "provenance", None),
                    )
    return sig


@pytest.fixture(scope="module")
def coarse_reference(dataset_4x4):
    return SimpleCpu(coarse=COARSE).run(dataset_4x4)


def test_reference_coarse_mode_has_provenance(coarse_reference):
    sig = signatures(coarse_reference)
    provs = {v[3] for v in sig.values()}
    assert provs <= {"coarse", "fallback"}
    assert "coarse" in provs  # the shortcut must actually fire
    stats = coarse_reference.stats
    hits = sum(1 for v in sig.values() if v[3] == "coarse")
    falls = sum(1 for v in sig.values() if v[3] == "fallback")
    assert stats.get("coarse_hits", 0) == hits
    assert stats.get("full_fallbacks", 0) == falls


def test_coarse_off_is_bit_identical_to_reference(
    dataset_4x4, reference_displacements
):
    res = SimpleCpu(coarse=None).run(dataset_4x4)
    assert signatures(res) == signatures(reference_displacements)
    assert all(v[3] is None for v in signatures(res).values())


@pytest.mark.parametrize("name,factory", IMPLS)
def test_coarse_mode_matches_reference(
    name, factory, dataset_4x4, coarse_reference
):
    res = factory(coarse=COARSE).run(dataset_4x4)
    assert signatures(res) == signatures(coarse_reference), (
        f"{name} diverged from coarse-mode Simple-CPU"
    )


@pytest.mark.parametrize("name,factory", [
    ("mt-cpu", lambda **kw: MtCpu(workers=2, **kw)),
    ("pipelined-gpu", lambda **kw: PipelinedGpu(devices=2, **kw)),
])
def test_coarse_nonsquare_grid(name, factory, dataset_3x5):
    ref = SimpleCpu(coarse=COARSE).run(dataset_3x5)
    res = factory(coarse=COARSE).run(dataset_3x5)
    assert signatures(res) == signatures(ref), f"{name} diverged on 3x5"


def test_coarse_counters_exposed_in_stats(dataset_4x4):
    res = MtCpu(workers=2, coarse=COARSE).run(dataset_4x4)
    assert res.stats.get("coarse_hits", 0) + res.stats.get(
        "full_fallbacks", 0
    ) == 24  # 4x4 grid: 12 west + 12 north pairs
