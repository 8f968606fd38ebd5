"""Coarse-to-fine never gives a worse answer: a seeded corpus.

Every dataset is registered twice, full PCIAM (``coarse=False``) and
coarse-to-fine forced on (``coarse=True``), and every pair is held to the
invariant that lets coarse-to-fine be the default phase 1 at paper-scale
tiles:

- its translation equals full PCIAM's, or
- it differs, and then its CCF is at least full PCIAM's and it is no
  farther from the ground truth.

Where full PCIAM places every tile exactly (error below 1 px), the
positions are bit-identical too.  The corpus comes from the virtual
microscope, seeded: tile shapes from 128x128 to 520x696, overlaps
0.10-0.35, three specimens (the factory default, the e2e benchmark's
granular one and a sparse one whose overlaps are mostly featureless),
the factory stage's jitter and backlash plus a rougher stage, and the
data-level damage of ``tests/integration/test_dirty_data.py``.  The wider
sweep, with timings, is ``python benchmarks/bench_phase1_hotpath.py
--coarse-corpus``.
"""

import numpy as np
import pytest

from repro.core.options import StitchOptions
from repro.core.stitcher import Stitcher
from repro.faults.plan import Fault, FaultKind, FaultPlan
from repro.grid.neighbors import Direction
from repro.synth import SpecimenParams, StageModel, make_synthetic_dataset

SPECIMENS = {
    "default": None,
    "granular": SpecimenParams(fine_texture=0.0, background_texture=0.0),
    "sparse": SpecimenParams(colony_count=4, granularity=0.0),
}

#: Twice the factory stage's jitter and backlash at 520x696.
ROUGH_STAGE = StageModel(jitter_sigma=14.0, backlash_x=20.0, backlash_y=3.0,
                         max_error=40.0)

#: ``(tile shape, overlap, specimen, seed, stage, damaged tiles)``; ``None``
#: is the factory stage.  Damage is ``(kind, tile)`` as the dirty-data
#: acceptance test injects it.
CASES = {
    "paper-granular": ((520, 696), 0.10, "granular", 0, None, ()),
    "paper-default": ((520, 696), 0.20, "default", 1, None, ()),
    "paper-sparse": ((520, 696), 0.35, "sparse", 1, None, ()),
    "paper-rough-stage": ((520, 696), 0.20, "granular", 1, ROUGH_STAGE, ()),
    "paper-dust": ((520, 696), 0.10, "default", 0, None,
                   ((FaultKind.DUST, (1, 1)), (FaultKind.SATURATE, (0, 2)))),
    "smoke-default": ((260, 348), 0.10, "default", 0, None, ()),
    "smoke-sparse": ((260, 348), 0.35, "sparse", 0, None, ()),
    "smoke-saturated": ((260, 348), 0.20, "granular", 1, None,
                        ((FaultKind.SATURATE, (1, 1)),)),
    "small-granular": ((128, 128), 0.10, "granular", 0, None, ()),
    "small-sparse": ((128, 128), 0.20, "sparse", 1, None, ()),
    "small-dust": ((128, 128), 0.35, "default", 1, None,
                   ((FaultKind.DUST, (1, 2)), (FaultKind.DUST, (2, 0)))),
}


def true_translation(dataset, direction, row, col):
    """``(tx, ty)`` of tile ``(row, col)`` relative to its west/north
    neighbour, from the acquisition's ground truth."""
    truth = np.asarray(dataset.metadata.true_positions)
    prev = (row, col - 1) if direction is Direction.WEST else (row - 1, col)
    (y1, x1), (y0, x0) = truth[row, col], truth[prev]
    return x1 - x0, y1 - y0


def assert_never_worse(dataset, full, coarse) -> int:
    """The pair invariant over every pair; returns how many differ."""
    differing = 0
    for d in Direction:
        pairs = zip(full.displacements.entries(d),
                    coarse.displacements.entries(d))
        for (r, c, f), (r2, c2, k) in pairs:
            assert (r, c) == (r2, c2)
            if (f.tx, f.ty) == (k.tx, k.ty):
                continue
            differing += 1
            tx, ty = true_translation(dataset, d, r, c)
            where = f"{d.value} pair of tile ({r}, {c})"
            assert k.correlation >= f.correlation, where
            assert (np.hypot(k.tx - tx, k.ty - ty)
                    <= np.hypot(f.tx - tx, f.ty - ty)), where
    return differing


@pytest.mark.parametrize("case", sorted(CASES))
def test_coarse_never_gives_a_worse_answer(case, tmp_path):
    shape, overlap, specimen, seed, stage, damage = CASES[case]
    dataset = make_synthetic_dataset(
        tmp_path, rows=3, cols=3, tile_height=shape[0], tile_width=shape[1],
        overlap=overlap, seed=seed, stage=stage, specimen=SPECIMENS[specimen],
    )
    if damage:
        plan = FaultPlan(seed=seed)
        for kind, tile in damage:
            plan.add(Fault(kind, tile=tile))
        dataset = plan.wrap_dataset(dataset)
    full = Stitcher(coarse=False).stitch(dataset)
    coarse = Stitcher(coarse=True).stitch(dataset)
    stats = coarse.displacements.stats
    assert stats["coarse_hits"] + stats["full_fallbacks"] == 12
    differing = assert_never_worse(dataset, full, coarse)
    if full.position_errors().max() < 1.0:
        assert np.array_equal(coarse.positions.positions,
                              full.positions.positions)
    if specimen != "sparse" and not damage:
        # Only featureless overlaps leave full PCIAM a wrong answer for
        # coarse-to-fine to correct.
        assert differing == 0


def test_the_corpus_spans_both_sides_of_the_gate():
    decided = {StitchOptions().coarse_for(shape) is not None
               for shape, *_ in CASES.values()}
    assert decided == {False, True}
