"""Degenerate grid shapes through every implementation.

1xN strips (common in slide scanning), single columns, and 1x1 grids are
the classic off-by-one killers for partitioned/pipelined code.
"""

import numpy as np
import pytest

from repro.analysis.metrics import displacement_agreement
from repro.impls import ALL_IMPLEMENTATIONS, SimpleCpu
from repro.io.dataset import TileDataset
from repro.synth import make_synthetic_dataset


@pytest.fixture(scope="module")
def strip_1x6(tmp_path_factory):
    # A 1xN strip has no redundant graph paths (every west edge is a
    # bridge), so each pair must register on its own: use a realistic
    # tile size/overlap rather than the minimal test geometry.
    return make_synthetic_dataset(
        tmp_path_factory.mktemp("strip"), rows=1, cols=6,
        tile_height=72, tile_width=72, overlap=0.3, seed=31,
    )


@pytest.fixture(scope="module")
def column_5x1(tmp_path_factory):
    return make_synthetic_dataset(
        tmp_path_factory.mktemp("col"), rows=5, cols=1,
        tile_height=48, tile_width=48, overlap=0.25, seed=32,
    )


@pytest.fixture(scope="module")
def single_1x1(tmp_path_factory):
    return make_synthetic_dataset(
        tmp_path_factory.mktemp("one"), rows=1, cols=1,
        tile_height=48, tile_width=48, overlap=0.25, seed=33,
    )


#: ``name -> (scheduler, constructor kwargs)``: every scheduler, plus
#: Pipelined-CPU's per-socket configuration under the paper's name for it.
CONFIGS = {name: (name, {}) for name in ALL_IMPLEMENTATIONS} | {
    "mt-cpu": ("mt-cpu", {"workers": 3}),
    "pipelined-cpu-numa": ("pipelined-cpu", {"partitions": 2}),
    "pipelined-gpu": ("pipelined-gpu", {"devices": 2, "ccf_workers": 2}),
}


def build(name):
    impl, kwargs = CONFIGS[name]
    return ALL_IMPLEMENTATIONS[impl](**kwargs)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_horizontal_strip(name, strip_1x6):
    ref = SimpleCpu().run(strip_1x6)
    res = build(name).run(strip_1x6)
    assert res.displacements.pair_count() == 5
    assert displacement_agreement(res.displacements, ref.displacements) == 1.0


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_vertical_column(name, column_5x1):
    ref = SimpleCpu().run(column_5x1)
    res = build(name).run(column_5x1)
    assert res.displacements.pair_count() == 4
    assert displacement_agreement(res.displacements, ref.displacements) == 1.0


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_single_tile(name, single_1x1):
    res = build(name).run(single_1x1)
    assert res.displacements.pair_count() == 0
    assert res.displacements.is_complete()


def test_strip_stitches_end_to_end(strip_1x6):
    from repro.core.stitcher import Stitcher

    res = Stitcher().stitch(strip_1x6)
    assert res.position_errors().max() == 0.0
