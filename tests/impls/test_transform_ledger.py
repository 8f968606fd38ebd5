"""Every transform a scheduler runs is one the process ledger counts.

The gateway (:func:`repro.fftlib.plans.transform`) counts each transform
in the process-wide ledger.  A single-pass scheduler transforms each tile
once (``stats["ffts"]``) and inverts each pair's NCC once
(``stats["pairs"]``) -- so the ledger's delta over a stitch is exactly
their sum, on the CPU and on the virtual GPUs alike.  Proc-CPU is absent:
its transforms are counted in its worker processes.
"""

import pytest

from repro.core.stitcher import Stitcher
from repro.synth import make_synthetic_dataset

IN_PROCESS = {
    "simple-cpu": {},
    "mt-cpu": {"workers": 2},
    "pipelined-cpu": {},
    "pipelined-cpu-numa": {"partitions": 2},
    "simple-gpu": {},
    "pipelined-gpu": {"devices": 2},
    "pipelined-gpu-p2p": {"devices": 2, "p2p": True},
    "fiji-baseline": {},
}


@pytest.fixture(scope="module")
def grid_3x4(tmp_path_factory):
    """Clean 64 px tiles: below the coarse gate, so every pair is one
    full-resolution inverse."""
    return make_synthetic_dataset(
        tmp_path_factory.mktemp("ds3x4"), rows=3, cols=4, tile_height=64,
        tile_width=64, overlap=0.25, seed=5,
    )


@pytest.mark.parametrize("name", IN_PROCESS)
def test_ledger_counts_every_tile_forward_and_pair_inverse(
    name, grid_3x4, ledger
):
    stitcher = Stitcher(impl=name.removesuffix("-p2p").removesuffix("-numa"),
                        impl_options=IN_PROCESS[name])
    stats = stitcher.stitch(grid_3x4).stats
    assert stats["pairs"] == 2 * 3 * 4 - 3 - 4
    assert ledger.hits + ledger.misses == stats["ffts"] + stats["pairs"]
