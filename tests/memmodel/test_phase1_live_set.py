"""Phase 1 holds one full-size float64 array per live tile.

``Phase1Kernel.products`` converts a tile to float64 once: the transform
reads that array and ``TileStats`` keeps it, mean-shifted in place.  A
second float64 copy per tile -- a conversion inside ``downsample`` or the
transform, or a mean subtraction into a new array -- raises phase 1's
traced peak by a whole plane, which the bound below does not allow.
Deterministic: tracemalloc counts numpy's buffers; nothing is timed.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core.coarse import CoarseConfig
from repro.core.displacement import compute_grid_displacements
from repro.core.downsample import downsampled_shape
from repro.core.kernel import Phase1Kernel
from repro.core.pciam import CcfMode
from repro.synth.specimen import generate_plate

ROWS = COLS = 3
#: Above ``MARGINAL_MIN_TILE_PIXELS``: the statistics keep marginals.
TILE = 512
STEP = int(TILE * 0.8)
#: Python objects of the run and the O(h+w) vectors of one tile build and
#: one pair: measured at 0.16-0.23 MiB on 256-768 px tiles, against the
#: 2 MiB float64 plane of a 512 px tile that a second copy would add.
SLACK = 256 * 1024 + 64 * 2 * TILE


@pytest.fixture(scope="module")
def plate():
    size = STEP * (ROWS - 1) + TILE
    p = generate_plate(size, size, seed=5)
    return (p * (60000.0 / p.max())).astype(np.uint16)


@pytest.mark.parametrize("coarse", [True, False], ids=["coarse", "full"])
def test_phase1_peak_holds_one_float64_plane_per_live_tile(plate, coarse):
    def load(r, c):
        # A fresh array per read, as a decoder returns: raw pixels count.
        return plate[r * STEP:r * STEP + TILE, c * STEP:c * STEP + TILE].copy()

    kernel = Phase1Kernel(coarse=CoarseConfig() if coarse else None,
                          ccf_mode=CcfMode.EXTENDED, n_peaks=2)
    compute_grid_displacements(load, ROWS, COLS, kernel=kernel,
                               overlap=False)  # warm: transform ledger
    tracemalloc.start()
    try:
        disp = compute_grid_displacements(load, ROWS, COLS, kernel=kernel,
                                          overlap=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    stats = disp.stats
    assert disp.is_complete()
    # A fallback legitimately adds a full-resolution spectrum and scratch.
    assert stats.get("full_fallbacks", 0) == 0

    shape = (TILE, TILE)
    raw = TILE * TILE * 2
    plane = TILE * TILE * 8
    spectrum = int(np.prod(kernel.buffer_shape(shape))) * 16
    marginals = (2 * TILE + 2) * 16
    # The build's own transient: the coarse plane downsample returns.
    build = 0
    if coarse:
        build = int(np.prod(downsampled_shape(shape, CoarseConfig().factor))) * 8
    bound = (stats["peak_live_transforms"]
             * (raw + plane + spectrum + marginals)
             + stats["workspace_bytes"] + build + SLACK)
    assert peak <= bound, (
        f"phase 1 peaked at {peak} B, {(peak - bound) / plane:.2f} float64 "
        f"planes over its bound of {bound} B"
    )
