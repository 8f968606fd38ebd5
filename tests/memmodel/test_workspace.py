"""A warm pair with a workspace allocates nothing array-sized.

The pair workspace holds the NCC, its magnitude and one spatial surface;
the inverse transform lands in that surface (``transform(..., out=)``) and
the peak reduction takes its magnitude there in place.  Measured by
tracemalloc (numpy registers its buffers with it), at the size of one
696x520 camera tile.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core.kernel import DisplacementResult, Phase1Kernel
from repro.grid.neighbors import Direction
from repro.memmodel.workspace import WorkspaceArena

H, W = 520, 696
#: One spatial float64 plane: what the inverse alone allocated per pair
#: before it landed in the workspace.
PLANE = H * W * 8


@pytest.mark.parametrize("real", [True, False], ids=["r2c", "c2c"])
def test_warm_register_pair_peaks_below_one_spatial_plane(real):
    rng = np.random.default_rng(11)
    plate = rng.integers(0, 65535, size=(H, W + 200), dtype=np.uint16)
    kernel = Phase1Kernel(real_transforms=real, n_peaks=2)
    first = kernel.products(plate[:, :W])
    second = kernel.products(plate[:, 200:])
    arena = WorkspaceArena((H, W), real=real)
    disp = DisplacementResult.empty(1, 2)
    with arena.workspace() as ws:
        warm = kernel.register_pair(disp, Direction.WEST, 0, 1, first, second,
                                    workspace=ws)
        tracemalloc.start()
        try:
            t = kernel.register_pair(disp, Direction.WEST, 0, 1, first,
                                     second, workspace=ws)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert (t.tx, t.ty) == (200, 0)
    assert t == warm
    assert peak < PLANE, f"pair allocated {peak} B (one plane is {PLANE} B)"


def test_workspace_surfaces():
    arena = WorkspaceArena((H, W), real=True, count=2)
    ws = arena.acquire()
    assert ws.ncc.shape == ws.ncc_mag.shape == (H, W // 2 + 1)
    assert ws.spatial.shape == (H, W) and ws.spatial.dtype == np.float64
    assert arena.bytes_per_workspace == ws.nbytes
    arena.release(ws)
