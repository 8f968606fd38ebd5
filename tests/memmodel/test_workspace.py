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
from repro.memmodel.workspace import PairWorkspace, WorkspaceArena

H, W = 520, 696
#: One spatial float64 plane: what the inverse alone allocated per pair
#: before it landed in the workspace.
PLANE = H * W * 8


# One transform kind is left (R2C/C2R); the id still names it.
@pytest.mark.parametrize("kind", ["r2c"])
def test_warm_register_pair_peaks_below_one_spatial_plane(kind):
    rng = np.random.default_rng(11)
    plate = rng.integers(0, 65535, size=(H, W + 200), dtype=np.uint16)
    kernel = Phase1Kernel(n_peaks=2)
    first = kernel.products(plate[:, :W])
    second = kernel.products(plate[:, 200:])
    ws = PairWorkspace((H, W))
    disp = DisplacementResult.empty(1, 2)
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
    ws = PairWorkspace((H, W), fallback_shape=(2 * H, 2 * W))
    assert ws.ncc.shape == ws.ncc_mag.shape == (H, W // 2 + 1)
    assert ws.spatial.shape == (H, W) and ws.spatial.dtype == np.float64
    assert ws.nbytes == ws.ncc.nbytes + ws.ncc_mag.nbytes + ws.spatial.nbytes
    assert ws.fallback is ws.fallback  # allocated once, on first use
    assert ws.fallback.spatial.shape == (2 * H, 2 * W)
    assert ws.fallback.fallback is None


def test_arena_hands_out_a_fixed_set():
    arena = WorkspaceArena((H, W), count=2)
    a, b = arena.acquire(), arena.acquire()
    assert a is not b and a.ncc.shape == (H, W // 2 + 1)
    with pytest.raises(TimeoutError):
        arena.acquire(timeout=0.01)
    arena.release(a)
    assert arena.acquire(timeout=0.01) is a
