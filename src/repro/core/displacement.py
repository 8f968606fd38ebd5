"""Phase 1: relative displacements for the whole grid (Fig. 4).

This is the sequential *reference* schedule -- the ground truth against
which every other scheduler in :mod:`repro.impls` is checked.  It computes
each tile's products once, reuses them across the tile's incident pairs,
and frees them under the paper's early-release policy driven by the
traversal order (Section IV.A).  What is computed per tile and per pair
lives in :mod:`repro.core.kernel`, shared with every other scheduler.
"""

from __future__ import annotations

import numpy as np

from repro.core.kernel import DisplacementResult, Phase1Kernel, Translation
from repro.grid.neighbors import grid_pairs, pairs_for_tile
from repro.grid.tile_grid import GridPosition, TileGrid
from repro.grid.traversal import Traversal, traverse
from repro.pipeline.graph import aggregate_failures

__all__ = ["DisplacementResult", "Translation", "compute_grid_displacements"]


def compute_grid_displacements(
    load_tile,
    rows: int,
    cols: int,
    traversal: Traversal = Traversal.CHAINED_DIAGONAL,
    kernel: Phase1Kernel | None = None,
    **kernel_options,
) -> DisplacementResult:
    """Compute west/north translations for the whole grid sequentially.

    ``load_tile(row, col) -> ndarray`` supplies pixels (e.g.
    ``TileDataset.load``); tiles and their products are released as soon
    as the early-free policy allows, so peak memory follows the traversal
    order, not the grid size.

    ``kernel`` is the run's :class:`~repro.core.kernel.Phase1Kernel`;
    without one, ``kernel_options`` (``fft_shape``, ``ccf_mode``,
    ``n_peaks``, ``real_transforms``, ``subpixel``, ``cache``,
    ``planning``, ``error_policy``, ``fault_report``, ``tracer``,
    ``metrics``, ``use_tile_stats``, ``use_workspace``, ``journal``,
    ``coarse``) build it -- see that class for what each does.

    Instrumented: ``result.stats`` records FFT/pair/read counts and the peak
    number of live transforms (these feed the Table I verification bench).
    With a tracer, every read, (downsample,) forward FFT, statistics build
    and pair registration becomes a span on the ``"sequential"`` timeline
    track -- the single-row analogue of the pipelined schedulers'
    per-stage timelines.

    Under an abort policy an exhausted read raises a
    :class:`~repro.pipeline.graph.PipelineError` naming the logical stage;
    under a skip policy the tile is dropped -- with every pair it
    participates in -- and the damage lands in the fault report and
    ``result.stats``.  A journaled pair is never recomputed, and a tile
    whose incident pairs are all journaled is not even read.
    """
    if kernel is None:
        kernel = Phase1Kernel(**kernel_options)
    elif kernel_options:
        raise TypeError("pass a kernel or kernel options, not both")
    tracer = kernel.tracer
    grid = TileGrid(rows, cols)
    result = DisplacementResult.empty(rows, cols)

    products: dict[GridPosition, tuple] = {}
    failed_tiles: set[GridPosition] = set()
    n_skipped = 0
    stats = {
        "reads": 0,
        "ffts": 0,
        "pairs": 0,
        "peak_live_transforms": 0,
        "fft_copies_saved": 0,
    }
    if kernel.coarse is not None:
        stats["coarse_hits"] = 0
        stats["full_fallbacks"] = 0
    # Resume: serve journaled pairs up front so the traversal below skips
    # their computation (and the loads of tiles with nothing left to do).
    pairs_done = {
        pair for pair in grid_pairs(grid)
        if kernel.serve_journaled(
            result, pair.direction, pair.second.row, pair.second.col, stats
        )
    }

    # One workspace for the whole sequential run: pairs are processed one
    # at a time, so a single scratch set serves every pair (built once the
    # first pair reveals the native tile shape).
    arena = workspace = None

    def ensure_loaded(pos: GridPosition) -> None:
        nonlocal n_skipped
        if pos in products or pos in failed_tiles:
            return
        incident = pairs_for_tile(grid, pos.row, pos.col)
        # A resumed tile with every incident pair already journaled
        # contributes nothing: don't even read it.
        if all(p in pairs_done for p in incident):
            return
        key = str(pos)
        with tracer.span("read", "sequential", key=key):
            try:
                pixels = kernel.read(load_tile, pos.row, pos.col)
            except Exception as exc:
                if kernel.error_policy is None:
                    raise
                raise aggregate_failures(
                    "displacement", [("read", exc)]
                ) from exc
        if pixels is None:
            failed_tiles.add(pos)
            # Its pairs can never be computed: mark them done so the
            # early-free policy still releases the surviving neighbours.
            lost = [p for p in incident if p not in pairs_done]
            pairs_done.update(lost)
            n_skipped += len(lost)
            kernel.skip_tile_pairs(pos, lost)
            return
        stats["reads"] += 1
        products[pos] = kernel.products(
            np.asarray(pixels, dtype=np.float64), stats,
            track="sequential", key=key,
        )
        stats["peak_live_transforms"] = max(
            stats["peak_live_transforms"], len(products)
        )

    def maybe_release(pos: GridPosition) -> None:
        if pos in products and all(
            p in pairs_done for p in pairs_for_tile(grid, pos.row, pos.col)
        ):
            del products[pos]

    for pos in traverse(grid, traversal):
        ensure_loaded(pos)
        for pair in pairs_for_tile(grid, pos.row, pos.col):
            if pair in pairs_done:
                continue
            first, second = products.get(pair.first), products.get(pair.second)
            if first is None or second is None:
                continue
            if workspace is None and kernel.use_workspace:
                arena = kernel.arena(first[0].shape, count=1)
                workspace = arena.acquire()
                stats["workspace_bytes"] = arena.bytes_per_workspace
            with tracer.span("pair", "sequential", key=str(pair)):
                kernel.register_pair(
                    result, pair.direction, pair.second.row, pair.second.col,
                    first, second, workspace, stats,
                )
            pairs_done.add(pair)
        # Release this tile and any neighbour that just completed.
        maybe_release(pos)
        for pair in pairs_for_tile(grid, pos.row, pos.col):
            maybe_release(pair.first if pair.second == pos else pair.second)

    if workspace is not None:
        arena.release(workspace)
    if failed_tiles:
        stats["skipped_tiles"] = sorted((p.row, p.col) for p in failed_tiles)
        stats["skipped_pairs"] = n_skipped
    result.stats = stats
    if not result.is_complete() and not failed_tiles:  # pragma: no cover
        raise RuntimeError(
            f"displacement phase incomplete: {result.pair_count()} pairs of "
            f"{2 * rows * cols - rows - cols}"
        )
    return result
