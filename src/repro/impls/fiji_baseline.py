"""Fiji-plugin-architecture baseline (the paper's Table II comparator).

The ImageJ/Fiji stitching plugin (Preibisch et al. 2009) executes "the same
mathematical operators" as the paper's system yet takes >3.6 h where the
pipelined GPU takes 49.7 s.  The gap is architectural, and this baseline
reproduces the plugin's architecture faithfully so the gap is measurable
here too:

- **no transform caching**: each pairwise registration recomputes *both*
  forward FFTs, so a grid pays ``2*(2nm - n - m)`` transforms instead of
  ``nm`` -- nearly 4x the transform work before anything else;
- **per-pair I/O**: tiles are re-read from disk for every pair they
  participate in (the plugin operates on ImagePlus objects fetched per
  comparison when memory pressure forces cache eviction);
- **per-pair allocation**: no buffer reuse across pairs;
- **multi-peak checking** (``n_peaks=5`` by default, the plugin's
  ``checkPeaks`` default), which costs extra CCF evaluations per pair.

Its *output* is equivalent to the reference implementation (same operators,
same answers); only the cost structure differs.  It visits its pairs in
the order the traversal makes them ready
(:func:`~repro.grid.traversal.replay`), like every other scheduler.
"""

from __future__ import annotations

from repro.core.displacement import DisplacementResult
from repro.grid.tile_grid import TileGrid
from repro.grid.traversal import Traversal, replay, traverse
from repro.impls.base import Implementation
from repro.io.dataset import TileDataset


class FijiBaseline(Implementation):
    """Plugin-style per-pair registration with no cross-pair reuse."""

    name = "fiji-baseline"

    def __init__(self, traversal: Traversal = Traversal.CHAINED_DIAGONAL,
                 **kw) -> None:
        if "kernel" not in kw:
            kw.setdefault("n_peaks", 5)
        super().__init__(**kw)
        self.traversal = traversal

    def _run(self, dataset: TileDataset) -> tuple[DisplacementResult, dict]:
        kernel = self.kernel
        grid = TileGrid(dataset.rows, dataset.cols)
        disp = DisplacementResult.empty(dataset.rows, dataset.cols)
        stats = {"reads": 0, "ffts": 0, "pairs": 0, "resumed_pairs": 0}
        order = traverse(grid, self.traversal)
        for pair in (p for _pos, ready in replay(grid, order) for p in ready):
            cell = (pair.direction, pair.second.row, pair.second.col)
            if kernel.serve_journaled(disp, *cell, stats):
                continue
            with kernel.tracer.span("pair", "fiji-baseline", key=pair):
                # Deliberately reload and re-transform both tiles per pair.
                img_i = kernel.read(dataset.load, *pair.first)
                img_j = kernel.read(dataset.load, *pair.second)
                if img_i is None or img_j is None:
                    bad = pair.first if img_i is None else pair.second
                    kernel.skip_tile_pairs(bad, [pair])
                    continue
                stats["reads"] += 2
                # No workspace on purpose -- per-pair allocation is part of
                # the plugin architecture being reproduced.  Kernel-level
                # choices (half-spectrum transforms, tile statistics,
                # coarse-to-fine registration) are shared: they change
                # cost, not architecture or answers.  In coarse mode both
                # coarse spectra are recomputed per pair, matching the
                # plugin's no-caching cost structure.
                kernel.register_pair(
                    disp, *cell,
                    kernel.products(img_i, stats),
                    kernel.products(img_j, stats),
                    stats=stats,
                )
        disp.stats = stats
        return disp, stats
