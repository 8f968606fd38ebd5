"""Simple-CPU: the sequential reference implementation (Section IV.A).

Transform-caching, early-freeing, with a configurable traversal order
defaulting to the paper's chained diagonal.  This is a thin adapter over
:func:`repro.core.displacement.compute_grid_displacements`, which *is* the
reference algorithm (and which, for large tiles on two or more CPUs, runs
its pair stage one tile behind its tile stage on a helper thread -- same
steps, same order, same answers); every other implementation's output is
compared against this one in the integration tests (as the paper's authors
validated their parallel versions against their sequential code).
"""

from __future__ import annotations

from repro.core.displacement import DisplacementResult, compute_grid_displacements
from repro.grid.traversal import Traversal
from repro.impls.base import Implementation
from repro.io.dataset import TileDataset


class SimpleCpu(Implementation):
    """Sequential CPU implementation (10.6 min on the paper's machine)."""

    name = "simple-cpu"

    def __init__(self, traversal: Traversal = Traversal.CHAINED_DIAGONAL, **kw) -> None:
        super().__init__(**kw)
        self.traversal = traversal

    def _run(self, dataset: TileDataset) -> tuple[DisplacementResult, dict]:
        disp = compute_grid_displacements(
            dataset.load, dataset.rows, dataset.cols,
            traversal=self.traversal, kernel=self.kernel,
        )
        return disp, dict(disp.stats)
