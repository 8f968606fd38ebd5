"""Per-socket Pipelined-CPU (the paper's §IV.B future-work variant).

"In the future, we will modify this implementation to create one execution
pipeline per CPU socket."  The evaluation machine is a dual-socket Xeon;
one pipeline per socket keeps each pipeline's working set on its socket's
memory controller and halves contention on the shared queues.

Structure: the grid is decomposed into contiguous column partitions (one
per socket), exactly like the multi-GPU decomposition; each partition runs
:class:`~repro.impls.pipelined_cpu.PipelinedCpu`'s 3-stage pipeline
(reader / compute / bookkeeping) over its own pair set with a private
transform pool, and boundary ("ghost") columns are read and transformed by
both adjacent partitions.  Outputs land in disjoint cells of the shared
result.
"""

from __future__ import annotations

import threading

from repro.core.displacement import DisplacementResult
from repro.grid.neighbors import grid_pairs
from repro.grid.tile_grid import TileGrid, split_range
from repro.impls.pipelined_cpu import PipelinedCpu
from repro.io.dataset import TileDataset


class PipelinedCpuNuma(PipelinedCpu):
    """One 3-stage CPU pipeline per socket over a column partition."""

    name = "pipelined-cpu-numa"

    def __init__(self, sockets: int = 2, workers_per_socket: int = 2,
                 **kw) -> None:
        if sockets < 1:
            raise ValueError("need at least one socket")
        super().__init__(workers=workers_per_socket, **kw)
        self.sockets = sockets

    def _run(self, dataset: TileDataset) -> tuple[DisplacementResult, dict]:
        grid = TileGrid(dataset.rows, dataset.cols)
        disp = DisplacementResult.empty(dataset.rows, dataset.cols)
        stats_lock = threading.Lock()
        stats = {"reads": 0, "ffts": 0, "pairs": 0}
        disp.stats = stats

        all_pairs = list(grid_pairs(grid))
        lines = []
        for c0, c1 in split_range(dataset.cols, self.sockets):
            pairs = frozenset(p for p in all_pairs if c0 <= p.second.col < c1)
            if pairs:  # none on a 1x1 grid or a pairless first column
                lines.append(self._build_pipeline(
                    dataset, grid, disp, stats, stats_lock, pairs
                ))
        stats["sockets"] = len(lines)
        for pipe, _, _ in lines:
            pipe.start()
        for pipe, _, _ in lines:
            pipe.join()
        for _, _, workspaces in lines:
            workspaces.release_all()
        return disp, stats
