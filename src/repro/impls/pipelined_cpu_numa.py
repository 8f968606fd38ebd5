"""Per-socket Pipelined-CPU (the paper's §IV.B future-work variant).

"In the future, we will modify this implementation to create one execution
pipeline per CPU socket."  The evaluation machine is a dual-socket Xeon;
one pipeline per socket keeps each pipeline's working set on its socket's
memory controller and halves contention on the shared queues.

Structure: the grid is decomposed into contiguous column partitions (one
per socket) by :func:`~repro.grid.traversal.column_partitions`, the
multi-GPU decomposition; each partition runs
:class:`~repro.impls.pipelined_cpu.PipelinedCpu`'s 3-stage pipeline
(reader / compute / bookkeeping) over its own pair set with a private
transform pool, and boundary ("ghost") columns are read and transformed by
both adjacent partitions.  Outputs land in disjoint cells of the shared
result.
"""

from __future__ import annotations

import threading

from repro.core.displacement import DisplacementResult
from repro.grid.tile_grid import TileGrid
from repro.grid.traversal import column_partitions
from repro.impls.pipelined_cpu import PipelinedCpu, run_pipelines
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

        lines = [
            self._build_pipeline(dataset, grid, disp, stats, stats_lock, part,
                                 f"{self.name}-{part.first_col}")
            for part in column_partitions(grid, self.sockets, self.traversal)
        ]
        stats["sockets"] = len(lines)
        run_pipelines([pipe for pipe, _, _ in lines])
        for _, _, workspaces in lines:
            workspaces.release_all()
        return disp, stats
