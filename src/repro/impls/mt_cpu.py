"""MT-CPU: SPMD spatial domain decomposition (Section IV.A).

"We used the Simple-CPU implementation to develop a simple multi-threaded
implementation MT CPU.  This implementation uses spatial domain
decomposition and a thread-variant of the SPMD approach."

So it is built here: the grid is split into column partitions
(:func:`~repro.grid.traversal.column_partitions`, one per worker), and
each worker thread runs Simple-CPU's loop,
:func:`~repro.core.displacement.compute_grid_displacements`, over its
partition -- the partition's traversal, its pairs, the early-release
ledger.  The west pairs joining partition ``k`` to partition ``k-1``
belong to partition ``k``, which also reads the last column of the
partition to its west.

Each such shared column is built once (tile, forward spectrum, tile
statistics) before the partitions start, by :func:`build_shared`, and
handed to both partitions -- tiles and their products are read-only, so
threads share them for free.  Every tile is read and transformed at most
once: ``duplicated_boundary_reads`` is 0 by construction.
"""

from __future__ import annotations

import threading
import time
from functools import partial

from repro.core.displacement import (
    DisplacementResult,
    compute_grid_displacements,
    read_tile,
)
from repro.core.kernel import Phase1Kernel
from repro.core.pciam import bump
from repro.grid.neighbors import pairs_for_tile
from repro.grid.tile_grid import GridPosition, TileGrid
from repro.grid.traversal import ColumnPartition, Traversal, column_partitions
from repro.impls.base import Implementation, fold_stats
from repro.io.dataset import TileDataset
from repro.pipeline.graph import PipelineStallError
from repro.recovery.watchdog import Watchdog


def shared_columns(kernel: Phase1Kernel, grid: TileGrid,
                   parts: list[ColumnPartition]) -> list[list[GridPosition]]:
    """For each column two partitions read -- a partition's ghost column,
    the last one of its western neighbour -- the tiles a pair not yet
    journaled still needs (a tile with nothing left to do is not read)."""
    def needed(pos: GridPosition) -> bool:
        return not all(kernel.journaled(pair)
                       for pair in pairs_for_tile(grid, pos.row, pos.col))

    return [
        [pos for pos in (GridPosition(r, part.first_col)
                         for r in range(grid.rows)) if needed(pos)]
        for part in parts if part.first_col < part.cols[0]
    ]


def build_shared(kernel: Phase1Kernel, load_tile, pos: GridPosition,
                 stats: dict, track: str) -> tuple | None:
    """Read and transform shared tile ``pos``: its products, or ``None``
    for a tile a skip policy dropped (journaled here, once)."""
    pixels, reason = read_tile(kernel, load_tile, pos, track)
    if pixels is None:
        if kernel.journal is not None:
            kernel.journal.record_skipped_tile(pos.row, pos.col, reason)
        return None
    bump(stats, "reads")
    return kernel.products(pixels, stats, track=track, key=str(pos))


def run_threads(target, arg_lists, watchdog: Watchdog | None = None) -> None:
    """Run ``target(*args)`` on one daemon thread per entry; re-raise the
    first failure once every thread has finished.

    Under a started ``watchdog`` the wait polls it, the way a supervised
    :meth:`~repro.pipeline.graph.Pipeline.join` does: once it escalates,
    the threads get the watchdog's ``escalation_grace`` to wind down, then
    :class:`~repro.pipeline.graph.PipelineStallError` is raised, listing
    the threads still running (wedged in a read that ignores its
    cancellation) as abandoned.
    """
    errors: list[BaseException] = []

    def guarded(*args) -> None:
        try:
            target(*args)
        except BaseException as exc:
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=args, daemon=True)
               for args in arg_lists]
    for t in threads:
        t.start()
    poll = None if watchdog is None else watchdog.config.poll_interval
    abandon_at: float | None = None
    while alive := [t for t in threads if t.is_alive()]:
        if watchdog is not None and watchdog.escalated:
            now = time.monotonic()
            if abandon_at is None:
                abandon_at = now + watchdog.config.escalation_grace
            elif now >= abandon_at:
                break
        alive[0].join(poll)
    if watchdog is not None and watchdog.escalated:
        report = watchdog.report()
        raise PipelineStallError(
            f"pipeline {report.pipeline!r} stalled ({report.kind}): "
            f"{report.detail}",
            report=report,
            abandoned_threads=[t.name for t in threads if t.is_alive()],
        )
    if errors:
        raise errors[0]


class MtCpu(Implementation):
    """SPMD over column partitions (best: 96 s at 16 threads on the
    paper's machine)."""

    name = "mt-cpu"

    def __init__(self, workers: int = 4,
                 traversal: Traversal = Traversal.CHAINED_DIAGONAL,
                 **kw) -> None:
        if workers < 1:
            raise ValueError(f"need at least one worker, got {workers}")
        super().__init__(**kw)
        self.workers = workers
        self.traversal = traversal

    def _run(self, dataset: TileDataset) -> tuple[DisplacementResult, dict]:
        kernel = self.kernel
        grid = TileGrid(dataset.rows, dataset.cols)
        parts = column_partitions(grid, self.workers, self.traversal)
        disp = DisplacementResult.empty(grid.rows, grid.cols)
        stats_lock = threading.Lock()
        stats = {"reads": 0, "ffts": 0, "pairs": 0,
                 "duplicated_boundary_reads": 0, "partitions": len(parts)}

        #: Shared tile -> products, written before the partitions start and
        #: read-only after that join barrier.
        shared: dict[GridPosition, tuple | None] = {}

        # Native dtype: the kernel converts each tile to float64 once.
        load = partial(dataset.load, dtype=None)

        def build(j: int, column: list[GridPosition]) -> None:
            local: dict = {}
            for pos in column:
                shared[pos] = build_shared(
                    kernel, load, pos, local, f"mt-cpu/shared-{j}"
                )
            fold_stats(stats, local, stats_lock)

        def run_partition(k: int, part: ColumnPartition) -> None:
            res = compute_grid_displacements(
                load, grid.rows, grid.cols, kernel=kernel,
                partition=part, shared=shared, track=f"mt-cpu/partition-{k}",
            )
            disp.update(res)  # partitions own disjoint cells
            fold_stats(stats, res.stats, stats_lock)

        run_threads(build, enumerate(shared_columns(kernel, grid, parts)))
        run_threads(run_partition, enumerate(parts))
        disp.stats = stats
        return disp, stats
