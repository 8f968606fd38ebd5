"""Pipelined-CPU: reading and FFTs overlapped with the displacement
computation (Section IV.B), one pipeline per column partition.

The paper's CPU pipeline overlaps the reader and the forward transforms
with the displacement computation and "includes all the memory mechanisms
in its GPU counterpart"; its per-socket variant -- "one execution pipeline
per CPU socket", the paper's future work -- splits the grid among sockets.
Both are :func:`~repro.core.displacement.compute_grid_displacements` with
its two stages forced to overlap: the tile stage (read, FFT, statistics)
works one tile ahead of the pair stage (NCC, inverse, CCFs), and the
early-release ledger frees each tile's products after its last pair.
``partitions=n`` runs one such pipeline per
:func:`~repro.grid.traversal.column_partitions` partition, each on its own
thread.  A partition reads its western ghost column itself, as a socket
would: nothing is shared across partitions, so ``n`` partitions read
``n - 1`` columns twice (what ``simulate_pipelined_cpu_numa`` models).

Under a ``watchdog`` every tile read -- the one phase-1 step that polls a
cancel token -- runs under its own
:class:`~repro.recovery.cancel.CancelToken` and is listed in flight while
it runs; the :class:`~repro.recovery.watchdog.Watchdog` supervises those
reads as a ``read`` stage.  A read past its deadline is cancelled and the
kernel's read policy decides what becomes of it; a read that ignores its
cancellation escalates, and the run raises
:class:`~repro.pipeline.graph.PipelineStallError` instead of waiting for
it.
"""

from __future__ import annotations

import threading
from functools import partial
from types import SimpleNamespace

from repro.core.displacement import DisplacementResult, compute_grid_displacements
from repro.grid.tile_grid import GridPosition, TileGrid
from repro.grid.traversal import ColumnPartition, Traversal, column_partitions
from repro.impls.base import Implementation, fold_stats
from repro.impls.mt_cpu import run_threads
from repro.io.dataset import TileDataset
from repro.pipeline.graph import PipelineError, aggregate_failures
from repro.recovery.cancel import current_token, enter_item, exit_item
from repro.recovery.watchdog import Watchdog


class _SupervisedReads:
    """A tile loader as the one stage a watchdog supervises.

    Each call runs under its own cancel token and is listed in the
    in-flight table while it runs.  Once the watchdog aborts the run,
    every later read is cancelled before it starts, so the partitions
    still running wind down instead of computing on.
    """

    name = "read"

    def __init__(self, load_tile) -> None:
        self.load_tile = load_tile
        self.items_processed = 0
        self.aborted = False
        self._inflight: dict[int, tuple] = {}
        self._lock = threading.Lock()

    def inflight(self) -> list[tuple]:
        return list(self._inflight.values())

    def abort(self) -> None:
        self.aborted = True

    def __call__(self, row: int, col: int):
        worker = threading.get_ident()
        prev = enter_item(self._inflight, worker, str(GridPosition(row, col)))
        try:
            if self.aborted:
                token = current_token()
                token.cancel("the run was aborted by its watchdog")
                token.raise_if_cancelled()
            return self.load_tile(row, col)
        finally:
            exit_item(self._inflight, worker, prev)
            with self._lock:
                self.items_processed += 1


class PipelinedCpu(Implementation):
    """Overlapped read + FFT / displacement pipelines, one per column
    partition (1.4 min at 16 threads on the paper's machine)."""

    name = "pipelined-cpu"

    def __init__(self, partitions: int = 1,
                 traversal: Traversal = Traversal.CHAINED_DIAGONAL,
                 **kw) -> None:
        if partitions < 1:
            raise ValueError(f"need at least one partition, got {partitions}")
        super().__init__(**kw)
        self.partitions = partitions
        self.traversal = traversal

    def _run(self, dataset: TileDataset) -> tuple[DisplacementResult, dict]:
        kernel = self.kernel
        grid = TileGrid(dataset.rows, dataset.cols)
        parts = column_partitions(grid, self.partitions, self.traversal)
        disp = DisplacementResult.empty(grid.rows, grid.cols)
        stats_lock = threading.Lock()
        stats = {"reads": 0, "ffts": 0, "pairs": 0, "partitions": len(parts)}
        load = partial(dataset.load, dtype=None)
        watchdog = None
        if self.watchdog is not None:
            load = reads = _SupervisedReads(load)
            watchdog = Watchdog(
                SimpleNamespace(name=self.name, stages=[reads], queues=[],
                                abort=reads.abort),
                self.watchdog, metrics=kernel.metrics,
            ).start()

        def run_partition(k: int, part: ColumnPartition) -> None:
            try:
                res = compute_grid_displacements(
                    load, grid.rows, grid.cols, kernel=kernel, partition=part,
                    track=f"{self.name}/partition-{k}", overlap=True,
                )
            except PipelineError:
                raise
            except Exception as exc:
                raise aggregate_failures(
                    self.name, [(f"partition-{k}", exc)]
                ) from exc
            disp.update(res)  # partitions own disjoint cells
            fold_stats(stats, res.stats, stats_lock)

        try:
            run_threads(run_partition, enumerate(parts), watchdog)
        finally:
            if watchdog is not None:
                watchdog.stop()
        disp.stats = stats
        return disp, stats
