"""Proc-CPU: MT-CPU's column partitions over processes (GIL-free phase 1).

Same spatial decomposition and the same SPMD worker as
:class:`~repro.impls.mt_cpu.MtCpu` -- Simple-CPU's loop,
:func:`~repro.core.displacement.compute_grid_displacements`, over one
:func:`~repro.grid.traversal.column_partitions` partition each -- but the
workers are OS *processes*, so the non-numpy half of the phase-1 loop
(peak contests, CCF dispatch, bookkeeping) runs truly concurrently
instead of serializing on the GIL.  The pieces that make that practical:

- **fork + shared memory, zero pickling of pixels.**  Workers are forked
  from the parent after the run context (dataset handle, configuration,
  shared slabs) is staged in a module global, so they inherit everything
  by address; only the small per-partition result records travel back
  through the executor.  Shared columns move through a
  :class:`~repro.memmodel.shm.ShmArena` whose slabs are ``MAP_SHARED``,
  visible to every process.

- **two-phase column exchange.**  The west pairs joining partition ``k``
  to partition ``k-1`` need the last column of ``k-1`` in *both*
  partitions.  Phase A reads and transforms each such column exactly once
  (:func:`~repro.impls.mt_cpu.build_shared`) and publishes tile + forward
  spectrum into the arena; Phase B partition workers consume the slab
  views from both sides and rebuild the tile statistics from the shared
  tile (cheap at every tile size, and no 16 B/px slab).  Every tile in
  the grid is therefore read and transformed at most once --
  ``duplicated_boundary_reads`` is 0 by construction.

- **deterministic merge.**  Each pair is owned by exactly one partition;
  workers return their displacement records and the parent folds them in
  task order, so positions are bit-identical to ``simple-cpu``.

- **durability from inside workers.**  Each worker appends completed
  pairs to the run journal through its own
  :class:`~repro.recovery.journal.JournalAppender` (``O_APPEND`` writes
  interleave atomically), so a SIGKILL of the whole process tree loses at
  most in-flight pairs, exactly like the threaded backends.  Resume reads
  come from the fork-inherited journal state (read-only in workers).

Workers watch their parent's pid and ``os._exit`` when it changes
(SIGKILL of the parent must not leave orphans holding slab mappings), and
the arena unlinks its segments on normal exit *and* via the creator's
``resource_tracker`` after a kill.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial

import multiprocessing as mp

import numpy as np

from repro.core.displacement import DisplacementResult, compute_grid_displacements
from repro.core.kernel import Phase1Kernel
from repro.grid.neighbors import Direction
from repro.grid.tile_grid import GridPosition, TileGrid
from repro.grid.traversal import ColumnPartition, Traversal, column_partitions
from repro.impls.base import Implementation, fold_stats
from repro.impls.mt_cpu import build_shared, shared_columns
from repro.io.dataset import TileDataset
from repro.memmodel.shm import ShmArena
from repro.observe.tracer import Tracer
from repro.recovery.journal import JournalAppender


#: Run context staged by the parent immediately before the executor's
#: workers fork, and inherited by them by address.  Exactly one proc-cpu
#: run may be live per process at a time (runs are sequential in every
#: caller; a second concurrent run would need a keyed registry here).
_CTX: "_RunCtx | None" = None


@dataclass
class _RunCtx:
    """Everything a forked worker needs, reachable by inheritance."""

    impl: "ProcCpu"
    dataset: TileDataset
    parts: list[ColumnPartition]
    #: Per shared column, the tiles Phase A builds (:func:`shared_columns`).
    columns: list[list[GridPosition]]
    #: Shared tile -> its slab slot.
    slots: dict[GridPosition, int]
    #: Slab views indexed by slot; ``None`` when no column is shared.
    tiles: np.ndarray | None
    spectra: np.ndarray | None
    #: Per slot, int8: 1 = products published, 0 = tile skipped.
    mask: np.ndarray | None


@dataclass
class _TaskOutcome:
    """What one worker task ships back to the parent for merging.

    Inside the worker it stands in for the parent-side ``FaultReport``
    the kernel reports to (the ``record_*`` methods): the forked copy of
    the real one would swallow everything, so the outcome records it and
    :meth:`ProcCpu._merge` replays it in the parent.
    """

    #: The partition's pairs (Phase B tasks only).
    disp: DisplacementResult | None = None
    skipped_tiles: list = field(default_factory=list)   # (r, c, errmsg)
    skipped_pairs: list = field(default_factory=list)   # (direction, r, c, reason)
    retries: list = field(default_factory=list)         # (r, c, attempt, errmsg)
    stats: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)
    tracer_t0: float = 0.0

    def record_retry(self, _stage, tile, attempt, exc) -> None:
        self.retries.append((*tile, attempt, f"{type(exc).__name__}: {exc}"))

    def record_skipped_tile(self, tile, exc) -> None:
        self.skipped_tiles.append((*tile, f"{type(exc).__name__}: {exc}"))

    def record_skipped_pair(self, direction, row, col, reason) -> None:
        self.skipped_pairs.append((direction, row, col, reason))


class _Task:
    """One worker task's kernel, outcome and tracer.

    The kernel is the parent's with its sinks swapped for worker-local
    ones: the outcome, a private tracer, and -- so completed pairs are
    durable without the parent -- a :class:`JournalAppender` on the run
    journal whose resume lookups read the fork-inherited journal state.
    """

    def __init__(self, track: str) -> None:
        ctx = _CTX
        parent: Phase1Kernel = ctx.impl.kernel
        self.ctx = ctx
        self.track = track
        self.out = _TaskOutcome()
        self.tracer = Tracer(enabled=parent.tracer.enabled)
        self.out.tracer_t0 = self.tracer._t0
        self.journal = None
        if parent.journal is not None:
            self.journal = JournalAppender(
                *parent.journal.appender_spec(), lookup=parent.journal.peek
            )
        self.kernel = replace(
            parent, fault_report=self.out, metrics=None, tracer=self.tracer,
            journal=self.journal,
        )

    def finish(self, local: dict) -> _TaskOutcome:
        if self.journal is not None:
            self.journal.close()
        self.out.stats = local
        self.out.spans = self.tracer.spans
        return self.out


def _watch_parent(ppid: int) -> None:  # pragma: no cover - daemon loop
    """Exit hard if the parent dies: orphaned workers must not keep
    slab mappings (or executor queues) alive after a SIGKILL."""
    while True:
        if os.getppid() != ppid:
            os._exit(1)
        time.sleep(0.5)


def _worker_init(ppid: int) -> None:
    """Per-process setup: the orphan watch."""
    threading.Thread(target=_watch_parent, args=(ppid,), daemon=True).start()


def _slab_entry(kernel, ctx: _RunCtx, slot: int):
    """Products of the shared tile in ``slot`` from the slabs, ``None``
    for a tile Phase A dropped.

    Tile and spectrum are zero-copy slab views; ``TileStats`` (and a coarse
    fallback's spectrum) are rebuilt from the shared tile, which holds the
    loaded pixels exactly (float64 represents every integer sample), so
    every downstream value is bit-identical to the publisher's.
    """
    if not ctx.mask[slot]:
        return None
    tile = ctx.tiles[slot]
    return (tile, ctx.spectra[slot], kernel.tile_stats(tile),
            kernel.fallback_spectrum(tile))


def _column_task(j: int) -> _TaskOutcome:
    """Phase A: build shared column ``j`` once and publish it."""
    task = _Task(f"proc-cpu/shared-{j}")
    ctx = task.ctx
    local: dict = {}
    load = partial(ctx.dataset.load, dtype=None)  # native: converted once
    for pos in ctx.columns[j]:
        entry = build_shared(task.kernel, load, pos, local, task.track)
        if entry is None:
            continue
        tile, fft = entry[:2]
        slot = ctx.slots[pos]
        ctx.tiles[slot][: tile.shape[0], : tile.shape[1]] = tile
        ctx.spectra[slot] = fft
        ctx.mask[slot] = 1
    return task.finish(local)


def _partition_task(k: int) -> _TaskOutcome:
    """Phase B: Simple-CPU's loop over partition ``k``, its shared columns
    from the Phase A slabs instead of fresh reads."""
    task = _Task(f"proc-cpu/partition-{k}")
    ctx = task.ctx
    part = ctx.parts[k]
    shared = {
        pos: _slab_entry(task.kernel, ctx, slot)
        for pos, slot in ctx.slots.items()
        if part.first_col <= pos.col < part.cols[1]
    }
    disp = compute_grid_displacements(
        partial(ctx.dataset.load, dtype=None), ctx.dataset.rows,
        ctx.dataset.cols, kernel=task.kernel, partition=part, shared=shared, track=task.track,
    )
    task.out.disp = disp
    return task.finish(disp.stats)


class ProcCpu(Implementation):
    """SPMD column partitions over a fork-based process pool.

    ``workers`` caps the partition count (like MT-CPU).  Positions are
    bit-identical to ``simple-cpu`` in every configuration.
    """

    name = "proc-cpu"

    def __init__(self, workers: int = 4,
                 traversal: Traversal = Traversal.CHAINED_DIAGONAL,
                 **kw) -> None:
        if workers < 1:
            raise ValueError(f"need at least one worker, got {workers}")
        super().__init__(**kw)
        self.workers = workers
        self.traversal = traversal

    def _run(self, dataset: TileDataset) -> tuple[DisplacementResult, dict]:
        global _CTX
        kernel = self.kernel
        grid = TileGrid(dataset.rows, dataset.cols)
        parts = column_partitions(grid, self.workers, self.traversal)
        columns = shared_columns(kernel, grid, parts)
        slots = {pos: i for i, pos in
                 enumerate(pos for column in columns for pos in column)}
        use_pool = len(parts) > 1 and "fork" in mp.get_all_start_methods()

        tile_shape = tuple(dataset.tile_shape)
        # In coarse mode the published per-tile spectrum is coarse-shaped
        # (the full-resolution spectrum is never computed up front).
        sshape = kernel.buffer_shape(tile_shape)

        arena = None
        tiles = spectra = mask = None
        if slots:
            if use_pool:
                # MAP_SHARED slabs: Phase A writes in workers must be
                # visible to every Phase B worker.
                arena = ShmArena()
                n = len(slots)
                tiles = arena.slab("tiles", n, tile_shape, np.float64).array
                spectra = arena.slab("spectra", n, sshape, np.complex128).array
                mask = arena.slab("mask", 1, (n,), np.int8).array[0]
            else:  # pragma: no cover - non-fork platforms
                tiles = np.zeros((len(slots), *tile_shape))
                spectra = np.zeros((len(slots), *sshape), dtype=np.complex128)
                mask = np.zeros(len(slots), dtype=np.int8)

        _CTX = _RunCtx(
            impl=self, dataset=dataset, parts=parts, columns=columns,
            slots=slots, tiles=tiles, spectra=spectra, mask=mask,
        )
        disp = DisplacementResult.empty(dataset.rows, dataset.cols)
        stats = {
            "reads": 0, "ffts": 0, "pairs": 0, "duplicated_boundary_reads": 0,
            "partitions": len(parts),
            "process_workers": len(parts) if use_pool else 0,
        }
        try:
            if use_pool:
                outcomes = self._run_pool(len(parts), len(columns))
            else:
                outcomes = [
                    _column_task(j) for j in range(len(columns))
                ] + [_partition_task(k) for k in range(len(parts))]
            self._merge(disp, stats, outcomes)
        finally:
            _CTX = None
            if arena is not None:
                arena.close()
        disp.stats = stats
        return disp, stats

    def _run_pool(self, n_parts: int, n_columns: int) -> list[_TaskOutcome]:
        """Fork the pool (after ``_CTX`` is staged) and run both phases."""
        ctx = mp.get_context("fork")
        outcomes: list[_TaskOutcome] = []
        with ProcessPoolExecutor(
            max_workers=n_parts, mp_context=ctx,
            initializer=_worker_init, initargs=(os.getpid(),),
        ) as pool:
            # Phase A must complete before any partition consumes a slab;
            # the barrier is cheap (shared columns are a 1/partition_width
            # slice of the grid) and keeps Phase B synchronization-free.
            for fut in [pool.submit(_column_task, j) for j in range(n_columns)]:
                outcomes.append(fut.result())
            for fut in [pool.submit(_partition_task, k) for k in range(n_parts)]:
                outcomes.append(fut.result())
        return outcomes

    def _merge(self, disp: DisplacementResult, stats: dict,
               outcomes: list[_TaskOutcome]) -> None:
        """Fold worker outcomes into the parent-side result, in task order.

        Pair ownership is disjoint across partitions, so the fold order
        cannot change any value -- but fixing it keeps every parent-side
        artifact (trace, fault report, journal accounting) deterministic
        too.
        """
        kernel = self.kernel
        for out in outcomes:
            if out.disp is not None:
                disp.update(out.disp)
            for r, c, attempt, err in out.retries:
                kernel.note_retry(r, c, attempt, RuntimeError(err))
            for r, c, err in out.skipped_tiles:
                # The worker's appender already journaled the skip.
                kernel.count_skipped_tile(r, c, RuntimeError(err))
            for d, r, c, reason in out.skipped_pairs:
                kernel.note_skipped_pair(Direction(d), r, c, reason)
            fold_stats(stats, out.stats)
            kernel.tracer.absorb(out.spans, out.tracer_t0)
        resumed = stats.get("resumed_pairs", 0)
        if kernel.journal is not None:
            kernel.journal.resumed_pairs += resumed
            kernel.journal.note_worker_pairs(stats.get("pairs", 0))
            if kernel.metrics is not None and resumed:
                kernel.metrics.counter("journal.pairs_resumed").inc(resumed)
