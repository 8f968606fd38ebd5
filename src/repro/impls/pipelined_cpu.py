"""Pipelined-CPU: the 3-stage CPU pipeline (Section IV.B, last paragraph).

"the CPU pipeline consists of three stages: reader, displacement/fft, and
bookkeeping" and "includes all the memory mechanisms in its GPU
counterpart" -- i.e. the fixed transform pool and reference-counted early
release.

Topology (queues are bounded monitor queues)::

    reader --Q1--> compute (N workers) --Q2--> bookkeeper --(ready pairs)--+
                      ^                                                    |
                      +--------------------- Q1 <--------------------------+

The compute stage handles two item kinds: a *tile* item is FFT'd into a
pool slot; a *pair* item runs the displacement computation (NCC, inverse
FFT, reduction, CCFs).  The bookkeeper is the single-threaded state
machine: it feeds FFT-ready events, pair completions and dropped tiles
to the early-release ledger (:class:`repro.grid.ledger.PairBookkeeper`),
turns the pairs it emits into pair work and the tiles it frees into pool
releases, and closes the queues when the last pair completes.

The transform pool bounds memory exactly as on the GPU: if it is sized
below the traversal wavefront the reader stalls; the default
(2 x min(rows, cols) + 4) is safe for the chained-diagonal order (tests
probe the boundary).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from repro.core.displacement import DisplacementResult
from repro.grid.ledger import PairBookkeeper
from repro.grid.neighbors import Pair
from repro.grid.tile_grid import GridPosition, TileGrid
from repro.grid.traversal import Traversal, traverse
from repro.impls.base import Implementation, fold_stats
from repro.io.dataset import TileDataset
from repro.memmodel.pool import BufferPool, PoolExhausted
from repro.memmodel.workspace import ThreadLocalWorkspaces
from repro.pipeline.graph import Pipeline
from repro.pipeline.stage import END_OF_STREAM


@dataclass
class _TileBatch:
    """Up to ``fft_batch`` read tiles, transformed through one forward FFT.

    ``blocked_seconds`` accumulates the time the batch spent waiting for
    pool slots (see the requeue logic in the compute stage); when only
    some of the batch gets slots, the remainder is requeued as a smaller
    batch keeping its accumulated blocked time.
    """

    items: list  # [(GridPosition, pixels), ...]
    blocked_seconds: float = 0.0


@dataclass
class _FftDone:
    pos: GridPosition


@dataclass
class _PairItem:
    pair: Pair


@dataclass
class _PairDone:
    pair: Pair


@dataclass
class _TileFailed:
    """Reader could not deliver a tile (retries exhausted, skip policy)."""

    pos: GridPosition


def default_pool_size(rows: int, cols: int) -> int:
    """Safe transform-pool size for the chained-diagonal wavefront."""
    return 2 * min(rows, cols) + 4


class PipelinedCpu(Implementation):
    """3-stage CPU pipeline (1.4 min at 16 threads on the paper's machine)."""

    name = "pipelined-cpu"

    def __init__(
        self,
        workers: int = 4,
        pool_size: int | None = None,
        traversal: Traversal = Traversal.CHAINED_DIAGONAL,
        queue_size: int = 8,
        pool_timeout: float = 60.0,
        fft_batch: int = 1,
        **kw,
    ) -> None:
        if workers < 1:
            raise ValueError(f"need at least one compute worker, got {workers}")
        if fft_batch < 1:
            raise ValueError(f"fft_batch must be >= 1, got {fft_batch}")
        super().__init__(**kw)
        self.workers = workers
        self.pool_size = pool_size
        self.traversal = traversal
        self.queue_size = queue_size
        self.pool_timeout = pool_timeout
        #: Tiles per batched forward transform in the FFT stage; 1 keeps
        #: the classic one-FFT-per-item flow.  Batch slices are
        #: bit-identical to single transforms, so this is throughput-only.
        self.fft_batch = fft_batch

    def _run(self, dataset: TileDataset) -> tuple[DisplacementResult, dict]:
        rows, cols = dataset.rows, dataset.cols
        disp = DisplacementResult.empty(rows, cols)
        stats = {"reads": 0, "ffts": 0, "pairs": 0}
        disp.stats = stats
        if rows * cols == 1:  # no pairs, nothing to pipeline
            return disp, stats
        pipe, pool, workspaces = self._build_pipeline(
            dataset, TileGrid(rows, cols), disp, stats, threading.Lock()
        )
        pipe.run()
        workspaces.release_all()
        arena = workspaces.arena
        stats["workspace_bytes"] = arena.bytes_per_workspace * max(
            1, arena.stats()["peak_in_use"]
        )
        stats["pool_peak_in_use"] = pool.peak_in_use
        stats["pool_size"] = pool.count
        stats.update({f"queue_{k}": v for k, v in pipe.stats()["queues"].items()})
        return disp, stats

    def _build_pipeline(
        self, dataset, grid, disp, stats, stats_lock, pairs=None,
    ) -> tuple[Pipeline, BufferPool, ThreadLocalWorkspaces]:
        """One reader / compute / bookkeeping pipeline over ``pairs``.

        ``pairs=None`` is the whole grid; a subset (a column partition of
        the per-socket variant) gets a private pool sized for, and a
        traversal restricted to, the tile columns those pairs touch.
        Results land in the shared ``disp``/``stats``.
        """
        kernel = self.kernel
        bk = PairBookkeeper(grid, pairs=pairs, metrics=kernel.metrics)
        my_tiles = bk.tiles
        c_lo = min(p.col for p in my_tiles)
        n_cols = max(p.col for p in my_tiles) - c_lo + 1
        # The pool holds per-tile spectra: half-spectrum buffers under
        # real transforms, coarse-shaped ones in coarse mode.
        pool = BufferPool(
            self.pool_size or default_pool_size(grid.rows, n_cols),
            kernel.buffer_shape(dataset.tile_shape), dtype=np.complex128,
        )
        workspaces = ThreadLocalWorkspaces(
            kernel.arena(dataset.tile_shape, count=self.workers)
        )

        pipe = Pipeline(
            self.name if pairs is None else f"{self.name}-{c_lo}",
            tracer=kernel.tracer, metrics=kernel.metrics,
            watchdog=self.watchdog,
        )
        # Q1 carries tile and pair work into the compute stage; it has two
        # producers (reader + bookkeeper), so stages put into it manually and
        # only the bookkeeper closes it (at end of computation).
        q_work = pipe.queue(maxsize=0, name="work")
        q_events = pipe.queue(maxsize=0, name="events")

        # Reader memory bound: tile pixels in flight are limited by a
        # semaphore released when the tile's FFT lands in a pool slot.
        tiles_in_flight = threading.Semaphore(self.queue_size)

        # Host-side state shared between stages, owned logically by the
        # bookkeeper (single thread) except the read-only product map.
        state_lock = threading.Lock()
        products: dict[GridPosition, tuple] = {}
        slots: dict[GridPosition, int] = {}

        order = iter([
            pos for p in traverse(TileGrid(grid.rows, n_cols), self.traversal)
            if (pos := GridPosition(p.row, p.col + c_lo)) in my_tiles
        ])

        #: Tiles awaiting a full batch (reader is single-threaded).
        pending_batch: list[tuple] = []

        def flush_batch() -> None:
            if pending_batch:
                q_work.put(_TileBatch(list(pending_batch)))
                pending_batch.clear()

        def reader(_item, _ctx):
            try:
                pos = next(order)
            except StopIteration:
                flush_batch()
                return END_OF_STREAM
            # Bounded wait so a pipeline abort cannot strand the reader on
            # the semaphore.
            while not tiles_in_flight.acquire(timeout=0.1):
                if q_work.closed:
                    return END_OF_STREAM
            tile = kernel.read(dataset.load, pos.row, pos.col)
            if tile is None:
                tiles_in_flight.release()
                q_events.put(_TileFailed(pos))
                return None
            with stats_lock:
                stats["reads"] += 1
            pending_batch.append((pos, tile))
            if len(pending_batch) >= self.fft_batch:
                flush_batch()
            return None

        def compute(item, _ctx):
            local: dict = {}
            if isinstance(item, _TileBatch):
                # Grab as many pool slots as are free right now; transform
                # that sub-batch in one backend call and requeue the rest
                # behind any pending pair work (whose completion is what
                # releases slots).  Blocking for a slot with every worker
                # would deadlock: tiles ahead of pairs in the FIFO would
                # pin all workers.
                acquired: list[int] = []
                try:
                    acquired.append(pool.acquire(timeout=0.05))
                    while len(acquired) < len(item.items):
                        acquired.append(pool.acquire(blocking=False))
                except (TimeoutError, PoolExhausted):
                    pass
                if not acquired:
                    item.blocked_seconds += 0.05
                    if item.blocked_seconds > self.pool_timeout:
                        raise TimeoutError(
                            f"transform pool ({pool.count} buffers) starved "
                            f"for {self.pool_timeout}s; pool too small for "
                            f"the traversal wavefront"
                        )
                    q_work.put(item)
                    return None
                take = item.items[: len(acquired)]
                rest = item.items[len(acquired):]
                if rest:
                    q_work.put(_TileBatch(rest, item.blocked_seconds))
                batch = kernel.batch_products([px for _, px in take], local)
                for (pos, _), slot, (px, fft, ts) in zip(take, acquired, batch):
                    buf = pool.array(slot)
                    buf[...] = fft
                    with state_lock:
                        products[pos] = (px, buf, ts)
                        slots[pos] = slot
                    tiles_in_flight.release()
                    q_events.put(_FftDone(pos))
            elif isinstance(item, _PairItem):
                pair = item.pair
                cell = (pair.direction, pair.second.row, pair.second.col)
                # Resume: a journaled pair still flows through the
                # bookkeeper (its _PairDone drives refcounts and slot
                # release) but skips the computation entirely.
                if not kernel.serve_journaled(disp, *cell, local):
                    with state_lock:
                        first, second = products[pair.first], products[pair.second]
                    kernel.register_pair(
                        disp, *cell, first, second, workspaces.get(), local
                    )
                q_events.put(_PairDone(pair))
            else:  # pragma: no cover - defensive
                raise TypeError(f"unexpected work item {item!r}")
            fold_stats(stats, local, stats_lock)
            return None

        def release_tile(pos: GridPosition) -> None:
            with state_lock:
                slot = slots.pop(pos)
                products.pop(pos)
            pool.release(slot)

        bk.release = release_tile

        def bookkeeper(event, _ctx):
            if isinstance(event, _FftDone):
                for pair in bk.transform_ready(event.pos):
                    q_work.put(_PairItem(pair))
            elif isinstance(event, _PairDone):
                bk.pair_completed(event.pair)
            elif isinstance(event, _TileFailed):
                kernel.skip_tile_pairs(event.pos, bk.tile_failed(event.pos))
            else:  # pragma: no cover - defensive
                raise TypeError(f"unexpected event {event!r}")
            if bk.all_pairs_completed():
                q_work.close()
                q_events.close()
            return None

        pipe.stage("reader", reader, workers=1, input=None, output=None)
        pipe.stage("compute", compute, workers=self.workers, input=q_work, output=None)
        pipe.stage("bookkeeping", bookkeeper, workers=1, input=q_events, output=None)
        return pipe, pool, workspaces
