"""The early-release ledger: per-tile reference counts over grid pairs.

The paper has one memory policy.  A tile's transform stays live until
every pair that touches it is computed, then its buffer is recycled --
the sequential implementation's early free (Section IV.A) and the GPU
pool's per-tile reference count (Section IV.B), which the pipelines'
bookkeeping stage drives (stage 4 of Fig. 8: it "resolves dependencies
and advances pairs of adjacent tiles that are ready (i.e., their FFTs are
available) to the next stage").

:class:`PairBookkeeper` is that policy, written once as a pure state
machine every scheduler that frees memory runs on: feed it "transform of
tile (r, c) is ready", "pair done" and "tile dropped" events; it answers
with the pairs that just became computable and hands each tile whose
count reached zero to the scheduler's ``release`` hook.  It knows only
grid pairs -- buffers, pools and threads stay with the scheduler.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.grid.neighbors import Pair, grid_pairs
from repro.grid.tile_grid import GridPosition, TileGrid


@dataclass
class PairBookkeeper:
    """Tracks which pairs are ready and when tile buffers become free.

    ``pairs`` restricts bookkeeping to a subset of the grid's pairs: a
    GPU's or socket's partition (boundary "ghost" tiles then count only
    their incident pairs *within the partition*), or the pairs a resumed
    run still has to compute.  ``None`` means the whole grid.  Each
    tile's incident-pair list is built once, here.

    ``release(pos)`` is called once per tile that is ready and has no
    pair left pending -- completed or cancelled -- whichever event got
    it there.

    Thread-compatibility: the bookkeeper itself is not locked; exactly one
    thread owns it (the single-BK-thread design of Fig. 8).  The incident
    lists never change after construction, so any thread may read them.
    """

    grid: TileGrid
    pairs: frozenset | None = None
    #: Optional :class:`~repro.observe.metrics.MetricsRegistry`; when set,
    #: the bookkeeper publishes its progress (ready transforms, emitted /
    #: completed / cancelled pairs, pending backlog) -- the quantities the
    #: paper's authors watched to tune the Fig. 8 monitor queues.
    metrics: Any = None
    release: Callable[[GridPosition], None] = lambda pos: None
    _incident: dict[GridPosition, tuple[Pair, ...]] = field(default_factory=dict)
    _ready: set[GridPosition] = field(default_factory=set)
    _emitted: set[Pair] = field(default_factory=set)
    _completed: set[Pair] = field(default_factory=set)
    _refcount: dict[GridPosition, int] = field(default_factory=dict)
    _failed: set[GridPosition] = field(default_factory=set)
    _cancelled: set[Pair] = field(default_factory=set)

    def __post_init__(self) -> None:
        if self.pairs is not None:
            self.pairs = frozenset(self.pairs)
        incident: dict[GridPosition, list[Pair]] = {
            pos: [] for pos in self.grid.positions()
        }
        # Row-major by owning tile lists each tile's pairs in
        # pairs_for_tile order: west in, north in, west out, north out.
        for pair in grid_pairs(self.grid):
            if self.pairs is None or pair in self.pairs:
                incident[pair.first].append(pair)
                incident[pair.second].append(pair)
        for pos, mine in incident.items():
            self._incident[pos] = tuple(mine)
            if mine or self.pairs is None:
                self._refcount[pos] = len(mine)

    def incident(self, pos: GridPosition) -> tuple[Pair, ...]:
        """Pairs of ``pos`` this bookkeeper owns (all of them, or the
        subset's)."""
        return self._incident.get(pos, ())

    def pending(self, pos: GridPosition) -> int:
        """Pairs of ``pos`` neither completed nor cancelled yet."""
        return self._refcount.get(pos, 0)

    @property
    def tiles(self) -> set[GridPosition]:
        """Tiles this bookkeeper tracks (partition tiles incl. ghosts)."""
        return set(self._refcount)

    def _publish(self) -> None:
        """Refresh progress gauges (counters are bumped at the event site).

        With several bookkeepers on one registry (per-GPU / per-socket
        partitions) the gauges are last-write-wins per partition; the
        counters aggregate correctly across all of them.
        """
        m = self.metrics
        m.gauge("bookkeeper.pending_pairs").set(self.pending_pairs())
        m.gauge("bookkeeper.ready_transforms").set(len(self._ready))

    def _settle(self, pair: Pair) -> list[GridPosition]:
        """Take ``pair`` off both members' counts; free and return the
        ready members with nothing left pending."""
        freed = []
        for pos in (pair.first, pair.second):
            self._refcount[pos] -= 1
            if self._refcount[pos] == 0 and pos in self._ready:
                freed.append(pos)
                self.release(pos)
        return freed

    # -- events -----------------------------------------------------------

    def transform_ready(self, pos: GridPosition) -> list[Pair]:
        """Record a tile's transform arrival; return newly-computable pairs.

        A tile whose pairs were all cancelled by dropped neighbours
        arrives with nothing pending and is freed at once.
        """
        if pos not in self.grid:
            raise ValueError(f"{pos} outside grid")
        if pos in self._ready:
            raise ValueError(f"transform for {pos} reported ready twice")
        self._ready.add(pos)
        out = [
            pair for pair in self.incident(pos)
            if pair.first in self._ready and pair.second in self._ready
        ]
        self._emitted.update(out)
        if self.pending(pos) == 0:
            self.release(pos)
        if self.metrics is not None:
            self.metrics.counter("bookkeeper.transforms_ready").inc()
            if out:
                self.metrics.counter("bookkeeper.pairs_emitted").inc(len(out))
            self._publish()
        return out

    def pair_completed(self, pair: Pair) -> list[GridPosition]:
        """Record a finished pair; free and return the tiles it emptied."""
        if pair in self._completed:
            raise ValueError(f"pair {pair} completed twice")
        if pair not in self._emitted:
            raise ValueError(f"pair {pair} completed but never emitted")
        self._completed.add(pair)
        freed = self._settle(pair)
        if self.metrics is not None:
            self.metrics.counter("bookkeeper.pairs_completed").inc()
            if freed:
                self.metrics.counter("bookkeeper.tiles_freed").inc(len(freed))
            self._publish()
        return freed

    def tile_failed(self, pos: GridPosition) -> list[Pair]:
        """Cancel every pending pair of a dropped tile; return those pairs.

        Called when a tile could not be read (retries exhausted, or the
        read cancelled) under a skip policy: the tile will never report
        ``transform_ready``, so every pair waiting on it is cancelled as
        if it had completed, freeing neighbours it emptied.
        The returned pairs are the ones *this* drop cancelled -- a pair
        an earlier dropped neighbour already cancelled is not repeated,
        so callers can account each lost pair exactly once.
        """
        if pos not in self.grid:
            raise ValueError(f"{pos} outside grid")
        if pos in self._ready:
            raise ValueError(f"tile {pos} already ready; cannot fail it")
        if pos in self._failed:
            return []
        self._failed.add(pos)
        cancelled = [p for p in self.incident(pos) if p not in self._cancelled]
        self._cancelled.update(cancelled)
        for pair in cancelled:
            self._settle(pair)
        if self.metrics is not None:
            self.metrics.counter("bookkeeper.tiles_failed").inc()
            if cancelled:
                self.metrics.counter("bookkeeper.pairs_cancelled").inc(
                    len(cancelled)
                )
            self._publish()
        return cancelled

    # -- progress ------------------------------------------------------------

    @property
    def total_pairs(self) -> int:
        if self.pairs is not None:
            return len(self.pairs)
        n, m = self.grid.rows, self.grid.cols
        return 2 * n * m - n - m

    def all_pairs_completed(self) -> bool:
        return len(self._completed) == self.total_pairs - len(self._cancelled)

    def pending_pairs(self) -> int:
        return self.total_pairs - len(self._cancelled) - len(self._completed)
