"""Dependency-resolution bookkeeping (stage 4 of the paper's Fig. 8).

The bookkeeper "manages the state of the computation.  It resolves
dependencies and advances pairs of adjacent tiles that are ready (i.e.,
their FFTs are available) to the next stage."

:class:`PairBookkeeper` is the pure state machine extracted from that
stage so it can be unit-tested without threads: feed it "transform of tile
(r, c) is ready" events, get back the list of adjacent pairs that just
became computable.  It also tracks per-tile reference counts (one per
incident pair) so callers know exactly when a tile's transform buffer can
be recycled -- the GPU memory-pool discipline of Section IV.B.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.grid.neighbors import Pair, pairs_for_tile
from repro.grid.tile_grid import GridPosition, TileGrid


@dataclass
class PairBookkeeper:
    """Tracks which pairs are ready and when tile buffers become free.

    ``pairs`` restricts bookkeeping to a subset of the grid's pairs -- this
    is how the multi-GPU implementation partitions work: each GPU's
    bookkeeper owns only its partition's pairs, and boundary ("ghost")
    tiles get reference counts equal to their incident-pair count *within
    the partition*.  ``None`` means the whole grid.

    Thread-compatibility: the bookkeeper itself is not locked; in the
    pipelined implementations exactly one bookkeeping thread owns it
    (matching the single-BK-thread design in Fig. 8).
    """

    grid: TileGrid
    pairs: frozenset | None = None
    #: Optional :class:`~repro.observe.metrics.MetricsRegistry`; when set,
    #: the bookkeeper publishes its progress (ready transforms, emitted /
    #: completed / cancelled pairs, pending backlog) -- the quantities the
    #: paper's authors watched to tune the Fig. 8 monitor queues.
    metrics: Any = None
    _ready: set[GridPosition] = field(default_factory=set)
    _emitted: set[Pair] = field(default_factory=set)
    _completed: set[Pair] = field(default_factory=set)
    _refcount: dict[GridPosition, int] = field(default_factory=dict)
    _failed: set[GridPosition] = field(default_factory=set)
    _cancelled: set[Pair] = field(default_factory=set)

    def __post_init__(self) -> None:
        if self.pairs is not None:
            self.pairs = frozenset(self.pairs)
        for pos in self.grid.positions():
            n = len(self.incident(pos))
            if n > 0 or self.pairs is None:
                self._refcount[pos] = n

    def incident(self, pos: GridPosition) -> list[Pair]:
        """Pairs of ``pos`` this bookkeeper owns (all of them, or the
        partition's subset)."""
        out = pairs_for_tile(self.grid, pos.row, pos.col)
        if self.pairs is not None:
            out = [p for p in out if p in self.pairs]
        return out

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
        if m is None:
            return
        m.gauge("bookkeeper.pending_pairs").set(self.pending_pairs())
        m.gauge("bookkeeper.ready_transforms").set(len(self._ready))

    # -- events -----------------------------------------------------------

    def transform_ready(self, pos: GridPosition) -> list[Pair]:
        """Record a tile's transform arrival; return newly-computable pairs."""
        if pos not in self.grid:
            raise ValueError(f"{pos} outside grid")
        if pos in self._ready:
            raise ValueError(f"transform for {pos} reported ready twice")
        self._ready.add(pos)
        out = []
        for pair in self.incident(pos):
            if (
                pair not in self._emitted
                and pair.first in self._ready
                and pair.second in self._ready
            ):
                self._emitted.add(pair)
                out.append(pair)
        if self.metrics is not None:
            self.metrics.counter("bookkeeper.transforms_ready").inc()
            if out:
                self.metrics.counter("bookkeeper.pairs_emitted").inc(len(out))
            self._publish()
        return out

    def pair_completed(self, pair: Pair) -> list[GridPosition]:
        """Record a finished pair; return tiles whose buffers are now free.

        Decrements both members' reference counts; a tile is releasable when
        its count reaches zero (every incident pair computed).
        """
        if pair in self._completed:
            raise ValueError(f"pair {pair} completed twice")
        if pair not in self._emitted:
            raise ValueError(f"pair {pair} completed but never emitted")
        self._completed.add(pair)
        freed = []
        for pos in (pair.first, pair.second):
            self._refcount[pos] -= 1
            if self._refcount[pos] == 0:
                freed.append(pos)
            elif self._refcount[pos] < 0:  # pragma: no cover - guarded above
                raise AssertionError(f"negative refcount for {pos}")
        if self.metrics is not None:
            self.metrics.counter("bookkeeper.pairs_completed").inc()
            if freed:
                self.metrics.counter("bookkeeper.tiles_freed").inc(len(freed))
            self._publish()
        return freed

    def tile_failed(self, pos: GridPosition) -> list[GridPosition]:
        """Cancel every not-yet-emitted pair incident to a failed tile.

        Called when a tile could not be read (or transformed) and its
        retries are exhausted under a skip policy: the tile will never
        report ``transform_ready``, so every pair waiting on it is
        cancelled and the *other* member's reference count is decremented
        as if the pair had completed.  Returns the tiles whose buffers are
        now recyclable (ready tiles whose count reached zero), exactly
        like :meth:`pair_completed`.

        Emitted pairs are untouched -- emission requires both transforms
        resident, which a failed tile never achieves.
        """
        if pos not in self.grid:
            raise ValueError(f"{pos} outside grid")
        if pos in self._ready:
            raise ValueError(f"tile {pos} already ready; cannot fail it")
        if pos in self._failed:
            return []
        self._failed.add(pos)
        cancelled_before = len(self._cancelled)
        freed = []
        for pair in self.incident(pos):
            if pair in self._cancelled:
                continue
            self._cancelled.add(pair)
            for member in (pair.first, pair.second):
                self._refcount[member] -= 1
                if (
                    self._refcount[member] == 0
                    and member in self._ready
                ):
                    freed.append(member)
        if self.metrics is not None:
            self.metrics.counter("bookkeeper.tiles_failed").inc()
            n_cancelled = len(self._cancelled) - cancelled_before
            if n_cancelled:
                self.metrics.counter("bookkeeper.pairs_cancelled").inc(n_cancelled)
            self._publish()
        return freed

    def pair_failed(self, pair: Pair) -> list[GridPosition]:
        """Cancel an *emitted* pair whose computation will never finish.

        The watchdog path: a pair was emitted (both transforms resident),
        its compute-stage item hung, and the cancellation dropped it under
        a skip policy.  Both members' reference counts are decremented as
        if the pair had completed -- otherwise their buffers (and the
        pipeline's completion count) would leak.  Returns newly-releasable
        tiles, like :meth:`pair_completed`.  Idempotent per pair.
        """
        if pair not in self._emitted:
            raise ValueError(f"pair {pair} failed but never emitted")
        if pair in self._completed:
            raise ValueError(f"pair {pair} already completed; cannot fail it")
        if pair in self._cancelled:
            return []
        self._cancelled.add(pair)
        freed = []
        for member in (pair.first, pair.second):
            self._refcount[member] -= 1
            if self._refcount[member] == 0 and member in self._ready:
                freed.append(member)
        if self.metrics is not None:
            self.metrics.counter("bookkeeper.pairs_cancelled").inc()
            self._publish()
        return freed

    def releasable(self, pos: GridPosition) -> bool:
        """A ready tile with no remaining incident pairs (all cancelled).

        Checked by the bookkeeping stage right after ``transform_ready``:
        a tile whose neighbours all failed arrives holding a pool slot it
        will never use for a pair.
        """
        return pos in self._ready and self._refcount.get(pos, 0) == 0

    # -- progress ------------------------------------------------------------

    @property
    def total_pairs(self) -> int:
        if self.pairs is not None:
            return len(self.pairs)
        n, m = self.grid.rows, self.grid.cols
        return 2 * n * m - n - m

    @property
    def cancelled_pairs(self) -> int:
        return len(self._cancelled)

    @property
    def failed_tiles(self) -> set[GridPosition]:
        return set(self._failed)

    def all_pairs_completed(self) -> bool:
        return len(self._completed) == self.total_pairs - len(self._cancelled)

    def pending_pairs(self) -> int:
        return self.total_pairs - len(self._cancelled) - len(self._completed)
