"""Bookkeeper state machine: pair readiness, refcounts, partitions."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.grid.neighbors import grid_pairs
from repro.grid.tile_grid import GridPosition, TileGrid
from repro.grid.traversal import Traversal, traverse
from repro.grid.ledger import PairBookkeeper


class TestTransformReady:
    def test_pair_emitted_once_both_ready(self):
        bk = PairBookkeeper(TileGrid(1, 2))
        assert bk.transform_ready(GridPosition(0, 0)) == []
        pairs = bk.transform_ready(GridPosition(0, 1))
        assert len(pairs) == 1

    def test_duplicate_ready_rejected(self):
        bk = PairBookkeeper(TileGrid(2, 2))
        bk.transform_ready(GridPosition(0, 0))
        with pytest.raises(ValueError):
            bk.transform_ready(GridPosition(0, 0))

    def test_outside_grid_rejected(self):
        bk = PairBookkeeper(TileGrid(2, 2))
        with pytest.raises(ValueError):
            bk.transform_ready(GridPosition(5, 5))

    @given(
        rows=st.integers(1, 5), cols=st.integers(1, 5),
        order=st.sampled_from(list(Traversal)),
    )
    def test_every_pair_emitted_exactly_once(self, rows, cols, order):
        grid = TileGrid(rows, cols)
        bk = PairBookkeeper(grid)
        emitted = []
        for pos in traverse(grid, order):
            emitted.extend(bk.transform_ready(pos))
        assert len(emitted) == bk.total_pairs
        assert len(set(emitted)) == len(emitted)


class TestPairCompleted:
    def run_grid(self, rows, cols):
        grid = TileGrid(rows, cols)
        bk = PairBookkeeper(grid)
        freed_all = []
        for pos in traverse(grid, Traversal.CHAINED_DIAGONAL):
            for pair in bk.transform_ready(pos):
                freed_all.extend(bk.pair_completed(pair))
        return bk, freed_all

    def test_all_tiles_eventually_freed(self):
        bk, freed = self.run_grid(3, 4)
        assert bk.all_pairs_completed()
        assert len(freed) == 12
        assert len(set(freed)) == 12

    def test_double_completion_rejected(self):
        grid = TileGrid(1, 2)
        bk = PairBookkeeper(grid)
        bk.transform_ready(GridPosition(0, 0))
        (pair,) = bk.transform_ready(GridPosition(0, 1))
        bk.pair_completed(pair)
        with pytest.raises(ValueError):
            bk.pair_completed(pair)

    def test_unemitted_completion_rejected(self):
        grid = TileGrid(1, 2)
        bk = PairBookkeeper(grid)
        pair = next(iter(grid_pairs(grid)))
        with pytest.raises(ValueError):
            bk.pair_completed(pair)

    def test_pending_count(self):
        grid = TileGrid(2, 2)
        bk = PairBookkeeper(grid)
        assert bk.pending_pairs() == 4

    @given(rows=st.integers(1, 5), cols=st.integers(1, 5))
    def test_freed_tile_count_matches_grid(self, rows, cols):
        bk, freed = self.run_grid(rows, cols)
        if bk.total_pairs:
            assert len(freed) == rows * cols


class TestPartitions:
    def test_partition_refcounts_are_local(self):
        grid = TileGrid(2, 4)
        pairs = {p for p in grid_pairs(grid) if p.second.col >= 2 and p.first.col >= 1}
        bk = PairBookkeeper(grid, pairs=frozenset(pairs))
        # Ghost column 1 tiles carry only their in-partition pair count.
        assert bk._refcount[GridPosition(0, 1)] == 1  # west pair to (0,2) only
        assert GridPosition(0, 0) not in bk._refcount

    def test_partition_total_pairs(self):
        grid = TileGrid(2, 4)
        pairs = frozenset(p for p in grid_pairs(grid) if p.second.col >= 2)
        bk = PairBookkeeper(grid, pairs=pairs)
        assert bk.total_pairs == len(pairs)

    def test_partition_completion(self):
        grid = TileGrid(2, 3)
        pairs = frozenset(p for p in grid_pairs(grid) if p.second.col >= 1 and p.first.col >= 0)
        bk = PairBookkeeper(grid, pairs=pairs)
        freed = []
        for pos in sorted(bk.tiles):
            for pair in bk.transform_ready(pos):
                freed.extend(bk.pair_completed(pair))
        assert bk.all_pairs_completed()
        assert set(freed) == bk.tiles


class TestReferenceCounts:
    """The per-tile reference count of Section IV.B: one per incident pair."""

    def test_initial_counts_match_adjacency(self):
        bk = PairBookkeeper(TileGrid(3, 3))
        assert bk.pending(GridPosition(1, 1)) == 4  # interior
        assert bk.pending(GridPosition(0, 0)) == 2  # corner
        assert bk.pending(GridPosition(0, 1)) == 3  # edge

    def test_degenerate_grids(self):
        bk = PairBookkeeper(TileGrid(1, 3))
        assert bk.pending(GridPosition(0, 0)) == 1
        assert bk.pending(GridPosition(0, 1)) == 2
        assert PairBookkeeper(TileGrid(1, 1)).pending(GridPosition(0, 0)) == 0

    def test_release_at_zero(self):
        freed = []
        bk = PairBookkeeper(TileGrid(2, 2), release=freed.append)
        corner = GridPosition(0, 0)
        bk.transform_ready(corner)
        (west,) = bk.transform_ready(GridPosition(0, 1))
        (north,) = bk.transform_ready(GridPosition(1, 0))
        bk.pair_completed(west)
        assert bk.pending(corner) == 1
        assert freed == []
        assert bk.pair_completed(north) == [corner]
        assert freed == [corner]

    def test_underflow_rejected(self):
        """A drained tile's count cannot be taken below zero."""
        freed = []
        bk = PairBookkeeper(TileGrid(2, 2), release=freed.append)
        corner = GridPosition(0, 0)
        bk.transform_ready(corner)
        (west,) = bk.transform_ready(GridPosition(0, 1))
        (north,) = bk.transform_ready(GridPosition(1, 0))
        bk.pair_completed(west)
        bk.pair_completed(north)
        assert bk.pending(corner) == 0
        with pytest.raises(ValueError, match="completed twice"):
            bk.pair_completed(north)
        with pytest.raises(ValueError, match="already ready"):
            bk.tile_failed(corner)
        assert bk.pending(corner) == 0
        assert freed.count(corner) == 1

    @given(rows=st.integers(1, 6), cols=st.integers(1, 6))
    def test_every_tile_freed_once(self, rows, cols):
        grid = TileGrid(rows, cols)
        freed = []
        bk = PairBookkeeper(grid, release=freed.append)
        for pos in traverse(grid, Traversal.ROW):
            for pair in bk.transform_ready(pos):
                bk.pair_completed(pair)
        assert sorted(freed) == sorted(grid.positions())
        assert all(bk.pending(pos) == 0 for pos in grid.positions())
