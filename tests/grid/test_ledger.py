"""Early-release ledger: dropped tiles, and frees outside pair completion."""

from repro.grid.ledger import PairBookkeeper
from repro.grid.neighbors import grid_pairs
from repro.grid.tile_grid import GridPosition, TileGrid

P = GridPosition


class TestTileFailed:
    def test_returns_only_pairs_it_newly_cancelled(self):
        bk = PairBookkeeper(TileGrid(3, 4))
        first = bk.tile_failed(P(1, 1))
        assert first == list(bk.incident(P(1, 1)))
        second = bk.tile_failed(P(1, 2))
        # The west pair (1,1)-(1,2) went with the first drop.
        assert len(second) == 3
        assert not set(first) & set(second)
        assert bk.tile_failed(P(1, 2)) == []

    def test_frees_a_ready_neighbour_it_empties(self):
        freed = []
        bk = PairBookkeeper(TileGrid(1, 2), release=freed.append)
        bk.transform_ready(P(0, 0))
        assert freed == []
        bk.tile_failed(P(0, 1))
        assert freed == [P(0, 0)]
        assert bk.all_pairs_completed()


class TestTransformReady:
    def test_frees_a_tile_whose_pairs_were_all_cancelled(self):
        freed = []
        bk = PairBookkeeper(TileGrid(1, 3), release=freed.append)
        bk.tile_failed(P(0, 0))
        bk.tile_failed(P(0, 2))
        assert bk.transform_ready(P(0, 1)) == []
        assert freed == [P(0, 1)]


def test_subset_incident_lists_are_fixed_and_filtered():
    grid = TileGrid(2, 3)
    todo = frozenset(p for p in grid_pairs(grid) if p.second.col == 2)
    bk = PairBookkeeper(grid, pairs=todo)
    assert bk.incident(P(0, 0)) == ()
    assert set(bk.incident(P(0, 2))) == {p for p in todo if P(0, 2) in (p.first, p.second)}
    assert bk.tiles == {P(0, 1), P(1, 1), P(0, 2), P(1, 2)}
