"""Traversal orders and their memory consequences (Section IV.A)."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.displacement import compute_grid_displacements
from repro.grid.tile_grid import GridPosition, TileGrid
from repro.grid.traversal import (
    Traversal,
    peak_live_transforms,
    release_schedule,
    traverse,
)


@given(
    rows=st.integers(1, 10),
    cols=st.integers(1, 10),
    order=st.sampled_from(list(Traversal)),
)
def test_every_order_is_a_permutation(rows, cols, order):
    g = TileGrid(rows, cols)
    seq = list(traverse(g, order))
    assert len(seq) == len(g)
    assert len(set(seq)) == len(g)


class TestSpecificOrders:
    def test_row_order(self):
        g = TileGrid(2, 3)
        assert [tuple(p) for p in traverse(g, Traversal.ROW)] == [
            (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)
        ]

    def test_chained_row_is_boustrophedon(self):
        g = TileGrid(2, 3)
        assert [tuple(p) for p in traverse(g, Traversal.CHAINED_ROW)] == [
            (0, 0), (0, 1), (0, 2), (1, 2), (1, 1), (1, 0)
        ]

    def test_diagonal_wavefront(self):
        g = TileGrid(3, 3)
        seq = [tuple(p) for p in traverse(g, Traversal.DIAGONAL)]
        assert seq[0] == (0, 0)
        assert set(seq[1:3]) == {(0, 1), (1, 0)}
        assert set(seq[3:6]) == {(0, 2), (1, 1), (2, 0)}

    def test_chained_diagonal_alternates_direction(self):
        g = TileGrid(3, 3)
        seq = [tuple(p) for p in traverse(g, Traversal.CHAINED_DIAGONAL)]
        # Second anti-diagonal is traversed high-row-first.
        assert seq[1] == (1, 0)
        assert seq[2] == (0, 1)


class TestReleaseSchedule:
    @given(
        rows=st.integers(1, 6),
        cols=st.integers(1, 6),
        order=st.sampled_from(list(Traversal)),
    )
    def test_everything_eventually_released(self, rows, cols, order):
        g = TileGrid(rows, cols)
        sched = release_schedule(g, order)
        released = [p for _, freed in sched for p in freed]
        assert len(released) == len(g)
        assert len(set(released)) == len(g)

    def test_release_never_precedes_visit(self):
        g = TileGrid(4, 4)
        visited = set()
        for pos, freed in release_schedule(g, Traversal.CHAINED_DIAGONAL):
            visited.add(pos)
            for f in freed:
                assert f in visited


class TestPeakLiveTransforms:
    def test_diagonal_orders_beat_row_order_on_wide_grids(self):
        """The paper's rationale for the chained-diagonal default."""
        g = TileGrid(8, 16)
        row_peak = peak_live_transforms(g, Traversal.ROW)
        diag_peak = peak_live_transforms(g, Traversal.CHAINED_DIAGONAL)
        assert diag_peak < row_peak

    def test_diagonal_peak_tracks_small_dimension(self):
        """Pool sizing rule: "must exceed the smallest grid dimension"."""
        g = TileGrid(6, 30)
        peak = peak_live_transforms(g, Traversal.CHAINED_DIAGONAL)
        assert min(6, 30) < peak <= 2 * min(6, 30) + 2

    def test_row_order_peak_spans_two_rows(self):
        g = TileGrid(5, 9)
        # Row order must keep the previous row live for north pairs.
        assert peak_live_transforms(g, Traversal.ROW) >= 9

    @given(rows=st.integers(1, 6), cols=st.integers(1, 6))
    def test_peak_bounds(self, rows, cols):
        g = TileGrid(rows, cols)
        for order in Traversal:
            peak = peak_live_transforms(g, order)
            assert 1 <= peak <= rows * cols

    def test_1x1(self):
        g = TileGrid(1, 1)
        assert peak_live_transforms(g, Traversal.CHAINED_DIAGONAL) == 1

    @pytest.mark.parametrize("shape", [(1, 4), (3, 5), (4, 4), (5, 2)])
    @pytest.mark.parametrize("order", list(Traversal))
    def test_model_is_the_reference_schedules_measurement(self, shape, order):
        """The replay and the default path run one ledger: the model's
        peak is exactly what the inline schedule measures."""
        rng = np.random.default_rng(5)
        tiles = {pos: rng.random((16, 16)) for pos in TileGrid(*shape).positions()}
        disp = compute_grid_displacements(
            lambda r, c: tiles[GridPosition(r, c)], *shape, traversal=order,
            overlap=False,
        )
        assert disp.stats["peak_live_transforms"] == peak_live_transforms(
            TileGrid(*shape), order
        )
