"""Phase 3 partial composition: skip lists, load-error holes, masks."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.compose import BlendMode, compose
from repro.core.streamcompose import stream_compose_to_tiff
from repro.core.global_opt import GlobalPositions
from repro.io.tiff import read_tiff

TILE = (8, 8)


def grid_positions(rows: int, cols: int) -> GlobalPositions:
    pos = np.zeros((rows, cols, 2), dtype=np.int64)
    for r in range(rows):
        for c in range(cols):
            pos[r, c] = (r * TILE[0], c * TILE[1])  # no overlap: disjoint
    return GlobalPositions(positions=pos, method="mst")


def constant_tiles(row, col):
    """Each tile filled with a unique nonzero value."""
    return np.full(TILE, float(10 * row + col + 1))


class TestComposeSkip:
    def test_skip_tiles_leave_zero_holes(self):
        gp = grid_positions(2, 3)
        canvas, mask = compose(
            constant_tiles, gp, TILE, skip_tiles=[(0, 1)], return_mask=True
        )
        assert canvas.shape == (16, 24)
        assert float(canvas[0:8, 8:16].max()) == 0.0  # the hole
        assert float(canvas[0:8, 0:8].min()) == 1.0   # neighbours rendered
        assert mask.tolist() == [[True, False, True], [True, True, True]]

    def test_no_skips_full_mask(self):
        gp = grid_positions(2, 2)
        canvas, mask = compose(constant_tiles, gp, TILE, return_mask=True)
        assert mask.all()
        assert float(canvas.min()) == 1.0  # no holes anywhere

    def test_return_mask_false_keeps_legacy_return(self):
        gp = grid_positions(2, 2)
        out = compose(constant_tiles, gp, TILE, skip_tiles=[(1, 1)])
        assert isinstance(out, np.ndarray)  # not a tuple

    def test_load_error_aborts_by_default(self):
        gp = grid_positions(2, 2)

        def flaky(row, col):
            if (row, col) == (1, 0):
                raise IOError("read failed mid-composition")
            return constant_tiles(row, col)

        with pytest.raises(IOError):
            compose(flaky, gp, TILE)

    def test_load_error_skipped_becomes_hole(self):
        gp = grid_positions(2, 2)

        def flaky(row, col):
            if (row, col) == (1, 0):
                raise IOError("read failed mid-composition")
            return constant_tiles(row, col)

        canvas, mask = compose(
            flaky, gp, TILE, on_tile_error="skip", return_mask=True
        )
        assert not mask[1, 0] and mask.sum() == 3
        assert float(canvas[8:16, 0:8].max()) == 0.0

    def test_invalid_on_tile_error_rejected(self):
        gp = grid_positions(2, 2)
        with pytest.raises(ValueError, match="on_tile_error"):
            compose(constant_tiles, gp, TILE, on_tile_error="retry")

    def test_outline_only_rendered_tiles(self):
        gp = grid_positions(1, 2)
        canvas = compose(
            constant_tiles, gp, TILE, outline=True, outline_value=99.0,
            skip_tiles=[(0, 1)],
        )
        assert float(canvas[0, 0]) == 99.0       # rendered tile outlined
        assert float(canvas[0:8, 8:16].max()) == 0.0  # hole left untouched

    def test_average_blend_with_skips(self):
        gp = grid_positions(2, 2)
        canvas = compose(
            constant_tiles, gp, TILE, blend=BlendMode.AVERAGE,
            skip_tiles=[(0, 0)],
        )
        assert float(canvas[0:8, 0:8].max()) == 0.0
        assert float(canvas[8:16, 0:8].min()) == 11.0


class TestComposeToTiffSkip:
    def test_skip_tiles_stream_holes(self, tmp_path):
        gp = grid_positions(3, 2)
        path = tmp_path / "partial.tif"
        shape = stream_compose_to_tiff(
            path, constant_tiles, gp, TILE, skip_tiles=[(1, 1)], band_rows=5
        ).shape
        assert shape == (24, 16)
        arr = read_tiff(path)
        assert float(arr[8:16, 8:16].max()) == 0.0  # the hole
        assert float(arr[8:16, 0:8].min()) == 11.0

    def test_load_error_skip_matches_in_memory_compose(self, tmp_path):
        gp = grid_positions(2, 2)

        def flaky(row, col):
            if (row, col) == (0, 1):
                raise IOError("bad read")
            return constant_tiles(row, col)

        path = tmp_path / "flaky.tif"
        stream_compose_to_tiff(path, flaky, gp, TILE, on_tile_error="skip")
        streamed = read_tiff(path).astype(np.float64)
        in_memory = compose(flaky, gp, TILE, on_tile_error="skip")
        np.testing.assert_array_equal(streamed, in_memory.astype(np.float64))

    def test_load_error_abort_propagates(self, tmp_path):
        gp = grid_positions(2, 2)

        def broken(row, col):
            raise IOError("dead disk")

        with pytest.raises(IOError):
            stream_compose_to_tiff(tmp_path / "x.tif", broken, gp, TILE)
