"""Phase 3: composition and blend modes."""

import numpy as np
import pytest

from repro.core.compose import BlendMode, compose
from repro.core.displacement import DisplacementResult, Translation
from repro.core.global_opt import GlobalPositions


def positions_grid(rows, cols, step_y, step_x):
    pos = np.zeros((rows, cols, 2), dtype=np.int64)
    for r in range(rows):
        for c in range(cols):
            pos[r, c] = (r * step_y, c * step_x)
    return GlobalPositions(positions=pos, method="test")


class TestCompose:
    def make_tiles(self, rows=2, cols=2, th=8, tw=8, value_fn=None):
        tiles = {}
        for r in range(rows):
            for c in range(cols):
                v = value_fn(r, c) if value_fn else (r * cols + c + 1)
                tiles[(r, c)] = np.full((th, tw), float(v))
        return lambda r, c: tiles[(r, c)]

    def test_overlay_shape_and_coverage(self):
        load = self.make_tiles()
        gp = positions_grid(2, 2, 6, 6)
        m = compose(load, gp, (8, 8), BlendMode.OVERLAY)
        assert m.shape == (14, 14)
        assert m.dtype == np.float32
        assert np.all(m > 0)  # full coverage with overlapping tiles

    def test_overlay_last_write_wins(self):
        load = self.make_tiles()
        gp = positions_grid(2, 2, 6, 6)
        m = compose(load, gp, (8, 8), BlendMode.OVERLAY)
        assert m[13, 13] == 4.0   # tile (1,1) painted last
        assert m[7, 7] == 4.0     # overlap corner owned by last writer

    def test_average_blend_in_overlap(self):
        load = self.make_tiles(value_fn=lambda r, c: 2.0 if (r, c) == (0, 0) else 4.0)
        gp = positions_grid(1, 2, 0, 6)
        m = compose(load, gp, (8, 8), BlendMode.AVERAGE)
        assert m[0, 0] == 2.0
        assert m[0, 13] == 4.0
        assert m[0, 7] == pytest.approx(3.0)  # overlap column averaged

    def test_maximum_blend(self):
        load = self.make_tiles(value_fn=lambda r, c: 1.0 + r + c)
        gp = positions_grid(2, 2, 4, 4)
        m = compose(load, gp, (8, 8), BlendMode.MAXIMUM)
        assert m[5, 5] == 3.0  # interior overlap keeps the max tile

    def test_linear_blend_smooth_and_bounded(self):
        load = self.make_tiles(value_fn=lambda r, c: 2.0 if (r + c) % 2 == 0 else 4.0)
        gp = positions_grid(2, 2, 6, 6)
        m = compose(load, gp, (8, 8), BlendMode.LINEAR)
        covered = m[m > 0]
        assert covered.min() >= 2.0 - 1e-4 and covered.max() <= 4.0 + 1e-4

    def test_outline_draws_tile_borders(self):
        load = self.make_tiles(value_fn=lambda r, c: 1.0)
        gp = positions_grid(2, 2, 8, 8)  # abutting, no overlap
        m = compose(load, gp, (8, 8), BlendMode.OVERLAY, outline=True, outline_value=9.0)
        assert m[0, 0] == 9.0
        assert m[8, 3] == 9.0     # top edge of tile (1,0)
        assert m[4, 4] == 1.0     # interior untouched

    def test_wrong_tile_shape_rejected(self):
        gp = positions_grid(1, 1, 0, 0)
        with pytest.raises(ValueError):
            compose(lambda r, c: np.zeros((4, 4)), gp, (8, 8))

    def test_dtype_parameter(self):
        load = self.make_tiles(1, 1)
        gp = positions_grid(1, 1, 0, 0)
        m = compose(load, gp, (8, 8), dtype=np.float64)
        assert m.dtype == np.float64

    @pytest.mark.parametrize("blend", [BlendMode.OVERLAY, BlendMode.MAXIMUM])
    def test_float64_result_is_the_canvas_not_a_copy(self, blend):
        """The canvas is blended in float64; asking for float64 must not
        duplicate it (~3 GB at the paper's 17k x 22k)."""
        import tracemalloc

        th = tw = 128
        load = self.make_tiles(2, 2, th, tw)
        gp = positions_grid(2, 2, 100, 100)
        canvas_bytes = 228 * 228 * 8
        tracemalloc.start()
        m = compose(load, gp, (th, tw), blend, dtype=np.float64)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert m.nbytes == canvas_bytes
        # These two blends have no weight accumulator: the canvas plus one
        # tile's temporaries (well under two tiles) is all a render holds.
        assert peak <= canvas_bytes + 2 * th * tw * 8


class TestComposeAgainstGroundTruth:
    def test_full_plate_reconstruction(self, dataset_4x4):
        """End-of-pipeline check: stitched mosaic reproduces the plate
        region wherever the overlay covers it."""
        from repro.core.stitcher import Stitcher

        res = Stitcher().stitch(dataset_4x4)
        mosaic = res.compose(BlendMode.OVERLAY)
        true = np.asarray(dataset_4x4.metadata.true_positions)
        true0 = true - true.reshape(-1, 2).min(axis=0)
        # Every tile's pixels must appear at its true mosaic position
        # unless a later tile overwrote them; check the last tile fully.
        last = dataset_4x4.load(3, 3)
        y, x = true0[3, 3]
        region = mosaic[y : y + 64, x : x + 64]
        assert np.allclose(region, last.astype(np.float32))
