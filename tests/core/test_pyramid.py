"""Mosaic pyramid: downsampling, windowed rendering, laziness."""

import numpy as np
import pytest

from repro.core.compose import BlendMode, compose
from repro.core.global_opt import GlobalPositions
from repro.core.pyramid import MosaicPyramid, downsample


class TestDownsample:
    def test_factor_one_identity(self):
        a = np.random.default_rng(0).random((7, 9))
        assert np.array_equal(downsample(a, 1), a)

    def test_block_mean(self):
        a = np.array([[0.0, 2.0], [4.0, 6.0]])
        assert downsample(a, 2) == pytest.approx(np.array([[3.0]]))

    def test_non_divisible_edges_padded(self):
        a = np.ones((5, 7))
        out = downsample(a, 2)
        assert out.shape == (3, 4)
        assert np.allclose(out, 1.0)  # edge padding preserves constants

    def test_rejects_bad_factor(self):
        with pytest.raises(ValueError):
            downsample(np.ones((4, 4)), 0)


def grid_positions(rows, cols, step):
    pos = np.zeros((rows, cols, 2), dtype=np.int64)
    for r in range(rows):
        for c in range(cols):
            pos[r, c] = (r * step, c * step)
    return GlobalPositions(positions=pos, method="test")


class TestMosaicPyramid:
    def make(self, rows=3, cols=3, th=16, tw=16, step=12, **kw):
        rng = np.random.default_rng(1)
        tiles = {
            (r, c): rng.random((th, tw)) for r in range(rows) for c in range(cols)
        }
        gp = grid_positions(rows, cols, step)
        pyr = MosaicPyramid(lambda r, c: tiles[(r, c)], gp, (th, tw), **kw)
        return pyr, tiles, gp

    def test_level0_full_render_matches_compose(self):
        pyr, tiles, gp = self.make()
        for blend in BlendMode:
            full = pyr.render(level=0, blend=blend)
            ref = compose(lambda r, c: tiles[(r, c)], gp, (16, 16),
                          blend, dtype=np.float64)
            assert np.array_equal(full, ref)

    def test_level_shapes_halve(self):
        pyr, _, gp = self.make(levels=3)
        h0, w0 = pyr.level_shape(0)
        h1, w1 = pyr.level_shape(1)
        assert h1 == (h0 + 1) // 2 and w1 == (w0 + 1) // 2

    def test_region_matches_full_crop(self):
        pyr, _, _ = self.make()
        full = pyr.render(level=0)
        window = pyr.render_region(5, 7, 11, 13, level=0)
        assert np.allclose(window, full[5:16, 7:20])

    def test_windowed_render_is_lazy(self):
        pyr, _, _ = self.make(rows=4, cols=4, step=16)  # abutting tiles
        pyr.render_region(0, 0, 16, 16, level=0)  # viewport = first tile
        assert pyr.tile_fetches == 1

    def test_cache_bounds_fetches(self):
        pyr, _, _ = self.make(cache_tiles=100)
        pyr.render(level=0)
        pyr.render(level=0)
        assert pyr.tile_fetches == 9  # second render fully cached

    def test_average_blend_in_window(self):
        rows = cols = 2
        gp = grid_positions(rows, cols, 8)
        pyr = MosaicPyramid(
            lambda r, c: np.full((16, 16), float(r * 2 + c + 1)), gp, (16, 16)
        )
        win = pyr.render_region(8, 8, 8, 8, blend=BlendMode.AVERAGE)
        assert win[0, 0] == pytest.approx((1 + 2 + 3 + 4) / 4)

    def test_downsampled_level_approximates_mean(self):
        pyr, tiles, _ = self.make(levels=2)
        lvl1 = pyr.render(level=1)
        lvl0 = pyr.render(level=0)
        assert lvl1.mean() == pytest.approx(lvl0.mean(), rel=0.1)

    def test_validation(self):
        pyr, _, _ = self.make()
        with pytest.raises(ValueError):
            pyr.level_factor(99)
        with pytest.raises(ValueError):
            pyr.render_region(0, 0, 0, 5)
        with pytest.raises(ValueError):
            self.make(levels=0)
        with pytest.raises(ValueError):
            self.make(th=4, tw=4, levels=8)  # tiles vanish

    def test_end_to_end_with_stitcher(self, dataset_4x4):
        from repro.core.stitcher import Stitcher

        res = Stitcher().stitch(dataset_4x4)
        pyr = MosaicPyramid(dataset_4x4.load, res.positions,
                            dataset_4x4.tile_shape, levels=3)
        thumb = pyr.render(level=2)
        assert thumb.shape == pyr.level_shape(2)
        assert thumb.max() > 0
