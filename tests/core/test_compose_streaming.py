"""Streaming composition: bit-equivalence with in-memory compose."""

import numpy as np
import pytest

from repro.core.compose import BlendMode, compose
from repro.core.streamcompose import stream_compose_to_tiff
from repro.core.global_opt import GlobalPositions
from repro.core.stitcher import Stitcher
from repro.io.tiff import TiffStripWriter, read_tiff


def grid_positions(rows, cols, step):
    pos = np.zeros((rows, cols, 2), dtype=np.int64)
    for r in range(rows):
        for c in range(cols):
            pos[r, c] = (r * step, c * step)
    return GlobalPositions(positions=pos, method="test")


class TestTiffStripWriter:
    def test_banded_write_reads_back(self, tmp_path):
        rng = np.random.default_rng(0)
        img = rng.integers(0, 65535, (37, 23)).astype(np.uint16)
        p = tmp_path / "s.tif"
        with TiffStripWriter(p, 37, 23, np.uint16) as w:
            w.write_rows(img[:10])
            w.write_rows(img[10:11])
            w.write_rows(img[11:])
        assert np.array_equal(read_tiff(p), img)

    def test_uint8(self, tmp_path):
        img = np.arange(64, dtype=np.uint8).reshape(8, 8)
        p = tmp_path / "s.tif"
        with TiffStripWriter(p, 8, 8, np.uint8) as w:
            w.write_rows(img)
        assert np.array_equal(read_tiff(p), img)

    def test_incomplete_image_rejected(self, tmp_path):
        w = TiffStripWriter(tmp_path / "s.tif", 10, 4, np.uint16)
        w.write_rows(np.zeros((3, 4), dtype=np.uint16))
        with pytest.raises(ValueError, match="incomplete"):
            w.close()

    def test_overrun_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="overruns"):
            with TiffStripWriter(tmp_path / "s.tif", 2, 4, np.uint16) as w:
                w.write_rows(np.zeros((3, 4), dtype=np.uint16))

    def test_wrong_width_and_dtype_rejected(self, tmp_path):
        w = TiffStripWriter(tmp_path / "s.tif", 4, 4, np.uint16)
        with pytest.raises(ValueError, match="width"):
            w.write_rows(np.zeros((1, 5), dtype=np.uint16))
        with pytest.raises(ValueError, match="dtype"):
            w.write_rows(np.zeros((1, 4), dtype=np.uint8))

    def test_float_dtype_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            TiffStripWriter(tmp_path / "s.tif", 4, 4, np.float32)


class TestComposeToTiff:
    def make_tiles(self, rows=3, cols=3, th=16, tw=16, seed=1):
        rng = np.random.default_rng(seed)
        tiles = {
            (r, c): rng.integers(0, 60000, (th, tw)).astype(np.float64)
            for r in range(rows)
            for c in range(cols)
        }
        return lambda r, c: tiles[(r, c)]

    @pytest.mark.parametrize("blend", [BlendMode.OVERLAY, BlendMode.AVERAGE])
    @pytest.mark.parametrize("band_rows", [1, 5, 16, 1000])
    def test_matches_in_memory_compose(self, tmp_path, blend, band_rows):
        load = self.make_tiles()
        gp = grid_positions(3, 3, 12)
        p = tmp_path / "m.tif"
        for outline in (False, True):
            shape = stream_compose_to_tiff(p, load, gp, (16, 16), blend=blend,
                                    band_rows=band_rows, outline=outline).shape
            streamed = read_tiff(p)
            ref = compose(load, gp, (16, 16), blend=blend, dtype=np.float64,
                          outline=outline, outline_value=65535.0)
            expected = np.clip(ref, 0, 65535).astype(np.uint16)
            assert streamed.shape == shape
            assert np.array_equal(streamed, expected)
            assert (streamed[0, :16] == 65535).all() == outline

    def test_scale_parameter(self, tmp_path):
        load = lambda r, c: np.full((8, 8), 0.5)
        gp = grid_positions(1, 1, 0)
        stream_compose_to_tiff(tmp_path / "m.tif", load, gp, (8, 8), scale=1000.0)
        assert read_tiff(tmp_path / "m.tif")[0, 0] == 500

    def test_maximum_blend_matches_in_memory(self, tmp_path):
        load = self.make_tiles()
        gp = grid_positions(3, 3, 12)
        p = tmp_path / "m.tif"
        # band_rows=5 splits every tile across bands: per-pixel max must
        # still agree with the all-in-memory reference.
        shape = stream_compose_to_tiff(p, load, gp, (16, 16),
                                blend=BlendMode.MAXIMUM, band_rows=5).shape
        ref = compose(load, gp, (16, 16), blend=BlendMode.MAXIMUM,
                      dtype=np.float64)
        streamed = read_tiff(p)
        assert streamed.shape == shape
        assert np.array_equal(streamed, np.clip(ref, 0, 65535).astype(np.uint16))

    @pytest.mark.parametrize("band_rows", [1, 5, 16, 1000])
    def test_linear_blend_matches_in_memory(self, tmp_path, band_rows):
        """LINEAR feathering streams: every tile covering a pixel intersects
        that pixel's band, so per-band weighted accumulation + normalization
        is the row-restriction of the global computation."""
        load = self.make_tiles()
        gp = grid_positions(3, 3, 12)
        p = tmp_path / "m.tif"
        shape = stream_compose_to_tiff(p, load, gp, (16, 16),
                                blend=BlendMode.LINEAR, band_rows=band_rows).shape
        streamed = read_tiff(p)
        ref = compose(load, gp, (16, 16), blend=BlendMode.LINEAR,
                      dtype=np.float64)
        assert streamed.shape == shape
        assert np.array_equal(streamed, np.clip(ref, 0, 65535).astype(np.uint16))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"pyramid_levels": -1},
            {"on_tile_error": "retry-forever"},
            {"dtype": np.float32},
            {"blend": "no-such-blend"},
        ],
    )
    def test_rejection_leaves_no_partial_output(self, tmp_path, kwargs):
        """An up-front validation failure must not touch the filesystem."""
        gp = grid_positions(2, 2, 12)
        p = tmp_path / "m.tif"
        with pytest.raises(ValueError):
            stream_compose_to_tiff(p, self.make_tiles(2, 2), gp, (16, 16), **kwargs)
        assert list(tmp_path.iterdir()) == []

    def test_midstream_failure_leaves_no_partial_output(self, tmp_path):
        """A bad tile under abort policy must not leave a torn mosaic."""
        tiles = self.make_tiles(3, 3)

        def load(r, c):
            if (r, c) == (2, 1):  # fails only in a late band
                raise OSError("tile rotted")
            return tiles(r, c)

        gp = grid_positions(3, 3, 12)
        p = tmp_path / "m.tif"
        with pytest.raises(OSError, match="tile rotted"):
            stream_compose_to_tiff(p, load, gp, (16, 16), band_rows=5,
                            on_tile_error="abort")
        assert list(tmp_path.iterdir()) == []

    def test_midstream_failure_preserves_previous_mosaic(self, tmp_path):
        """Re-compose over an existing mosaic: failure keeps the old file."""
        load = self.make_tiles(2, 2)
        gp = grid_positions(2, 2, 12)
        p = tmp_path / "m.tif"
        stream_compose_to_tiff(p, load, gp, (16, 16))
        before = read_tiff(p)

        def broken(r, c):
            raise OSError("gone")

        with pytest.raises(OSError):
            stream_compose_to_tiff(p, broken, gp, (16, 16), on_tile_error="abort")
        assert np.array_equal(read_tiff(p), before)
        assert list(tmp_path.iterdir()) == [p]

    def test_string_blend_accepted(self, tmp_path):
        """The service layer passes blend names; coercion is up front."""
        load = self.make_tiles(1, 1)
        gp = grid_positions(1, 1, 0)
        stream_compose_to_tiff(tmp_path / "m.tif", load, gp, (16, 16),
                        blend="average")
        assert (tmp_path / "m.tif").exists()

    def test_end_to_end_with_stitcher(self, dataset_4x4, tmp_path):
        res = Stitcher().stitch(dataset_4x4)
        p = tmp_path / "mosaic.tif"
        shape = stream_compose_to_tiff(
            p, dataset_4x4.load, res.positions, dataset_4x4.tile_shape,
            band_rows=20,
        ).shape
        streamed = read_tiff(p)
        ref = res.compose(BlendMode.OVERLAY, dtype=np.float64)
        assert streamed.shape == shape == ref.shape
        assert np.array_equal(streamed, np.clip(ref, 0, 65535).astype(np.uint16))


class TestStripWriterProperty:
    from hypothesis import given, settings, strategies as st

    @settings(max_examples=25, deadline=None)
    @given(
        h=st.integers(1, 40),
        w=st.integers(1, 30),
        cuts=st.lists(st.integers(1, 10), max_size=5),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_arbitrary_banding_roundtrips(self, tmp_path_factory, h, w, cuts, seed):
        """Any partition of the rows into bands writes the same file."""
        rng = np.random.default_rng(seed)
        img = rng.integers(0, 65536, (h, w)).astype(np.uint16)
        p = tmp_path_factory.mktemp("sw") / "t.tif"
        with TiffStripWriter(p, h, w, np.uint16) as wtr:
            r = 0
            for c in cuts:
                if r >= h:
                    break
                band = img[r : min(h, r + c)]
                wtr.write_rows(band)
                r += band.shape[0]
            if r < h:
                wtr.write_rows(img[r:])
        assert np.array_equal(read_tiff(p), img)
