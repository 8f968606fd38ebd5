"""End-to-end out-of-core composition: budgets hold, pixels don't change.

The over-budget case stitches a synthetic grid whose full-resolution
float64 canvas is several times the compose budget, asserts the tracked
peak stays under it, and cross-checks the streamed file bit-for-bit
against the in-memory reference on the same (control-sized) grid -- the
same shape the CI memory-budget smoke job runs at larger scale with an
RSS assertion on top.
"""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.core.compose import BlendMode
from repro.core.pyramid import DiskPyramid
from repro.core.stitcher import Stitcher
from repro.core.streamcompose import pyramid_level_path
from repro.io.tiff import TiffReader, read_tiff


@pytest.fixture(scope="module")
def stitched(dataset_4x4):
    return Stitcher().stitch(dataset_4x4)


class TestBudgetedStitchCompose:
    def test_over_budget_canvas_stays_bounded(self, stitched, tmp_path):
        h, w = stitched.positions.mosaic_shape(stitched.dataset.tile_shape)
        full_canvas = h * w * 8
        budget = full_canvas // 4  # canvas cannot fit: must stream
        res = stitched.compose_to_tiff(tmp_path / "m.tif",
                                       memory_budget=budget)
        assert res.peak_bytes <= budget
        assert res.stripes > 1
        assert (tmp_path / "m.tif").exists()

    @pytest.mark.parametrize(
        "blend", [BlendMode.OVERLAY, BlendMode.AVERAGE,
                  BlendMode.MAXIMUM, BlendMode.LINEAR])
    def test_streamed_equals_in_memory_reference(self, stitched, tmp_path,
                                                 blend):
        h, w = stitched.positions.mosaic_shape(stitched.dataset.tile_shape)
        budget = (h * w * 8) // 4
        stitched.compose_to_tiff(tmp_path / "m.tif", blend=blend,
                                 memory_budget=budget)
        ref = stitched.compose(blend, dtype=np.float64)
        expected = np.clip(ref, 0, 65535).astype(np.uint16)
        assert np.array_equal(read_tiff(tmp_path / "m.tif"), expected)

    def test_pyramid_viewport_from_disk(self, stitched, tmp_path):
        res = stitched.compose_to_tiff(tmp_path / "m.tif",
                                       memory_budget=256 * 1024,
                                       pyramid_levels=2)
        assert len(res.pyramid_paths) == 2
        with DiskPyramid(tmp_path / "m.tif") as pyr:
            assert pyr.levels == 3
            win = pyr.render_region(5, 5, 20, 20, level=1)
            ref = read_tiff(pyramid_level_path(tmp_path / "m.tif", 1))
            assert np.array_equal(win, ref[5:25, 5:25])

    def test_native_dtype_loader_used(self, dataset_4x4):
        """The compose loader must not promote uint16 tiles to float64."""
        res = Stitcher().stitch(dataset_4x4)
        tile = res._load_native(0, 0)
        assert tile.dtype == np.uint16


class TestCliMemoryBudget:
    @pytest.fixture
    def dataset_dir(self, tmp_path):
        main(["synth", str(tmp_path / "ds"), "--rows", "3", "--cols", "3",
              "--tile-size", "48", "--overlap", "0.25", "--seed", "7"])
        return tmp_path / "ds"

    def test_memory_budget_flag(self, dataset_dir, tmp_path, capsys):
        out = tmp_path / "m.tif"
        rc = main(["stitch", str(dataset_dir), "-o", str(out),
                   "--memory-budget", "256K"])
        assert rc == 0
        text = capsys.readouterr().out
        assert "streamed" in text
        assert out.exists()

    def test_pyramid_flag(self, dataset_dir, tmp_path, capsys):
        out = tmp_path / "m.tif"
        rc = main(["stitch", str(dataset_dir), "-o", str(out),
                   "--memory-budget", "256K", "--pyramid", "2"])
        assert rc == 0
        assert "pyramid L1..L2" in capsys.readouterr().out
        for k in (1, 2):
            with TiffReader(pyramid_level_path(out, k)) as r:
                assert r.height > 0

    def test_outline_is_drawn_when_streaming(self, dataset_dir, tmp_path, capsys):
        out, pos = tmp_path / "m.tif", tmp_path / "positions.json"
        rc = main(["stitch", str(dataset_dir), "-o", str(out), "--outline",
                   "--memory-budget", "256K", "--pyramid", "1",
                   "--positions-json", str(pos)])
        assert rc == 0
        assert "note:" not in capsys.readouterr().out
        mosaic = read_tiff(out)
        for y, x in np.asarray(json.loads(pos.read_text())).reshape(-1, 2):
            assert (mosaic[[y, y + 47], x:x + 48] == 65535).all()
            assert (mosaic[y:y + 48, [x, x + 47]] == 65535).all()
        assert (mosaic == 65535).mean() < 0.25  # borders, not a saturated image

    def test_pyramid_alone_streams(self, dataset_dir, tmp_path):
        out = tmp_path / "m.tif"
        assert main(["stitch", str(dataset_dir), "-o", str(out),
                     "--pyramid", "1"]) == 0
        assert pyramid_level_path(out, 1).exists()
