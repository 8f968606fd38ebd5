"""End-to-end integration: acquisition -> disk -> stitch -> mosaic.

These tests exercise the full public API path a downstream user follows,
including the regimes the paper highlights (sparse features, low overlap,
serpentine acquisition with backlash).
"""

import numpy as np
import pytest

from repro.core.compose import BlendMode
from repro.core.stitcher import Stitcher
from repro.impls import PipelinedCpu, PipelinedGpu, SimpleCpu
from repro.core.global_opt import resolve_absolute_positions
from repro.analysis.metrics import position_accuracy
from repro.synth import make_synthetic_dataset
from repro.synth.noise import CameraModel
from repro.synth.specimen import SpecimenParams


class TestFullPipeline:
    def test_acquire_stitch_compose(self, tmp_path):
        ds = make_synthetic_dataset(
            tmp_path / "ds", rows=5, cols=4, tile_height=80, tile_width=80,
            overlap=0.15, seed=77,
        )
        res = Stitcher().stitch(ds)
        assert res.position_errors().max() == 0.0
        mosaic = res.compose(BlendMode.LINEAR)
        assert mosaic.ndim == 2
        assert mosaic.max() > 0

    def test_low_overlap_regime(self, tmp_path):
        """10 % overlap, the paper's hardest nominal setting."""
        ds = make_synthetic_dataset(
            tmp_path / "ds", rows=3, cols=3, tile_height=96, tile_width=96,
            overlap=0.10, seed=5,
        )
        res = Stitcher().stitch(ds)
        assert res.position_errors().max() <= 1.0

    def test_sparse_feature_regime(self, tmp_path):
        """Early-experiment plates: few colonies, weak texture (Section I).

        This is the regime that rules out feature-based stitching; the
        Fourier approach must still lock on via specimen granularity.
        """
        ds = make_synthetic_dataset(
            tmp_path / "ds", rows=3, cols=3, tile_height=96, tile_width=96,
            overlap=0.25, seed=9,
            specimen=SpecimenParams(
                colony_count=2, cells_per_colony=8, background_texture=0.01,
                fine_texture=0.02, granularity=0.02,
            ),
        )
        res = Stitcher().stitch(ds)
        assert res.position_errors().mean() <= 2.0

    def test_noisy_camera_regime(self, tmp_path):
        ds = make_synthetic_dataset(
            tmp_path / "ds", rows=3, cols=3, tile_height=96, tile_width=96,
            overlap=0.2, seed=13,
            camera=CameraModel(vignette=0.25, shot_noise=1.5, read_noise=60.0),
        )
        res = Stitcher().stitch(ds)
        assert res.position_errors().max() <= 2.0

    def test_parallel_impl_to_final_mosaic(self, tmp_path):
        """A parallel implementation's phase-1 output feeds phases 2-3."""
        ds = make_synthetic_dataset(
            tmp_path / "ds", rows=4, cols=4, tile_height=64, tile_width=64,
            overlap=0.25, seed=21,
        )
        run = PipelinedGpu(devices=2).run(ds)
        gp = resolve_absolute_positions(run.displacements, "mst")
        acc = position_accuracy(gp, ds.metadata.true_positions)
        assert acc["max"] == 0.0

    def test_mosaic_pixels_match_plate_everywhere_covered(self, tmp_path):
        """Average-blend mosaic of a noiseless scan equals the plate region
        (strongest possible end-to-end statement)."""
        from repro.synth.noise import NOISELESS

        ds = make_synthetic_dataset(
            tmp_path / "ds", rows=3, cols=3, tile_height=64, tile_width=64,
            overlap=0.25, seed=31, camera=NOISELESS,
        )
        res = Stitcher().stitch(ds)
        mosaic = res.compose(BlendMode.AVERAGE, dtype=np.float64)
        true = np.asarray(ds.metadata.true_positions)
        true0 = true - true.reshape(-1, 2).min(axis=0)
        for r in range(3):
            for c in range(3):
                y, x = true0[r, c]
                tile = ds.load(r, c)
                region = mosaic[y : y + 64, x : x + 64]
                # AVERAGE of identical noiseless exposures == each exposure.
                assert np.allclose(region, tile, atol=1e-6)

    def test_cpu_and_gpu_paths_identical_mosaics(self, tmp_path):
        ds = make_synthetic_dataset(
            tmp_path / "ds", rows=3, cols=4, tile_height=64, tile_width=64,
            overlap=0.2, seed=41,
        )
        cpu = PipelinedCpu(partitions=2).run(ds)
        gpu = PipelinedGpu(devices=1).run(ds)
        p_cpu = resolve_absolute_positions(cpu.displacements, "mst")
        p_gpu = resolve_absolute_positions(gpu.displacements, "mst")
        assert np.array_equal(p_cpu.positions, p_gpu.positions)


class TestNegativeControls:
    def test_unrelated_tiles_flagged_untrustworthy(self, tmp_path):
        """Tiles cut from *different* plates share no overlap content: the
        stitcher must not silently produce a confident mosaic."""
        import numpy as np
        from repro.analysis.quality import quality_summary
        from repro.io.dataset import TileDataset
        from repro.synth.specimen import generate_plate
        from repro.synth.noise import CameraModel

        rng = np.random.default_rng(0)
        cam = CameraModel(vignette=0.0)
        tiles = np.empty((3, 3, 64, 64), dtype=np.uint16)
        for r in range(3):
            for c in range(3):
                plate = generate_plate(80, 80, seed=100 + 3 * r + c)
                tiles[r, c] = cam.expose(plate[:64, :64], rng)
        ds = TileDataset.create(tmp_path / "junk", tiles, overlap=0.2)
        res = Stitcher().stitch(ds)
        q = quality_summary(res.displacements)
        assert not q.trustworthy
        assert q.median_correlation < 0.5

    def test_quality_summary_trustworthy_on_real_scan(self, tmp_path):
        from repro.analysis.quality import quality_summary

        ds = make_synthetic_dataset(
            tmp_path / "good", rows=3, cols=3, tile_height=64, tile_width=64,
            overlap=0.25, seed=71,
        )
        res = Stitcher().stitch(ds)
        q = quality_summary(res.displacements)
        assert q.trustworthy
        assert q.low_confidence_pairs == 0


class TestModerateScale:
    def test_10x10_grid_full_pipeline(self, tmp_path):
        """A 100-tile acquisition through stitch + streaming compose."""
        from repro.core.streamcompose import stream_compose_to_tiff
        from repro.io.tiff import read_tiff

        ds = make_synthetic_dataset(
            tmp_path / "big", rows=10, cols=10, tile_height=64, tile_width=64,
            overlap=0.15, seed=99,
        )
        res = Stitcher().stitch(ds)
        assert res.position_errors().max() == 0.0
        out = tmp_path / "big.tif"
        shape = stream_compose_to_tiff(out, ds.load, res.positions, ds.tile_shape).shape
        assert read_tiff(out).shape == shape
