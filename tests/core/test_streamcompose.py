"""Out-of-core composition: budget bounds, bit-identity, streamed pyramid."""

import gc
import tracemalloc

import numpy as np
import pytest

from repro.core.compose import BlendMode, compose
from repro.core.global_opt import GlobalPositions
from repro.core.pyramid import DiskPyramid, MosaicPyramid
from repro.core.streamcompose import (
    plan_stripe_rows,
    pyramid_level_path,
    stream_compose_to_tiff,
)
from repro.io.tiff import TiffReader, read_tiff
from repro.observe import MetricsRegistry, Tracer


def grid_positions(rows, cols, step):
    pos = np.zeros((rows, cols, 2), dtype=np.int64)
    for r in range(rows):
        for c in range(cols):
            pos[r, c] = (r * step, c * step)
    return GlobalPositions(positions=pos, method="test")


def make_tiles(rows=4, cols=4, th=32, tw=32, seed=1, dtype=np.uint16):
    rng = np.random.default_rng(seed)
    tiles = {
        (r, c): rng.integers(0, 60000, (th, tw)).astype(dtype)
        for r in range(rows)
        for c in range(cols)
    }
    return lambda r, c: tiles[(r, c)]


ALL_BLENDS = [BlendMode.OVERLAY, BlendMode.AVERAGE,
              BlendMode.MAXIMUM, BlendMode.LINEAR]


class TestPlanStripeRows:
    def test_splits_budget(self):
        band_rows, cache = plan_stripe_rows(
            1_000_000, 1000, 10_000, BlendMode.OVERLAY, np.dtype(np.uint16))
        # 10 B/px (8 band + 2 out) * 1000 px/row = 10 kB/row; half the
        # budget funds the cache, the other half ~50 stripe rows.
        assert cache == 500_000
        assert band_rows == 50

    def test_weight_blends_cost_more_per_row(self):
        rows_overlay, _ = plan_stripe_rows(
            1_000_000, 1000, 10_000, BlendMode.OVERLAY, np.dtype(np.uint16))
        rows_linear, _ = plan_stripe_rows(
            1_000_000, 1000, 10_000, BlendMode.LINEAR, np.dtype(np.uint16))
        assert rows_linear < rows_overlay

    def test_row_tight_budget_shrinks_cache(self):
        per_row = 1000 * 10
        band_rows, cache = plan_stripe_rows(
            per_row + 100, 1000, 10_000, BlendMode.OVERLAY,
            np.dtype(np.uint16))
        assert band_rows == 1
        assert cache == 100

    def test_budget_below_one_row_rejected(self):
        with pytest.raises(ValueError, match="cannot fit one canvas row"):
            plan_stripe_rows(100, 1000, 10_000, BlendMode.OVERLAY,
                             np.dtype(np.uint16))

    def test_band_rows_capped_at_height(self):
        band_rows, _ = plan_stripe_rows(
            10**9, 100, 7, BlendMode.OVERLAY, np.dtype(np.uint16))
        assert band_rows == 7


class TestBudgetedCompose:
    @pytest.mark.parametrize("blend", ALL_BLENDS)
    def test_bit_identical_under_budget(self, tmp_path, blend):
        """Full canvas ~173 kB in float64; a 64 kB budget forces real
        striping + cache eviction, and the file must still be
        bit-identical to quantized in-memory compose."""
        load = make_tiles()
        gp = grid_positions(4, 4, 24)
        p = tmp_path / "m.tif"
        budget = 64 * 1024
        res = stream_compose_to_tiff(p, load, gp, (32, 32), blend=blend,
                                     memory_budget=budget)
        assert res.stripes > 1  # the budget actually forced striping
        assert res.peak_bytes <= budget
        ref = compose(load, gp, (32, 32), blend=blend, dtype=np.float64)
        expected = np.clip(ref, 0, 65535).astype(np.uint16)
        assert np.array_equal(read_tiff(p), expected)

    def test_cache_bounded_and_useful(self, tmp_path):
        loads = []
        inner = make_tiles()

        def load(r, c):
            loads.append((r, c))
            return inner(r, c)

        gp = grid_positions(4, 4, 24)
        budget = 64 * 1024
        res = stream_compose_to_tiff(tmp_path / "m.tif", load, gp, (32, 32),
                                     memory_budget=budget)
        assert res.cache is not None
        assert res.cache["peak_bytes"] <= res.cache["capacity_bytes"]
        assert res.cache["hits"] > 0  # boundary tiles came from the cache
        # Decodes are amortized: never more than one load per (tile, stripe
        # it spans), and the cache keeps it strictly below the no-cache
        # worst case for this geometry.
        assert len(loads) <= 16 * res.stripes

    def test_explicit_band_rows_without_budget(self, tmp_path):
        load = make_tiles()
        gp = grid_positions(4, 4, 24)
        res = stream_compose_to_tiff(tmp_path / "m.tif", load, gp, (32, 32),
                                     band_rows=7)
        assert res.band_rows == 7
        assert res.cache is None  # no budget, no cache
        assert res.memory_budget is None

    def test_metrics_and_tracer(self, tmp_path):
        metrics = MetricsRegistry()
        tracer = Tracer()
        load = make_tiles()
        gp = grid_positions(4, 4, 24)
        res = stream_compose_to_tiff(
            tmp_path / "m.tif", load, gp, (32, 32),
            memory_budget=64 * 1024, pyramid_levels=2,
            metrics=metrics, tracer=tracer,
        )
        snap = metrics.snapshot()
        assert snap["gauges"]["compose_peak_canvas_bytes"]["peak"] == res.peak_bytes
        assert snap["counters"]["compose_stripes"] == res.stripes
        assert snap["counters"]["compose_tile_cache_hits"] == res.cache["hits"]
        assert tracer.span_count("compose.stripe") == res.stripes
        assert tracer.span_count("compose.pyramid_level") == 2

    def test_skip_tiles_leaves_holes(self, tmp_path):
        load = make_tiles()
        gp = grid_positions(2, 2, 32)  # non-overlapping
        res = stream_compose_to_tiff(tmp_path / "m.tif", load, gp, (32, 32),
                                     skip_tiles=[(1, 1)],
                                     memory_budget=64 * 1024)
        assert res.tiles_rendered == 3
        img = read_tiff(tmp_path / "m.tif")
        assert not img[32:, 32:].any()
        assert img[:32, :32].any()


class TestBudgetIsResidency:
    """``memory_budget`` bounds what is allocated, not a model of it.

    ``peak_bytes`` counts band + weight + quantised stripe + tile cache.
    ``tracemalloc`` (numpy registers its buffers with it) sees everything,
    so the difference is what the model omits -- written out below, all of
    it O(tile) and none of it O(stripe) or O(canvas).
    """

    @pytest.mark.parametrize("budget", [2 << 20, 4 << 20])
    @pytest.mark.parametrize("blend", ALL_BLENDS)
    def test_traced_allocations_stay_within_budget(self, tmp_path, blend, budget):
        th = tw = 128
        tiles = make_tiles(10, 10, th, tw)
        gp = grid_positions(10, 10, 112)
        h, w = gp.mosaic_shape((th, tw))
        assert h * w * 8 > 2 * budget  # the float64 canvas alone cannot fit

        def load(r, c):
            return tiles(r, c).copy()  # a decode allocates; so must this

        gc.collect()
        tracemalloc.start()
        try:
            baseline, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            res = stream_compose_to_tiff(tmp_path / "m.tif", load, gp, (th, tw),
                                         blend=blend, memory_budget=budget)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()

        allowance = (
            # numpy's ufunc buffers for a strided or casting operand
            # (in, in, out), a constant of the library:
            3 * np.getbufsize() * 8
            # the tile being loaded before the cache evicts to make room,
            # and the previous one the kernel still holds:
            + 2 * th * tw * 2
            # Python objects: the plan, stripe buckets, cache entry headers:
            + 128 * 1024
        )
        if blend is BlendMode.LINEAR:
            # ``src * w_src`` for one (tile n stripe), and the plan's ramp
            # ``lin_w`` -- resident once built, twice that while building.
            allowance += min(res.band_rows, th) * tw * 8 + 2 * th * tw * 8
        assert res.stripes > 1
        assert res.peak_bytes <= budget
        assert peak - baseline <= budget + allowance, (
            f"{blend.value}: {peak - baseline - budget} B over a {budget} B "
            f"budget (allowance {allowance} B, tracked {res.peak_bytes} B)")


class TestStreamedPyramid:
    def test_levels_written_and_halved(self, tmp_path):
        load = make_tiles()
        gp = grid_positions(4, 4, 24)
        p = tmp_path / "m.tif"
        res = stream_compose_to_tiff(p, load, gp, (32, 32),
                                     memory_budget=64 * 1024,
                                     pyramid_levels=3)
        assert [q.name for q in res.pyramid_paths] == [
            "m.L1.tif", "m.L2.tif", "m.L3.tif"]
        h, w = res.shape
        for k, q in enumerate(res.pyramid_paths, start=1):
            with TiffReader(q) as r:
                assert (r.height, r.width) == (-(-h >> 1), -(-w >> 1))
                h, w = r.height, r.width

    def test_levels_match_block_mean_of_full_mosaic(self, tmp_path):
        """Streamed level k == downsample(level k-1 file) computed whole."""
        from repro.core.downsample import downsample

        load = make_tiles()
        gp = grid_positions(4, 4, 24)
        p = tmp_path / "m.tif"
        stream_compose_to_tiff(p, load, gp, (32, 32),
                               memory_budget=64 * 1024, pyramid_levels=2)
        prev = read_tiff(p)
        for k in (1, 2):
            expected = np.clip(
                np.rint(downsample(prev, 2)), 0, 65535).astype(np.uint16)
            got = read_tiff(pyramid_level_path(p, k))
            assert np.array_equal(got, expected)
            prev = got

    def test_disk_pyramid_serves_viewports(self, tmp_path):
        load = make_tiles()
        gp = grid_positions(4, 4, 24)
        p = tmp_path / "m.tif"
        stream_compose_to_tiff(p, load, gp, (32, 32),
                               memory_budget=64 * 1024, pyramid_levels=2)
        full = read_tiff(p)
        with DiskPyramid(p) as pyr:
            assert pyr.levels == 3
            assert pyr.level_shape(0) == full.shape
            win = pyr.render_region(10, 20, 30, 40)
            assert np.array_equal(win, full[10:40, 20:60])
            l1 = pyr.render_region(0, 0, 5, 5, level=1)
            assert np.array_equal(l1, read_tiff(pyramid_level_path(p, 1))[:5, :5])
            assert pyr.level_for_scale(1.0) == 0
            assert pyr.level_for_scale(0.5) == 1
            assert pyr.level_for_scale(0.2) == 2  # coarsest available
            with pytest.raises(ValueError):
                pyr.render_region(0, 0, 5, 5, level=3)

    def test_disk_pyramid_without_levels(self, tmp_path):
        load = make_tiles()
        gp = grid_positions(2, 2, 24)
        p = tmp_path / "m.tif"
        stream_compose_to_tiff(p, load, gp, (32, 32))
        with DiskPyramid(p) as pyr:
            assert pyr.levels == 1
            assert np.array_equal(pyr.render_region(0, 0, 4, 4),
                                  read_tiff(p)[:4, :4])

    def test_failure_unlinks_all_parts(self, tmp_path):
        calls = {"n": 0}
        inner = make_tiles()

        def load(r, c):
            calls["n"] += 1
            if calls["n"] > 10:
                raise OSError("disk died")
            return inner(r, c)

        gp = grid_positions(4, 4, 24)
        with pytest.raises(OSError):
            stream_compose_to_tiff(tmp_path / "m.tif", load, gp, (32, 32),
                                   band_rows=8, pyramid_levels=2)
        assert list(tmp_path.iterdir()) == []

    def test_publish_is_all_or_nothing(self, tmp_path):
        """After success, mosaic + every level exist; no .part remains."""
        load = make_tiles()
        gp = grid_positions(4, 4, 24)
        p = tmp_path / "m.tif"
        stream_compose_to_tiff(p, load, gp, (32, 32), pyramid_levels=2)
        names = sorted(q.name for q in tmp_path.iterdir())
        assert names == ["m.L1.tif", "m.L2.tif", "m.tif"]


class TestPyramidLevelPath:
    def test_naming(self, tmp_path):
        p = tmp_path / "mosaic.tif"
        assert pyramid_level_path(p, 0) == p
        assert pyramid_level_path(p, 2).name == "mosaic.L2.tif"
        with pytest.raises(ValueError):
            pyramid_level_path(p, -1)


class TestMosaicPyramidCacheBounds:
    """Satellite: LRU eviction order + byte ceiling for the viewer cache."""

    def make_pyramid(self, **kw):
        load = make_tiles(3, 3, 16, 16)
        gp = grid_positions(3, 3, 16)
        return MosaicPyramid(load, gp, (16, 16), levels=2, **kw)

    def test_count_bound_evicts_lru(self):
        pyr = self.make_pyramid(cache_tiles=2)
        pyr._tile_at(0, 0, 0)
        pyr._tile_at(0, 1, 0)
        pyr._tile_at(0, 0, 0)  # refresh: (0,1,0) is now LRU
        pyr._tile_at(0, 2, 0)  # evicts (0,1,0)
        fetches = pyr.tile_fetches
        pyr._tile_at(0, 0, 0)  # hit
        assert pyr.tile_fetches == fetches
        pyr._tile_at(0, 1, 0)  # was evicted: refetches
        assert pyr.tile_fetches == fetches + 1
        assert pyr.cache_evictions >= 1

    def test_byte_ceiling_is_hard(self):
        tile_bytes = 16 * 16 * 8  # downsampled tiles are float64
        pyr = self.make_pyramid(cache_tiles=1000,
                                cache_bytes=3 * tile_bytes)
        for r in range(3):
            for c in range(3):
                pyr._tile_at(r, c, 0)
                assert pyr.cache_current_bytes <= 3 * tile_bytes
        assert pyr.cache_peak_bytes <= 3 * tile_bytes
        assert pyr.cache_evictions == 6
        assert len(pyr._cache) == 3

    def test_byte_ceiling_smaller_than_tile_serves_uncached(self):
        pyr = self.make_pyramid(cache_bytes=10)
        pyr._tile_at(0, 0, 0)
        assert pyr.cache_current_bytes == 0
        assert len(pyr._cache) == 0
        pyr._tile_at(0, 0, 0)
        assert pyr.tile_fetches == 2  # load-through both times

    def test_render_region_respects_ceiling(self):
        tile_bytes = 16 * 16 * 8
        pyr = self.make_pyramid(cache_bytes=2 * tile_bytes)
        pyr.render(level=0)
        pyr.render(level=1)
        assert pyr.cache_peak_bytes <= 2 * tile_bytes

    def test_negative_cache_bytes_rejected(self):
        with pytest.raises(ValueError):
            self.make_pyramid(cache_bytes=-1)

    def test_unbounded_bytes_keeps_count_semantics(self):
        pyr = self.make_pyramid(cache_tiles=4)
        for r in range(3):
            for c in range(3):
                pyr._tile_at(r, c, 0)
        assert len(pyr._cache) == 4
