"""Rectangle-statistics CCF vs the direct Pearson scan, on both summaries.

``ccf_at_stats`` must reproduce ``ccf_at`` to 1e-9 on every overlap the
CCF contest can present (the statistics path evaluates the same Pearson r
in a different summation order), and the degenerate sentinels (empty
overlap, constant tile) must match *exactly* -- they decide contest
outcomes.  ``TileStats`` keeps a summed-area table below
``MARGINAL_MIN_TILE_PIXELS`` and row/column marginals from it up; every
case here runs on both (forced through the constant), and ``TestThreshold``
checks the choice itself one tile either side of it.
"""

import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import tilestats
from repro.core.ccf import ccf_at, overlap_views, subpixel_refine
from repro.core.pciam import pciam
from repro.core.tilestats import TileStats, ccf_at_stats, subpixel_refine_stats
from repro.fftlib.plans import TransformKind
from repro.synth.specimen import generate_plate

PLATE = generate_plate(260, 260, seed=3)
#: Room for tiles either side of the threshold (256 px).
BIG_PLATE = generate_plate(300, 300, seed=3)
THRESHOLD = tilestats.MARGINAL_MIN_TILE_PIXELS
#: Values of the size constant that force each summary on any tile.
SUMMARIES = {"table": 1 << 62, "marginal": 0}


@contextmanager
def forced(summary: str):
    saved = tilestats.MARGINAL_MIN_TILE_PIXELS
    tilestats.MARGINAL_MIN_TILE_PIXELS = SUMMARIES[summary]
    try:
        yield
    finally:
        tilestats.MARGINAL_MIN_TILE_PIXELS = saved


def each_summary():
    """Yield once under each summary (test ids stay one per case)."""
    for summary in SUMMARIES:
        with forced(summary):
            yield summary


def cut_pair(ty, tx, size=80, base=40, plate=PLATE):
    return (
        plate[base : base + size, base : base + size],
        plate[base + ty : base + ty + size, base + tx : base + tx + size],
    )


def direct(px, y0, y1, x0, x1):
    view = px[y0:y1, x0:x1]
    return view.sum(), (view**2).sum()


class TestRect:
    def test_rect_matches_direct_sums(self):
        rng = np.random.default_rng(17)
        tile = rng.normal(size=(33, 41))
        for _ in each_summary():
            s = TileStats(tile)
            px = s.pixels  # mean-shifted copy the summary was built from
            for _ in range(50):
                y0, y1 = sorted(rng.integers(0, 34, size=2))
                x0, x1 = sorted(rng.integers(0, 42, size=2))
                got_sum, got_sq = s.rect(y0, y1, x0, x1)
                want_sum, want_sq = direct(px, y0, y1, x0, x1)
                assert got_sum == pytest.approx(want_sum, abs=1e-9)
                assert got_sq == pytest.approx(want_sq, abs=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(
        h=st.integers(1, 48), w=st.integers(1, 48),
        offset=st.sampled_from([0.0, 1000.0, 30000.0]),
        corner=st.sampled_from([None, "tl", "tr", "bl", "br"]),
        data=st.data(),
    )
    def test_rect_property_corner_and_interior(self, h, w, offset, corner,
                                               data):
        """Corner-anchored (what overlaps are) and interior rectangles,
        every decomposition the marginal summary can pick."""
        seed = data.draw(st.integers(0, 2**32 - 1))
        tile = offset + np.random.default_rng(seed).normal(size=(h, w)) * 50
        y0, y1 = sorted(data.draw(st.lists(st.integers(0, h), min_size=2,
                                           max_size=2)))
        x0, x1 = sorted(data.draw(st.lists(st.integers(0, w), min_size=2,
                                           max_size=2)))
        if corner is not None:
            y0, y1 = (0, y1) if corner[0] == "t" else (y0, h)
            x0, x1 = (0, x1) if corner[1] == "l" else (x0, w)
        for _ in each_summary():
            s = TileStats(tile)
            want_sum, want_sq = direct(s.pixels, y0, y1, x0, x1)
            got_sum, got_sq = s.rect(y0, y1, x0, x1)
            tol = 1e-9 + 1e-12 * s.sq_total
            assert got_sum == pytest.approx(want_sum, abs=tol)
            assert got_sq == pytest.approx(want_sq, abs=tol)

    def test_rejects_non_2d(self):
        for _ in each_summary():
            with pytest.raises(ValueError, match="2-D"):
                TileStats(np.zeros(8))

    def test_nbytes_counts_pixels_and_table(self):
        """Table: 8 B/px pixels + 16 B/px padded table.  Marginals: the
        pixels + two padded complex prefixes, O(h+w)."""
        with forced("table"):
            assert TileStats(np.zeros((16, 20))).nbytes == \
                16 * 20 * 8 + 17 * 21 * 16
        with forced("marginal"):
            assert TileStats(np.zeros((16, 20))).nbytes == \
                16 * 20 * 8 + (17 + 21) * 16

    def test_paper_tile_holds_pixels_plus_linear_bytes(self):
        """A 696x520 uint16 tile's statistics hold the float64 pixels and
        O(h+w) more, and building them never needs a second float64 copy
        (the mean is subtracted in place) -- measured by tracemalloc, not
        by ``nbytes``."""
        h, w = 520, 696
        tile = np.random.default_rng(5).integers(
            0, 65535, size=(h, w), dtype=np.uint16
        )
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            stats = TileStats(tile)
            now, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert stats.pixels.nbytes == h * w * 8
        assert now - before <= h * w * 8 + 64 * (h + w)
        assert peak - before <= h * w * 8 + 64 * (h + w)


class TestThreshold:
    @pytest.mark.parametrize("shape,summary", [
        ((255, 257), "table"),      # 65 535 px: one below
        ((256, 256), "marginal"),   # 65 536 px: at the threshold
    ])
    def test_summary_follows_pixel_count(self, shape, summary):
        assert THRESHOLD == 256 * 256
        h, w = shape
        s = TileStats(BIG_PLATE[:h, :w])
        linear = h * w * 8 + (h + w + 2) * 16
        assert (s.nbytes == linear) == (summary == "marginal")
        with forced(summary):
            assert TileStats(BIG_PLATE[:h, :w]).nbytes == s.nbytes

    @pytest.mark.parametrize("size", [255, 256])
    def test_probes_match_direct_either_side(self, size):
        img1, img2 = cut_pair(4, 4, size=size, base=20, plate=BIG_PLATE)
        s1, s2 = TileStats(img1), TileStats(img2)
        for tx, ty in [(4, 4), (size - 30, -3), (-(size - 25), 2),
                       (3, size - 28), (size // 2, size // 2)]:
            assert ccf_at_stats(s1, s2, tx, ty) == pytest.approx(
                ccf_at(img1, img2, tx, ty), abs=1e-9
            )


class TestCcfAtStats:
    @settings(max_examples=40, deadline=None)
    @given(
        ty=st.integers(-70, 70),
        tx=st.integers(-70, 70),
    )
    def test_matches_direct_pearson(self, ty, tx):
        img1, img2 = cut_pair(5, 60)
        want = ccf_at(img1, img2, tx, ty)
        v1, v2 = overlap_views(img1, img2, tx, ty)
        for _ in each_summary():
            got = ccf_at_stats(TileStats(img1), TileStats(img2), tx, ty)
            if v1.size and min(v1.std(), v2.std()) > 1e-6:
                # Textured overlap: the two arithmetic paths must agree
                # tightly.
                assert got == pytest.approx(want, abs=1e-9)
            else:
                # Degenerate overlap (empty, or a constant background strip
                # of the plate): both paths must score a guaranteed contest
                # loser.  The statistics path returns the -1.0 sentinel
                # deterministically; the direct path returns -1.0 or the
                # Pearson r of pure rounding noise (~1e-15), depending on
                # whether the constant view's mean reconstructs bit-exactly.
                assert got == -1.0
                assert want == -1.0 or abs(want) < 1e-6

    def test_matches_on_random_noise(self):
        rng = np.random.default_rng(29)
        img1 = rng.normal(size=(48, 56))
        img2 = rng.normal(size=(48, 56))
        for _ in each_summary():
            s1, s2 = TileStats(img1), TileStats(img2)
            for tx, ty in [(0, 0), (40, 3), (-40, -3), (10, -44), (-55, 47)]:
                assert ccf_at_stats(s1, s2, tx, ty) == pytest.approx(
                    ccf_at(img1, img2, tx, ty), abs=1e-9
                )

    def test_empty_overlap_is_minus_one(self):
        img1, img2 = cut_pair(0, 0, size=32)
        for _ in each_summary():
            s1, s2 = TileStats(img1), TileStats(img2)
            for tx, ty in [(32, 0), (-32, 0), (0, 32), (0, -32), (100, 100)]:
                assert ccf_at_stats(s1, s2, tx, ty) == -1.0
                assert ccf_at(img1, img2, tx, ty) == -1.0

    def test_constant_tile_is_exactly_minus_one(self):
        """Globally constant tiles must hit the -1.0 sentinel bit-for-bit.

        Mean-shifting makes a constant tile's pixels exactly zero, so its
        rectangle variance is exactly 0.0 -- no rounding-noise escape.
        """
        flat = np.full((40, 40), 37.5)
        textured = cut_pair(0, 0, size=40)[0]
        for _ in each_summary():
            s_flat, s_tex = TileStats(flat), TileStats(textured)
            assert ccf_at_stats(s_flat, s_tex, 5, 5) == -1.0
            assert ccf_at_stats(s_tex, s_flat, 5, 5) == -1.0
            assert ccf_at_stats(s_flat, s_flat, 5, 5) == -1.0
        assert ccf_at(flat, textured, 5, 5) == -1.0

    def test_constant_rectangle_inside_textured_tile(self):
        """A locally flat overlap inside an otherwise textured tile."""
        img1 = cut_pair(0, 0, size=64)[0].copy()
        # 0.5 is binary-exact under mean reconstruction, so the *direct*
        # path's constant-view sentinel fires too (it relies on the view
        # minus its recomputed mean being exactly zero).
        img1[:16, :16] = 0.5
        img2 = cut_pair(0, 0, size=64)[1]
        # At (-48, -48) the overlap in img1 is exactly the flat 16x16
        # patch: both paths must return the degenerate sentinel.
        want = ccf_at(img1, img2, -48, -48)
        assert want == -1.0
        for _ in each_summary():
            got = ccf_at_stats(TileStats(img1), TileStats(img2), -48, -48)
            assert got == -1.0

    def test_clamped_to_unit_interval(self):
        img = cut_pair(0, 0, size=48)[0]
        for _ in each_summary():
            s = TileStats(img)
            assert ccf_at_stats(s, s, 0, 0) == 1.0


class TestSubpixelStats:
    @pytest.mark.parametrize("ty,tx", [(4, 58), (0, 62), (-3, 55)])
    def test_matches_direct_refine(self, ty, tx):
        img1, img2 = cut_pair(ty, tx)
        dx, dy = subpixel_refine(img1, img2, tx, ty)
        for _ in each_summary():
            sx, sy = subpixel_refine_stats(
                TileStats(img1), TileStats(img2), tx, ty
            )
            assert sx == pytest.approx(dx, abs=1e-6)
            assert sy == pytest.approx(dy, abs=1e-6)


class TestC2rPlanCache:
    def test_pciam_real_inverse_hits_plan_cache(self, ledger):
        """The real inverse is one C2R transform keyed by the *spatial*
        shape: the first pair's is the shape's miss, the next pair's a
        hit."""
        img_i, img_j = cut_pair(5, 60)

        def c2r():
            (row,) = [r for r in ledger.stats()["per_shape"]
                      if r["kind"] == TransformKind.C2R.value]
            return tuple(row["shape"]), row["hits"], row["misses"]

        r1 = pciam(img_i, img_j, real_transforms=True)
        assert c2r() == (img_i.shape, 0, 1)
        r2 = pciam(img_i, img_j, real_transforms=True)
        assert c2r() == (img_i.shape, 1, 1)
        assert (r1.tx, r1.ty) == (r2.tx, r2.ty)
