"""Coarse-to-fine PCIAM: config, equivalence, gating, fallback."""

import math

import numpy as np
import pytest

import repro.core.coarse as coarse_module
from repro.core.coarse import (
    PROVENANCE_COARSE,
    PROVENANCE_FALLBACK,
    CoarseConfig,
    coarse_forward_fft,
    coarse_pciam,
    coarse_transform_shape,
    resolve_coarse_peaks,
)
from repro.core.pciam import CcfMode, correlation_peaks, pciam
from repro.core.stitcher import Stitcher
from repro.grid.neighbors import Direction
from repro.synth import SpecimenParams, StageModel, make_synthetic_dataset
from repro.synth.specimen import generate_plate

PLATE = generate_plate(420, 420, seed=3)
H = W = 128
#: The e2e benchmark's specimen: colonies and pixel-scale granularity.
GRANULAR = SpecimenParams(fine_texture=0.0, background_texture=0.0)


def cut_pair(ty: int, tx: int, base: int = 60, plate=PLATE, size: int = H):
    """Two windows of the shared plate, I_j offset (tx, ty) from I_i."""
    img_i = plate[base : base + size, base : base + size]
    img_j = plate[base + ty : base + ty + size, base + tx : base + tx + size]
    return img_i, img_j


#: Pixel-granular specimen: every pixel independent, so the CCF surface is
#: a spike -- ~1.0 at the true offset, ~0 one pixel off it -- and there is
#: no slope for a climb to follow.  (PLATE above is smooth: its hills can
#: be climbed from a pixel or two away, which hid the case.)
N = 256
NOISE = np.random.default_rng(0).random((2 * N + 32, 2 * N + 32))
KW = dict(ccf_mode=CcfMode.EXTENDED, n_peaks=2)


def noise_pair(tx: int, ty: int):
    """Two windows of the white-noise plate, I_j offset (tx, ty) from I_i."""
    return cut_pair(ty, tx, base=16, plate=NOISE, size=N)


@pytest.fixture
def probes(monkeypatch):
    """Every full-resolution CCF probe the refinement scores, in order."""
    scored = []
    real = coarse_module.ccf_at_stats

    def spy(stats_i, stats_j, tx, ty):
        scored.append((tx, ty))
        return real(stats_i, stats_j, tx, ty)

    monkeypatch.setattr(coarse_module, "ccf_at_stats", spy)
    return scored


def probe_bound(cfg: CoarseConfig, n_peaks: int = 2) -> int:
    """Most probes one pair can cost, whatever the tiles hold.

    Contest: each of the <= 4 interpretations of each reduced peak is a
    hill (one centre probe) or a vote; the dearest hill per candidate
    spent is one centre plus one diagonal vote, ``(factor // 2 + 1)**2``
    probes for two candidates.  Climbs: at most two, each at most
    ``2 * radius`` steps of at most 8 neighbours.
    """
    interpretations = 4 * max(n_peaks, cfg.coarse_peaks)
    contest = interpretations * (cfg.factor // 2 + 1) ** 2 // 2
    return contest + 2 * (2 * cfg.radius) * 8


class TestCoarseConfig:
    def test_defaults(self):
        c = CoarseConfig()
        assert c.factor == 2
        assert c.radius == 4  # 2 * factor

    def test_explicit_radius_wins(self):
        assert CoarseConfig(search_radius=7).radius == 7

    def test_factor_one_rejected(self):
        with pytest.raises(ValueError):
            CoarseConfig(factor=1)

    @pytest.mark.parametrize("scale,factor", [(0.5, 2), (0.25, 4), (0.3, 3)])
    def test_from_scale(self, scale, factor):
        assert CoarseConfig.from_scale(scale).factor == factor

    @pytest.mark.parametrize("scale", [0.0, -0.5, 0.6, 1.0])
    def test_from_scale_rejects_out_of_range(self, scale):
        with pytest.raises(ValueError):
            CoarseConfig.from_scale(scale)

    def test_fingerprint_resolves_derived_radius(self):
        fp = CoarseConfig(factor=3).to_fingerprint()
        assert fp["factor"] == 3
        assert fp["search_radius"] == 6

    def test_transform_shape_halves(self):
        assert coarse_transform_shape((128, 128), 2) == (64, 64)
        assert coarse_transform_shape((130, 96), 4) == (33, 24)


class TestCoarseRecovery:
    @pytest.mark.parametrize("ty,tx", [(5, 94), (0, 100), (96, -4), (92, 2)])
    def test_matches_full_pciam_extended(self, ty, tx):
        img_i, img_j = cut_pair(ty, tx)
        full = pciam(img_i, img_j, ccf_mode=CcfMode.EXTENDED, n_peaks=2)
        stats: dict = {}
        c = coarse_pciam(
            img_i, img_j, CoarseConfig(), ccf_mode=CcfMode.EXTENDED,
            n_peaks=2, stats=stats,
        )
        assert (c.ty, c.tx) == (full.ty, full.tx) == (ty, tx)
        assert c.correlation == pytest.approx(full.correlation, abs=1e-9)
        assert c.provenance == PROVENANCE_COARSE
        assert stats == {"coarse_hits": 1}

    @pytest.mark.parametrize("factor", [2, 4])
    def test_matches_across_factors(self, factor):
        img_i, img_j = cut_pair(6, 98)
        c = coarse_pciam(
            img_i, img_j, CoarseConfig(factor=factor),
            ccf_mode=CcfMode.EXTENDED, n_peaks=2,
        )
        assert (c.ty, c.tx) == (6, 98)

    def test_real_transforms_match_complex(self):
        img_i, img_j = cut_pair(4, 96)
        a = coarse_pciam(img_i, img_j, CoarseConfig(),
                         ccf_mode=CcfMode.EXTENDED, n_peaks=2)
        b = coarse_pciam(img_i, img_j, CoarseConfig(),
                         ccf_mode=CcfMode.EXTENDED, n_peaks=2,
                         real_transforms=True)
        assert (a.ty, a.tx) == (b.ty, b.tx)

    def test_precomputed_coarse_spectra_match_internal(self):
        img_i, img_j = cut_pair(3, 95)
        cfg = CoarseConfig()
        cfft_i = coarse_forward_fft(img_i, cfg.factor, img_i.shape)
        cfft_j = coarse_forward_fft(img_j, cfg.factor, img_j.shape)
        r1 = coarse_pciam(img_i, img_j, cfg, ccf_mode=CcfMode.EXTENDED,
                          n_peaks=2)
        r2 = coarse_pciam(img_i, img_j, cfg, cfft_i=cfft_i, cfft_j=cfft_j,
                          ccf_mode=CcfMode.EXTENDED, n_peaks=2)
        assert (r1.ty, r1.tx, r1.correlation) == (r2.ty, r2.tx, r2.correlation)

    def test_wrong_coarse_spectrum_shape_rejected(self):
        img_i, img_j = cut_pair(3, 95)
        bad = np.zeros((H, W), dtype=complex)  # full-res, not coarse
        with pytest.raises(ValueError):
            coarse_pciam(img_i, img_j, CoarseConfig(), cfft_i=bad, cfft_j=bad)

    def test_subpixel_carries_fractional_fields(self):
        img_i, img_j = cut_pair(5, 94)
        r = coarse_pciam(img_i, img_j, CoarseConfig(),
                         ccf_mode=CcfMode.EXTENDED, n_peaks=2, subpixel=True)
        full = pciam(img_i, img_j, ccf_mode=CcfMode.EXTENDED, n_peaks=2,
                     subpixel=True)
        assert r.tx_f == pytest.approx(full.tx_f, abs=1e-9)
        assert r.ty_f == pytest.approx(full.ty_f, abs=1e-9)


class TestSubFactorOffsets:
    """Offsets the coarse grid cannot represent are hits, not fallbacks.

    An offset that is not a multiple of ``factor`` splits its coarse peak
    over two (four, when both axes are off-grid) adjacent samples with the
    summit between them.  At factor 2 the samples are equal; at 3 and 4
    the far one carries a half / a third of the near one's magnitude, so
    those rows overlap by half the tile to lift it clear of a pure-noise
    plate's floor -- where it drowns, the pair falls back, as before.
    """

    MAJOR = {2: 192, 3: 120, 4: 120}  # multiples of 12: on every grid

    @pytest.mark.parametrize("factor", [2, 3, 4])
    @pytest.mark.parametrize("geometry", ["west", "north"])
    @pytest.mark.parametrize("major_odd", [0, 1])
    @pytest.mark.parametrize("minor", [-13, -12, 12, 13])
    def test_every_parity_is_a_coarse_hit(self, factor, geometry, major_odd,
                                          minor, probes):
        major = self.MAJOR[factor] + major_odd
        tx, ty = (major, minor) if geometry == "west" else (minor, major)
        img_i, img_j = noise_pair(tx, ty)
        cfg = CoarseConfig(factor=factor)
        full = pciam(img_i, img_j, **KW)
        assert (full.tx, full.ty) == (tx, ty)
        r = coarse_pciam(img_i, img_j, cfg, **KW)
        assert r.provenance == PROVENANCE_COARSE
        assert (r.tx, r.ty, r.correlation) == (tx, ty, full.correlation)
        assert len(probes) <= probe_bound(cfg)

    def test_subpixel_estimate_equals_full_pciam(self):
        img_i, img_j = noise_pair(193, -13)
        full = pciam(img_i, img_j, subpixel=True, **KW)
        r = coarse_pciam(img_i, img_j, CoarseConfig(), subpixel=True, **KW)
        assert r.provenance == PROVENANCE_COARSE
        assert (r.tx_f, r.ty_f) == (full.tx_f, full.ty_f)


class TestConfidenceGate:
    def test_unrelated_tiles_fall_back(self, probes):
        rng = np.random.default_rng(9)
        img_i = rng.random((H, W))
        img_j = rng.random((H, W))
        full = pciam(img_i, img_j, n_peaks=2)
        for factor in (2, 3, 4):
            probes.clear()
            stats: dict = {}
            cfg = CoarseConfig(factor=factor)
            r = coarse_pciam(img_i, img_j, cfg, n_peaks=2, stats=stats)
            assert r.provenance == PROVENANCE_FALLBACK
            assert stats == {"full_fallbacks": 1}
            assert (r.ty, r.tx, r.correlation) == (
                full.ty, full.tx, full.correlation)
            # A hopeless pair is where the refinement costs most: bounded.
            assert 0 < len(probes) <= probe_bound(cfg)

    def test_peak_list_without_the_true_hill_falls_back(self):
        """The gate judges full-resolution evidence, not the peak list."""
        img_i, img_j = noise_pair(193, -13)
        cfg = CoarseConfig()
        cshape = coarse_transform_shape(img_i.shape, cfg.factor)
        peaks = correlation_peaks(
            coarse_forward_fft(img_i, cfg.factor, img_i.shape),
            coarse_forward_fft(img_j, cfg.factor, img_j.shape),
            cshape, cfg.coarse_peaks, False, None,
        )
        full = pciam(img_i, img_j, **KW)

        def resolve(peaks):
            return resolve_coarse_peaks(
                peaks, cshape, cfg, CcfMode.EXTENDED, img_i=img_i,
                img_j=img_j, fallback=lambda: pciam(img_i, img_j, **KW),
            )

        def near_truth(peak):
            _, qy, qx = peak
            return abs(qx * cfg.factor - 193) <= cfg.radius and (
                abs((qy - cshape[0]) * cfg.factor + 13) <= cfg.radius)

        assert resolve(peaks).provenance == PROVENANCE_COARSE
        doctored = [p for p in peaks if not near_truth(p)]
        assert 0 < len(doctored) < len(peaks)
        r = resolve(doctored)
        assert r.provenance == PROVENANCE_FALLBACK
        assert (r.tx, r.ty, r.correlation, r.peak_ratio) == (
            full.tx, full.ty, full.correlation, full.peak_ratio)

    def test_no_probe_below_the_sliver_floor_is_scored(self, probes):
        """Votes and climbs pass the floor the hill centres pass."""
        img_i, img_j = cut_pair(0, 100)
        # A hill centred at tx = 116 (a 12 px overlap) sampled again one
        # coarse cell further out (118): the vote points at 117.
        peaks = [(1.0, 0, 58), (0.9, 0, 59)]

        def scored(cfg):
            probes.clear()
            with pytest.raises(ValueError, match="no fallback"):
                resolve_coarse_peaks(peaks, (H // 2, W // 2), cfg,
                                     CcfMode.EXTENDED, img_i=img_i,
                                     img_j=img_j)
            return set(probes)

        assert {(116, 0), (117, 0)} <= scored(CoarseConfig())
        # 9 % of 128 px rounds up to 12: now 116 is the last offset scored.
        cfg = CoarseConfig(min_overlap_frac=0.09)
        min_px = max(2 * cfg.radius + 1, math.ceil(cfg.min_overlap_frac * W))
        assert min_px == 12
        assert {(116, 0), (115, 0)} <= scored(cfg)
        assert all(W - abs(tx) >= min_px and H - abs(ty) >= min_px
                   for tx, ty in probes)

    def test_impossible_threshold_forces_fallback(self):
        img_i, img_j = cut_pair(5, 94)
        cfg = CoarseConfig(conf_thresh=1.1)  # nothing passes
        r = coarse_pciam(img_i, img_j, cfg, ccf_mode=CcfMode.EXTENDED,
                         n_peaks=2)
        full = pciam(img_i, img_j, ccf_mode=CcfMode.EXTENDED, n_peaks=2)
        assert r.provenance == PROVENANCE_FALLBACK
        assert (r.ty, r.tx) == (full.ty, full.tx)

    def test_resolve_without_fallback_raises_on_rejection(self):
        rng = np.random.default_rng(5)
        img_i = rng.random((32, 32))
        img_j = rng.random((32, 32))
        peaks = [(1.0, 0, 0)]
        with pytest.raises(ValueError, match="no fallback"):
            resolve_coarse_peaks(
                peaks, (16, 16), config=CoarseConfig(),
                img_i=img_i, img_j=img_j,
            )


class TestMixedResolutionPlanCache:
    @staticmethod
    def rows(ledger) -> dict:
        return {
            (tuple(r["shape"]), r["kind"]): (r["hits"], r["misses"])
            for r in ledger.stats()["per_shape"]
        }

    def test_coarse_and_full_shapes_never_share_plans(self, ledger):
        img_i, img_j = cut_pair(5, 94)
        coarse_pciam(img_i, img_j, CoarseConfig(), ccf_mode=CcfMode.EXTENDED,
                     n_peaks=2)
        # Coarse-only clean pair: every transform is at 64x64.
        assert {shape for shape, _ in self.rows(ledger)} == {(64, 64)}
        # A forced fallback now adds full-resolution rows alongside.
        coarse_pciam(img_i, img_j, CoarseConfig(conf_thresh=1.1),
                     ccf_mode=CcfMode.EXTENDED, n_peaks=2)
        after = self.rows(ledger)
        assert {shape for shape, _ in after} == {(64, 64), (128, 128)}
        # Each full-resolution problem is new to the process once.
        assert all(after[key][1] == 1
                   for key in after if key[0] == (128, 128))

    def test_second_pair_hits_coarse_plans(self, ledger):
        coarse_pciam(*cut_pair(5, 94), CoarseConfig(),
                     ccf_mode=CcfMode.EXTENDED, n_peaks=2)
        before = self.rows(ledger)
        assert all(m >= 1 for _, m in before.values())
        coarse_pciam(*cut_pair(3, 96), CoarseConfig(),
                     ccf_mode=CcfMode.EXTENDED, n_peaks=2)
        after = self.rows(ledger)
        for key, (h0, m0) in before.items():
            h1, m1 = after[key]
            assert m1 == m0, f"{key} counted as new on the second pair"
            assert h1 > h0, f"{key} not counted on the second pair"


class TestCoarseNeverChangesAnAnswer:
    """Whole stitches of pixel-granular specimens, coarse against default.

    The e2e benchmark's specimen (no low-frequency texture: colonies and
    pixel-scale granularity only) at its smoke geometry.  At 348x260 with
    35 px overlaps the coarse surface of three or four pairs per grid is
    all fixed-pattern ridges with no peak near the truth: those fall
    back, and nothing else may.
    """

    #: Fallbacks of 12 pairs, measured (the gate refuses nothing it found).
    MEASURED_FALLBACKS = {0: 3, 1: 3, 2: 4}

    @pytest.mark.parametrize("seed", sorted(MEASURED_FALLBACKS))
    def test_positions_and_translations_equal_default(self, seed, tmp_path):
        ds = make_synthetic_dataset(
            tmp_path, rows=3, cols=3, tile_height=260, tile_width=348,
            overlap=0.10, seed=seed, stage=StageModel(),
            specimen=SpecimenParams(fine_texture=0.0, background_texture=0.0),
        )
        default = Stitcher().stitch(ds)
        coarse = Stitcher(coarse=True).stitch(ds)
        for d in Direction:
            assert [(r, c, t.tx, t.ty, t.correlation)
                    for r, c, t in coarse.displacements.entries(d)] == [
                   (r, c, t.tx, t.ty, t.correlation)
                   for r, c, t in default.displacements.entries(d)]
        assert np.array_equal(coarse.positions.positions,
                              default.positions.positions)
        stats = coarse.displacements.stats
        assert stats["coarse_hits"] + stats["full_fallbacks"] == 12
        assert stats["full_fallbacks"] <= self.MEASURED_FALLBACKS[seed]

    #: ``(tile shape, overlap, specimen, seed)`` where a climb once stopped
    #: at its window edge still ascending -- one pixel short of the summit
    #: (tx -4 at CCF 0.963 against -5 at 0.999) -- and the gate accepted
    #: it.  The factory stage; ``None`` is the factory specimen.
    CLIMB_CASES = {
        "smoke-default": ((260, 348), 0.10, None, 0),
        "smoke-granular": ((260, 348), 0.10, GRANULAR, 1),
        "small-granular-10": ((128, 128), 0.10, GRANULAR, 0),
        "small-granular-20": ((128, 128), 0.20, GRANULAR, 1),
    }

    @pytest.mark.parametrize("case", sorted(CLIMB_CASES))
    def test_climb_settles_on_the_summit(self, case, tmp_path):
        (h, w), overlap, specimen, seed = self.CLIMB_CASES[case]
        ds = make_synthetic_dataset(
            tmp_path, rows=3, cols=3, tile_height=h, tile_width=w,
            overlap=overlap, seed=seed, specimen=specimen,
        )
        full = Stitcher(coarse=False).stitch(ds)
        coarse = Stitcher(coarse=True).stitch(ds)
        for d in Direction:
            assert [(r, c, t.tx, t.ty)
                    for r, c, t in coarse.displacements.entries(d)] == [
                   (r, c, t.tx, t.ty)
                   for r, c, t in full.displacements.entries(d)]

    def test_default_equals_full_pciam_on_the_benchmark_geometry(
            self, tmp_path):
        """The e2e benchmark's ``paper`` dataset (3x3, 520x696, 10 %,
        its granular specimen on the ``STRUCTURE_SEED`` structure): the
        default runs coarse-to-fine there and lands where full PCIAM
        does."""
        from benchmarks.e2e.workloads import make_dataset

        ds = make_dataset("paper", 7, tmp_path)
        default = Stitcher().stitch(ds)
        full = Stitcher(coarse=False).stitch(ds)
        assert default.displacements.stats["coarse_hits"] > 0
        assert "coarse_hits" not in full.displacements.stats
        assert np.array_equal(default.positions.positions,
                              full.positions.positions)
