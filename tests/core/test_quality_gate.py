"""Registration quality gate: scoring, demotion, repair, config."""

import copy
import math
from functools import partial

import numpy as np
import pytest

from repro.core.displacement import (
    DisplacementResult,
    Translation,
    compute_grid_displacements,
)
from repro.core.pciam import CcfMode
from repro.core.peak import peak_magnitude_ratio
from repro.core.quality_gate import (
    CORRELATION_FLOOR,
    QualityConfig,
    assess_quality,
    finite_correlation,
    repair,
)
from repro.core import stitcher as stitcher_module
from repro.core.stitcher import Stitcher
from repro.grid.neighbors import Direction


def make_disp(rows=3, cols=3, corr=0.9, tx=50, ty=0, ntx=0, nty=48):
    d = DisplacementResult.empty(rows, cols)
    for r in range(rows):
        for c in range(1, cols):
            d.west[r][c] = Translation(corr, tx, ty)
    for r in range(1, rows):
        for c in range(cols):
            d.north[r][c] = Translation(corr, ntx, nty)
    return d


class TestFiniteCorrelation:
    def test_passthrough(self):
        assert finite_correlation(0.7) == 0.7
        assert finite_correlation(-0.3) == -0.3

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_clamps_non_finite(self, bad):
        assert finite_correlation(bad) == CORRELATION_FLOOR


class TestPeakMagnitudeRatio:
    def test_decisive_peak(self):
        assert peak_magnitude_ratio([10.0, 2.0]) == 5.0

    def test_single_peak_is_none(self):
        assert peak_magnitude_ratio([10.0]) is None
        assert peak_magnitude_ratio([]) is None

    def test_zero_runner_up(self):
        assert peak_magnitude_ratio([10.0, 0.0]) == float("inf")


class TestQualityConfig:
    def test_defaults_follow_feabas(self):
        cfg = QualityConfig()
        assert cfg.conf_thresh == 0.33
        assert cfg.residue_mode == "none"
        assert cfg.residue_len == 2.0

    @pytest.mark.parametrize(
        "kw",
        [
            {"residue_mode": "hampel"},
            {"conf_thresh": 1.5},
            {"min_peak_ratio": -1.0},
            {"residue_len": 0.0},
            {"max_irls_iterations": 0},
            {"gate_weight": 0.0},
            # A model from no pairs is NaN; phase 2 died on it.
            {"min_valid_for_model": 0},
            # A non-positive radius gates every pair.
            {"stage_radius": -1.0},
            {"stage_radius": 0.0},
        ],
    )
    def test_rejects_bad_values(self, kw):
        with pytest.raises(ValueError):
            QualityConfig(**kw)


class TestAssessQuality:
    def test_clean_grid_nothing_gates(self):
        a = assess_quality(make_disp(), QualityConfig())
        assert a.gated_pairs == 0
        assert all(q.reasons == () for q in a.pairs.values())
        # Confidence is exactly the correlation, so the solvers' weights
        # reduce to the legacy expressions.
        assert all(q.confidence == 0.9 for q in a.pairs.values())

    def test_low_correlation_gates(self):
        d = make_disp()
        d.west[1][1] = Translation(0.05, 50, 0)
        a = assess_quality(d, QualityConfig())
        q = a.quality("west", 1, 1)
        assert q.gated
        assert "low_correlation" in q.reasons
        assert a.gated_pairs == 1

    def test_non_finite_correlation_gates_with_reason(self):
        d = make_disp()
        d.west[1][1] = Translation(float("nan"), 50, 0)
        a = assess_quality(d, QualityConfig())
        q = a.quality("west", 1, 1)
        assert q.gated
        assert "non_finite" in q.reasons
        assert q.confidence == CORRELATION_FLOOR

    def test_stage_outlier_gates_despite_high_correlation(self):
        # A confidently-wrong match: good correlation, offset far from
        # the stage model -- the case a confidence threshold cannot see.
        d = make_disp(rows=4, cols=4)
        d.west[2][2] = Translation(0.95, 50 - 40, 30)
        a = assess_quality(d, QualityConfig())
        q = a.quality("west", 2, 2)
        assert q.gated
        assert q.reasons == ("stage_outlier",)
        assert q.stage_deviation > a.stage_model["west"].radius

    def test_small_jitter_does_not_gate(self):
        d = make_disp(rows=4, cols=4)
        d.west[2][2] = Translation(0.9, 53, -2)  # within the 8 px floor
        a = assess_quality(d, QualityConfig())
        assert not a.quality("west", 2, 2).gated

    def test_explicit_stage_radius(self):
        d = make_disp(rows=4, cols=4)
        d.west[2][2] = Translation(0.9, 53, -2)
        a = assess_quality(d, QualityConfig(stage_radius=1.0))
        assert a.quality("west", 2, 2).gated

    def test_peak_ratio_gate(self):
        d = make_disp()
        d.west[1][1] = Translation(0.9, 50, 0, peak_ratio=1.01)
        d.west[1][2] = Translation(0.9, 50, 0, peak_ratio=2.0)
        a = assess_quality(d, QualityConfig(min_peak_ratio=1.1))
        assert a.quality("west", 1, 1).gated
        assert "low_peak_ratio" in a.quality("west", 1, 1).reasons
        assert not a.quality("west", 1, 2).gated

    def test_missing_peak_ratio_passes_gate(self):
        # n_peaks=1 runs and pre-gate journals carry no ratio.
        a = assess_quality(make_disp(), QualityConfig(min_peak_ratio=2.0))
        assert a.gated_pairs == 0

    def test_no_model_below_min_valid(self):
        d = DisplacementResult.empty(2, 2)
        d.west[0][1] = Translation(0.9, 50, 0)
        d.west[1][1] = Translation(0.9, 50, 0)
        a = assess_quality(d, QualityConfig(min_valid_for_model=3))
        assert "west" not in a.stage_model
        # Nominal fallback still exists for demotion targets.
        assert a.nominal_translation("west") == (0.0, 50.0)

    def test_nominal_translation_order_is_dy_dx(self):
        a = assess_quality(make_disp(), QualityConfig())
        assert a.nominal_translation("west") == (0.0, 50.0)
        assert a.nominal_translation("north") == (48.0, 0.0)

    def test_report_is_json_able(self):
        import json

        d = make_disp()
        d.west[1][1] = Translation(0.05, 50, 0)
        a = assess_quality(d, QualityConfig())
        rep = a.report()
        json.dumps(rep)
        assert rep["pair_count"] == 12
        assert rep["gated_pairs"] == 1
        assert rep["gate_reasons"] == {"low_correlation": 1}
        assert "west" in rep["stage_model"]

    def test_empty_grid(self):
        a = assess_quality(DisplacementResult.empty(1, 1), QualityConfig())
        assert a.pairs == {}
        assert a.gated_pairs == 0
        assert a.report()["pair_count"] == 0

    def test_all_non_finite_direction_cannot_demote(self):
        # No finite translation to demote onto: pairs keep their
        # measurements (gated=False) but carry the failure reasons.
        d = DisplacementResult.empty(1, 3)
        d.west[0][1] = Translation(float("nan"), 0, 0, tx_f=float("nan"), ty_f=float("nan"))
        d.west[0][2] = Translation(float("nan"), 0, 0, tx_f=float("nan"), ty_f=float("nan"))
        a = assess_quality(d, QualityConfig())
        for q in a.pairs.values():
            assert not q.gated
            assert "non_finite" in q.reasons


class TestRepair:
    """``refine``: gated pairs re-estimated from the gate's stage model."""

    def _clean_disp(self, dataset, subpixel=False):
        return compute_grid_displacements(
            dataset.load, dataset.rows, dataset.cols,
            ccf_mode=CcfMode.EXTENDED, n_peaks=2, subpixel=subpixel,
        )

    def _repair(self, disp, dataset, subpixel=False):
        return repair(disp, assess_quality(disp, QualityConfig()),
                      dataset.load, subpixel=subpixel)

    def test_clean_grid_untouched(self, dataset_4x4):
        disp = self._clean_disp(dataset_4x4)
        before = [disp.entries(d) for d in Direction]
        assert self._repair(disp, dataset_4x4) == (0, 0)
        assert [disp.entries(d) for d in Direction] == before

    def test_stage_model_per_direction(self, dataset_4x4):
        """The one model repair climbs from: the gate's, per direction."""
        model = assess_quality(self._clean_disp(dataset_4x4)).stage_model
        assert set(model) == {"west", "north"}
        assert 40 < model["west"].median_tx < 64  # ~ (1 - overlap) * 64
        assert 40 < model["north"].median_ty < 64
        assert model["west"].radius >= 8.0

    def test_repairs_injected_garbage(self, dataset_4x4):
        disp = self._clean_disp(dataset_4x4)
        truth = disp.west[2][2]
        disp.west[2][2] = Translation(-0.2, 5, 40)  # garbage, low confidence
        assert self._repair(disp, dataset_4x4) == (1, 0)
        got = disp.west[2][2]
        assert abs(got.tx - truth.tx) <= 1 and abs(got.ty - truth.ty) <= 1
        assert got.correlation >= QualityConfig().conf_thresh

    def test_repairs_outlier_with_high_correlation(self, dataset_4x4):
        """An edge can be confidently wrong (periodic texture); the stage
        model gates it by its deviation, and repair measures it again."""
        disp = self._clean_disp(dataset_4x4)
        truth = disp.north[2][1]
        disp.north[2][1] = Translation(0.95, truth.tx + 30, truth.ty - 25)
        assert self._repair(disp, dataset_4x4) == (1, 0)
        got = disp.north[2][1]
        assert abs(got.tx - truth.tx) <= 1 and abs(got.ty - truth.ty) <= 1

    def test_repaired_pair_carries_subpixel_estimate(self, dataset_4x4):
        disp = self._clean_disp(dataset_4x4, subpixel=True)
        truth = disp.west[2][2]
        disp.west[2][2] = Translation(-0.2, 5, 40, 5.0, 40.0)
        assert self._repair(disp, dataset_4x4, subpixel=True) == (1, 0)
        got = disp.west[2][2]
        assert got.tx_f is not None and got.ty_f is not None
        assert abs(got.tx_f - truth.fx) <= 1 and abs(got.ty_f - truth.fy) <= 1

    def test_native_tiles_repair_identically(self, dataset_4x4):
        """The stitcher hands repair the stored uint16 tiles: float64 holds
        every sample exactly, so the repaired translations are the ones
        float64 tiles give, bit for bit."""
        kw = dict(ccf_mode=CcfMode.PAPER4, n_peaks=1, subpixel=True)
        measured = compute_grid_displacements(
            dataset_4x4.load, dataset_4x4.rows, dataset_4x4.cols, **kw)
        assessment = assess_quality(measured, QualityConfig())
        native = partial(dataset_4x4.load, dtype=None)
        assert native(0, 0).dtype == np.uint16
        repaired = []
        for load in (dataset_4x4.load, native):
            disp = copy.deepcopy(measured)
            counts = repair(disp, assessment, load, subpixel=True)
            repaired.append((counts, [disp.entries(d) for d in Direction]))
        assert repaired[0][0][0] > 0
        assert repaired[0] == repaired[1]

    def test_direction_without_model_passes_through(self):
        """Too few trusted pairs: no model to climb from, so nothing is
        repaired and the gated pairs keep their measurements."""
        d = DisplacementResult.empty(1, 3)
        d.west[0][1] = Translation(-0.9, 1, 1)
        d.west[0][2] = Translation(-0.8, 2, 2)
        assessment = assess_quality(d, QualityConfig())
        assert "west" not in assessment.stage_model
        assert assessment.gated_pairs == 2

        def no_reads(row, col):
            raise AssertionError("repair read a tile it cannot repair")

        before = d.entries(Direction.WEST)
        assert repair(d, assessment, no_reads) == (0, 2)
        assert d.entries(Direction.WEST) == before


class TestStitcherRefine:
    def test_refine_option_in_stitcher(self, dataset_4x4):
        res = Stitcher(refine=True).stitch(dataset_4x4)
        assert res.stats["refined_pairs"] == 0
        assert res.stats["quality_report"]["gated_pairs"] == 0
        assert res.position_errors().max() == 0.0

    def test_refine_rescues_paper4_sign_folding(self, dataset_4x4):
        """PAPER4 folds negative jitter onto the wrong sign; the gate's
        stage model catches those outliers and repair re-measures them."""
        kw = dict(ccf_mode=CcfMode.PAPER4, n_peaks=1)
        plain = Stitcher(**kw).stitch(dataset_4x4)
        refined = Stitcher(**kw, refine=True).stitch(dataset_4x4)
        assert refined.stats["refined_pairs"] > 0
        assert plain.position_errors().max() > 50
        assert refined.position_errors().max() <= 3.16

    def test_stitcher_repairs_from_native_tiles(self, dataset_4x4,
                                                monkeypatch):
        seen = []

        def spy(disp, assessment, load_tile, subpixel=False):
            seen.append(load_tile(0, 0).dtype)
            return repair(disp, assessment, load_tile, subpixel)

        monkeypatch.setattr(stitcher_module, "repair", spy)
        Stitcher(ccf_mode=CcfMode.PAPER4, n_peaks=1,
                 refine=True).stitch(dataset_4x4)
        assert seen == [np.uint16]

    def test_repaired_pairs_carry_subpixel_estimates(self, dataset_4x4):
        res = Stitcher(ccf_mode=CcfMode.PAPER4, n_peaks=1, subpixel=True,
                       refine=True).stitch(dataset_4x4)
        assert res.stats["refined_pairs"] > 0
        for d in Direction:
            for _, _, t in res.displacements.entries(d):
                assert t.tx_f is not None and t.ty_f is not None
