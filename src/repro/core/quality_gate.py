"""Registration quality gate: per-pair confidence scoring and demotion.

The paper's phase 2 trusts every PCIAM correlation equally, so a handful
of garbage pairs -- sparse overlap, dust, saturation, blank tiles -- can
distort the entire solved grid.  This module scores every pairwise
displacement on three independent signals and decides, *before* the
global solve, which pairs are trustworthy:

- **correlation**: the winning CCF value phase 1 already attaches to
  every translation (feabas rejects below ``conf_thresh: 0.33``);
- **peak sharpness**: the ratio of the strongest phase-correlation peak
  to the runner-up (a diffuse correlation surface means the peak is
  noise, however good its CCF happens to be);
- **stage-model deviation**: distance of the translation from the
  per-direction median of the trusted translations (the stage's
  repeatable step) -- catches confidently-wrong matches such as a
  content shift, which correlate well at the *wrong* offset.

A pair failing any gate is *demoted*, not dropped: the edge table of
:mod:`repro.core.global_opt` replaces its measurement with the stage
model's nominal prediction and the solvers give it a token weight, so
the graph stays connected but the bad measurement stops pulling on its
neighbours.
Ungated pairs keep their exact correlation as the confidence score, so
a clean grid solves bit-identically to the ungated code path.

Opt-in, :func:`repair` (``refine``, MIST's refinement) then measures
the demoted pairs again, climbing each one's CCF from the same stage
model's step; it reads their tiles again, so it stays off by default.

The damped side of the same coin -- Huber/threshold IRLS re-weighting of
large residuals during the least-squares solve -- is configured here
(``residue_mode``, after feabas's ``residue_mode: huber`` +
``residue_len``) and executed by
:func:`repro.core.global_opt._least_squares_positions`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, partial

import numpy as np

from repro.core.coarse import climb
from repro.core.displacement import DisplacementResult, Translation
from repro.core.tilestats import TileStats, ccf_at_stats, subpixel_refine_stats
from repro.grid.neighbors import Direction

#: Confidence assigned to a non-finite correlation (NaN/inf CCF values
#: come out of degenerate overlaps); the floor keeps every derived
#: weight finite.
CORRELATION_FLOOR = -1.0

#: Valid IRLS residue-damping modes (see ``QualityConfig.residue_mode``).
RESIDUE_MODES = ("none", "huber", "threshold")


def finite_correlation(corr: float) -> float:
    """``corr`` as a float, with non-finite values clamped to the floor."""
    c = float(corr)
    return c if math.isfinite(c) else CORRELATION_FLOOR


@dataclass(frozen=True)
class QualityConfig:
    """Gating and robust-solve parameters (defaults follow feabas).

    ``conf_thresh``
        Pairs whose CCF correlation falls below this are demoted
        (feabas: ``conf_thresh: 0.33``).
    ``min_peak_ratio``
        Minimum first-to-second phase-correlation peak-magnitude ratio.
        The ratio is always >= 1 when defined, so the default ``1.0``
        never gates; raise to ~1.05-1.2 to reject diffuse surfaces.
        Pairs without a recorded ratio (``n_peaks == 1`` runs, resumed
        journals from older versions, repaired pairs) pass this gate.
    ``stage_radius``
        Stage repeatability radius in pixels: translations deviating
        from the per-direction median by more than this are demoted.
        ``None`` derives it from the trusted translations themselves
        (``max(8, 5 x MAD)``, wide enough that clean stage jitter never
        gates).  It is also how far repair may climb from the median.
    ``min_valid_for_model``
        Minimum trusted pairs per direction before a stage model is fit
        (below it, the deviation gate is off for that direction and its
        gated pairs are not repaired).
    ``residue_mode``
        IRLS damping of large post-solve residuals in the
        least-squares solver: ``"none"`` (single solve, the legacy
        behaviour), ``"huber"`` (weights scale as ``residue_len / |r|``
        beyond ``residue_len``), or ``"threshold"`` (edges with
        ``|r| > residue_len`` collapse to a token weight).
    ``residue_len``
        The Huber delta / threshold cutoff in pixels (feabas:
        ``residue_len: 2``).
    ``max_irls_iterations`` / ``irls_tol``
        IRLS loop bounds: stop after this many re-solves or when the
        largest per-edge damping change falls below the tolerance.
    ``gate_weight``
        Least-squares weight of a demoted (nominal-prior) edge --
        strong enough to keep the graph numerically connected, weak
        enough that measured edges dominate.
    ``refine``
        Repair gated pairs before the solve (:func:`repair`).
    """

    conf_thresh: float = 0.33
    min_peak_ratio: float = 1.0
    stage_radius: float | None = None
    min_valid_for_model: int = 3
    residue_mode: str = "none"
    residue_len: float = 2.0
    max_irls_iterations: int = 50
    irls_tol: float = 1e-6
    gate_weight: float = 1e-3
    refine: bool = False

    def __post_init__(self) -> None:
        if self.residue_mode not in RESIDUE_MODES:
            raise ValueError(
                f"unknown residue_mode {self.residue_mode!r} "
                f"(use one of {', '.join(RESIDUE_MODES)})"
            )
        if not -1.0 <= self.conf_thresh <= 1.0:
            raise ValueError(
                f"conf_thresh must be in [-1, 1], got {self.conf_thresh}"
            )
        if self.stage_radius is not None and self.stage_radius <= 0:
            raise ValueError(
                f"stage_radius must be > 0, got {self.stage_radius}"
            )
        if self.min_valid_for_model < 1:
            raise ValueError(
                f"min_valid_for_model must be >= 1, "
                f"got {self.min_valid_for_model}"
            )
        if self.min_peak_ratio < 0:
            raise ValueError(
                f"min_peak_ratio must be >= 0, got {self.min_peak_ratio}"
            )
        if self.residue_len <= 0:
            raise ValueError(
                f"residue_len must be > 0, got {self.residue_len}"
            )
        if self.max_irls_iterations < 1:
            raise ValueError(
                f"max_irls_iterations must be >= 1, "
                f"got {self.max_irls_iterations}"
            )
        if self.gate_weight <= 0:
            raise ValueError(
                f"gate_weight must be > 0, got {self.gate_weight}"
            )


@dataclass(frozen=True)
class StageModelFit:
    """Per-direction repeatable stage step fit from trusted pairs."""

    median_ty: float
    median_tx: float
    radius: float
    samples: int

    def deviation(self, t: Translation) -> float:
        """Chebyshev distance of a translation from the model."""
        return max(abs(t.fy - self.median_ty), abs(t.fx - self.median_tx))

    def to_dict(self) -> dict:
        return {
            "median_ty": self.median_ty,
            "median_tx": self.median_tx,
            "radius": self.radius,
            "samples": self.samples,
        }


@dataclass(frozen=True)
class PairQuality:
    """Quality verdict for one pairwise displacement.

    ``confidence`` equals the (finite-clamped) correlation -- the
    solvers derive their weights from it, so an ungated pair is weighted
    exactly as the legacy code weighted its raw correlation.
    ``reasons`` is empty for a trusted pair; a non-empty tuple names
    every gate the pair failed (``low_correlation``, ``low_peak_ratio``,
    ``stage_outlier``, ``non_finite``).  ``gated`` is True when the pair
    is demoted to a nominal-prior edge (reasons present *and* a nominal
    replacement exists).
    """

    direction: str
    row: int
    col: int
    confidence: float
    peak_ratio: float | None
    stage_deviation: float | None
    gated: bool
    reasons: tuple[str, ...] = ()


@dataclass
class QualityAssessment:
    """Every pair's quality verdict plus the per-direction stage models."""

    config: QualityConfig
    pairs: dict = field(default_factory=dict)  # (dir, r, c) -> PairQuality
    stage_model: dict = field(default_factory=dict)  # dir -> StageModelFit
    #: Per-direction nominal (dy, dx) used for demoted edges; present
    #: even when the stage model could not be fit (falls back to the
    #: median over all pairs in the direction).
    nominal: dict = field(default_factory=dict)

    def quality(self, direction, row: int, col: int) -> PairQuality | None:
        key = (getattr(direction, "value", direction), int(row), int(col))
        return self.pairs.get(key)

    def nominal_translation(self, direction) -> tuple[float, float] | None:
        """Nominal ``(dy, dx)`` for a direction, or ``None``."""
        return self.nominal.get(getattr(direction, "value", direction))

    @property
    def gated_pairs(self) -> int:
        return sum(1 for q in self.pairs.values() if q.gated)

    def gate_reasons(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for q in self.pairs.values():
            for reason in q.reasons:
                out[reason] = out.get(reason, 0) + 1
        return out

    def report(self) -> dict:
        """JSON-able summary for ``StitchResult.stats["quality_report"]``."""
        confidences = [q.confidence for q in self.pairs.values()]
        return {
            "conf_thresh": self.config.conf_thresh,
            "min_peak_ratio": self.config.min_peak_ratio,
            "residue_mode": self.config.residue_mode,
            "residue_len": self.config.residue_len,
            "pair_count": len(self.pairs),
            "gated_pairs": self.gated_pairs,
            "gate_reasons": self.gate_reasons(),
            "min_confidence": min(confidences) if confidences else 0.0,
            "median_confidence": (
                float(np.median(confidences)) if confidences else 0.0
            ),
            "stage_model": {
                d: m.to_dict() for d, m in self.stage_model.items()
            },
            "irls_iterations": 0,
            "residue_damped_edges": 0,
        }


def _fit_stage_model(
    entries: list[tuple[int, int, Translation]], cfg: QualityConfig
) -> StageModelFit | None:
    """Median step + repeatability radius from the trusted translations."""
    good = [
        t for _, _, t in entries
        if finite_correlation(t.correlation) >= cfg.conf_thresh
    ]
    if len(good) < cfg.min_valid_for_model:
        return None
    tys = np.array([t.fy for t in good], dtype=np.float64)
    txs = np.array([t.fx for t in good], dtype=np.float64)
    med_ty, med_tx = float(np.median(tys)), float(np.median(txs))
    if cfg.stage_radius is not None:
        radius = float(cfg.stage_radius)
    else:
        mad = max(
            float(np.median(np.abs(tys - med_ty))),
            float(np.median(np.abs(txs - med_tx))),
        )
        radius = max(8.0, 5.0 * mad)
    return StageModelFit(
        median_ty=med_ty, median_tx=med_tx, radius=radius, samples=len(good)
    )


def assess_quality(
    disp: DisplacementResult, cfg: QualityConfig | None = None
) -> QualityAssessment:
    """Score every pair of a phase-1 result against the quality gates.

    Pure function of the displacement result: no tile pixels are read,
    so the assessment is cheap enough to run on every stitch.
    """
    cfg = cfg or QualityConfig()
    assessment = QualityAssessment(config=cfg)
    for direction in (Direction.WEST, Direction.NORTH):
        entries = disp.entries(direction)
        if not entries:
            continue
        model = _fit_stage_model(entries, cfg)
        if model is not None:
            assessment.stage_model[direction.value] = model
            assessment.nominal[direction.value] = (
                model.median_ty, model.median_tx
            )
        else:
            # No trustworthy model: fall back to the median over *all*
            # pairs so non-finite pairs still have a demotion target.
            tys = [t.fy for _, _, t in entries if math.isfinite(t.fy)]
            txs = [t.fx for _, _, t in entries if math.isfinite(t.fx)]
            if tys and txs:
                assessment.nominal[direction.value] = (
                    float(np.median(tys)), float(np.median(txs))
                )
        nominal = assessment.nominal.get(direction.value)
        for r, c, t in entries:
            raw = float(t.correlation)
            confidence = finite_correlation(raw)
            reasons: list[str] = []
            if not math.isfinite(raw):
                reasons.append("non_finite")
            if confidence < cfg.conf_thresh:
                reasons.append("low_correlation")
            ratio = getattr(t, "peak_ratio", None)
            if ratio is not None:
                ratio = float(ratio)
                if math.isfinite(ratio) and ratio < cfg.min_peak_ratio:
                    reasons.append("low_peak_ratio")
            deviation = None
            if model is not None:
                deviation = model.deviation(t)
                if not math.isfinite(deviation):
                    deviation = float("inf")
                if deviation > model.radius:
                    reasons.append("stage_outlier")
            assessment.pairs[(direction.value, r, c)] = PairQuality(
                direction=direction.value,
                row=r,
                col=c,
                confidence=confidence,
                peak_ratio=ratio,
                stage_deviation=deviation,
                # Demotion needs a replacement value; without one (a
                # direction where every translation is non-finite) the
                # pair keeps its measurement -- the weight floors in
                # global_opt still keep the solve finite.
                gated=bool(reasons) and nominal is not None,
                reasons=tuple(reasons),
            )
    return assessment


def repair(disp: DisplacementResult, assessment: QualityAssessment,
           load_tile, subpixel: bool = False) -> tuple[int, int]:
    """Re-measure, in place, the pairs of ``disp`` that ``assessment`` gates.

    A gated pair whose direction has a stage model is climbed
    (:func:`repro.core.coarse.climb`) over its two tiles' statistics from
    the model's rounded median step, out to ``ceil(radius)``; a summit at
    or above ``conf_thresh`` replaces it (with the sub-pixel vertex under
    ``subpixel``), and any other pair stays as measured, and gated.
    Returns ``(repaired, unrepairable)``.
    """
    repaired = unrepairable = 0
    for (d, r, c), q in assessment.pairs.items():
        if not q.gated:
            continue
        model = assessment.stage_model.get(d)
        if model is None:
            unrepairable += 1
            continue
        direction = Direction(d)
        first = (r, c - 1) if direction is Direction.WEST else (r - 1, c)
        stats_i = TileStats(load_tile(*first))
        stats_j = TileStats(load_tile(r, c))
        probe = cache(partial(ccf_at_stats, stats_i, stats_j))
        x, y = round(model.median_tx), round(model.median_ty)
        corr, tx, ty = climb(probe, x, y, probe(x, y), math.ceil(model.radius))
        if not corr >= assessment.config.conf_thresh:
            unrepairable += 1
            continue
        tx_f = ty_f = None
        if subpixel:
            tx_f, ty_f = subpixel_refine_stats(stats_i, stats_j, tx, ty)
        disp.set(direction, r, c, Translation(corr, tx, ty, tx_f, ty_f))
        repaired += 1
    return repaired, unrepairable
