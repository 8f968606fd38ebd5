"""Translation filtering and repair (the successor-tool refinement).

The paper's phase 1 accepts whatever translation wins the CCF contest.  On
feature-poor pairs that translation can be garbage with low correlation;
phase 2's MST routes around *isolated* bad edges but cannot fix regions
where several adjacent overlaps are blank.  The NIST successor tool (MIST)
added the stage-model refinement implemented here:

1. **Filter**: per direction (west/north), collect translations whose
   correlation clears a threshold; take their component-wise median as the
   stage's repeatable displacement and flag every translation that is
   low-confidence or deviates from the median by more than the stage's
   repeatability radius.
2. **Repair**: re-estimate each flagged pair by hill-climbing the CCF
   surface from the median translation (the overlap is locally smooth in
   the CCF metric, so greedy 4-neighbour ascent converges in a few steps).

The refined result keeps exact translations exact (a valid translation is
never touched) and replaces invalid ones with the constrained estimate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.ccf import ccf_at
from repro.core.displacement import DisplacementResult, Translation
from repro.grid.neighbors import Direction


@dataclass(frozen=True)
class RefineConfig:
    """Filtering/repair parameters.

    ``correlation_threshold`` separates trusted from suspect translations.
    ``repeatability`` is the stage's positioning repeatability in pixels
    (deviations from the median beyond it are outliers); ``None`` derives
    it from the trusted translations themselves (3x the median absolute
    deviation, floored at 4 px).  ``max_hill_climb_steps`` bounds the
    greedy ascent.
    """

    correlation_threshold: float = 0.5
    repeatability: float | None = None
    max_hill_climb_steps: int = 64
    min_valid_for_model: int = 2


@dataclass
class RefineReport:
    """What the refinement changed."""

    valid: int = 0
    repaired: int = 0
    unrepairable: int = 0
    medians: dict = None

    def __post_init__(self) -> None:
        if self.medians is None:
            self.medians = {}


def _stage_model(entries, cfg: RefineConfig):
    """(median_tx, median_ty, radius) from trusted translations, or None."""
    good = [t for _, _, t in entries if t.correlation >= cfg.correlation_threshold]
    if len(good) < cfg.min_valid_for_model:
        return None
    txs = np.array([t.tx for t in good], dtype=np.float64)
    tys = np.array([t.ty for t in good], dtype=np.float64)
    med_tx, med_ty = float(np.median(txs)), float(np.median(tys))
    if cfg.repeatability is not None:
        radius = cfg.repeatability
    else:
        mad = max(
            float(np.median(np.abs(txs - med_tx))),
            float(np.median(np.abs(tys - med_ty))),
        )
        radius = max(4.0, 3.0 * mad)
    return med_tx, med_ty, radius


def hill_climb(
    img_i: np.ndarray,
    img_j: np.ndarray,
    tx0: int,
    ty0: int,
    max_steps: int = 64,
) -> Translation:
    """Greedy 4-neighbour ascent of the CCF surface from ``(tx0, ty0)``.

    Returns the local maximum reached (translation + its CCF).  This is
    the MIST repair search: cheap (each step costs one overlap CCF) and
    sufficient because the CCF surface is smooth near the true offset.
    """
    h, w = img_i.shape
    tx = int(np.clip(tx0, -(w - 1), w - 1))
    ty = int(np.clip(ty0, -(h - 1), h - 1))
    best = ccf_at(img_i, img_j, tx, ty)
    cache: dict[tuple[int, int], float] = {(tx, ty): best}
    for _ in range(max_steps):
        moved = False
        for dtx, dty in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            cand = (tx + dtx, ty + dty)
            if abs(cand[0]) >= w or abs(cand[1]) >= h:
                continue
            if cand not in cache:
                cache[cand] = ccf_at(img_i, img_j, cand[0], cand[1])
            if cache[cand] > best:
                best = cache[cand]
                tx, ty = cand
                moved = True
        if not moved:
            break
    return Translation(correlation=best, tx=tx, ty=ty)


def refine_displacements(
    disp: DisplacementResult,
    load_tile,
    cfg: RefineConfig | None = None,
) -> tuple[DisplacementResult, RefineReport]:
    """Filter and repair a phase-1 result; returns ``(refined, report)``.

    ``load_tile(row, col)`` must return the same pixels phase 1 saw.  The
    input is not modified.  Tiles are reloaded only for flagged pairs, so
    a clean grid costs nothing beyond the statistics pass.
    """
    cfg = cfg or RefineConfig()
    out = DisplacementResult.empty(disp.rows, disp.cols)
    out.stats = dict(disp.stats)
    report = RefineReport()

    for direction in (Direction.WEST, Direction.NORTH):
        entries = disp.entries(direction)
        model = _stage_model(entries, cfg)
        if model is not None:
            report.medians[direction.value] = model
        for r, c, t in entries:
            suspicious = t.correlation < cfg.correlation_threshold
            if model is not None:
                med_tx, med_ty, radius = model
                off = max(abs(t.tx - med_tx), abs(t.ty - med_ty))
                suspicious = suspicious or off > radius
            if not suspicious or model is None:
                out.set(direction, r, c, t)
                report.valid += 1
                if suspicious:
                    report.unrepairable += 1
                continue
            # Repair: constrained search from the stage model's prediction.
            if direction is Direction.WEST:
                img_i = load_tile(r, c - 1)
            else:
                img_i = load_tile(r - 1, c)
            img_j = load_tile(r, c)
            med_tx, med_ty, _radius = model
            repaired = hill_climb(
                np.asarray(img_i, dtype=np.float64),
                np.asarray(img_j, dtype=np.float64),
                int(round(med_tx)),
                int(round(med_ty)),
                cfg.max_hill_climb_steps,
            )
            out.set(direction, r, c, repaired)
            report.repaired += 1
    return out, report
