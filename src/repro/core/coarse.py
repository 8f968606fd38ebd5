"""Coarse-to-fine PCIAM: downsampled first pass + windowed refinement.

The full-resolution PCIAM of :mod:`repro.core.pciam` spends nearly all
of its time in the forward FFTs and the NCC/inverse pair -- all of it
proportional to the tile area.  For pure-translation registration the
phase-correlation peak survives block-mean downsampling almost
unchanged (feabas registers at ``coarse_downsample: 0.5`` and only
refines confident matches at full resolution), so a two-pass scheme
does ~1/f^2 of the FFT work:

1. **Coarse pass** -- both tiles are block-mean downsampled by an
   integer ``factor`` (:mod:`repro.core.downsample`) and a standard
   PCIAM front half runs at the coarse shape: forward FFTs, NCC,
   inverse, peak reduction.  Plans are cached per coarse shape in the
   same :class:`~repro.fftlib.plans.PlanCache` as the full-resolution
   ones (the cache is keyed on ``(shape, kind)``, so the two
   resolutions never cross-contaminate).
2. **Windowed refinement** -- each coarse peak's periodic
   interpretations are upscaled by ``factor`` into candidate hills on
   the full-resolution CCF surface, probed with the O(1) summed-area
   statistics (:func:`~repro.core.tilestats.ccf_at_stats`) -- no
   full-resolution FFT.  The coarse grid cannot represent an offset
   that is not a multiple of ``factor``; such a summit shows up as *two*
   adjacent coarse peaks with the summit between them, so a hill is
   first localised to the pixel -- its centre plus the sub-factor
   offsets towards its other samples -- and only then ranked.  That
   matters wherever the specimen is pixel-granular: there the CCF
   surface is a spike (0.99 at the summit, ~0 one pixel off), not a
   hill to climb.  The best-ranked hill is then walked uphill (bounded
   steepest ascent, Chebyshev radius ``2 * factor`` by default), which
   is what finds the summit of a *smooth* surface from a centre a
   pixel or two off (rounding + anti-alias blur + edge padding).
3. **Confidence gate** -- the refined correlation and the coarse
   peak-sharpness ratio are judged with the same thresholds the
   quality gate uses (``conf_thresh`` / ``min_peak_ratio``).  A
   confident result is accepted with provenance ``"coarse"``; anything
   else (blank, damaged, or feature-poor overlaps) falls back to the
   unmodified full-resolution :func:`~repro.core.pciam.pciam` with
   provenance ``"fallback"`` -- so dirty data degrades to exactly the
   single-pass behaviour, never to a wrong-but-confident answer.

:func:`resolve_coarse_peaks` packages steps 2-3 on their own so the
GPU implementations -- which run step 1 on the device and only see the
reduced peak list on the host -- share the identical refinement and
fallback logic with the CPU paths.  That sharing is what keeps every
implementation bit-identical to ``simple-cpu`` in coarse mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import product

import numpy as np

from repro.core.downsample import downsample, downsampled_shape
from repro.core.peak import peak_candidates, peak_magnitude_ratio
from repro.core.pciam import (
    CcfMode,
    PciamResult,
    bump,
    correlation_peaks,
    forward_fft,
    pciam,
)
from repro.core.tilestats import TileStats, ccf_at_stats, subpixel_refine_stats
from repro.fftlib.plans import PlanCache, default_cache

#: Provenance stamps carried on results (and journaled with each pair,
#: so a resumed run can prove which path produced every translation).
PROVENANCE_COARSE = "coarse"
PROVENANCE_FALLBACK = "fallback"

#: A runner-up candidate hill is climbed when its best probe is within
#: this much correlation of the leader's: on a smooth surface the true
#: hill's centre can sit a pixel or two off its peak (coarse
#: quantization) and score below a smooth impostor's.
_HILL_MARGIN = 0.2

#: A centre probing at least this high is *decisive*: a genuinely aligned
#: overlap scores >= 0.98 while impostor hills (smooth strips correlating
#: at a wrong offset) top out around 0.9, so the contest can stop without
#: probing the remaining -- typically larger-overlap, costlier --
#: candidates.  A ``conf_thresh`` above this raises the bar with it.
_DECISIVE_CORR = 0.95


@dataclass(frozen=True)
class CoarseConfig:
    """Knobs of the coarse-to-fine pass.

    ``factor``
        Integer downsampling factor of the first pass (2 = the feabas
        ``coarse_downsample: 0.5``); FFT work shrinks by ``factor**2``.
    ``conf_thresh``
        Minimum refined full-resolution correlation to accept the
        coarse-seeded answer.  Deliberately much stricter than the
        quality gate's 0.33: that threshold decides whether a pair is
        usable at all, this one decides whether the *shortcut* is
        trusted over the exhaustive path.  At the true integer
        alignment the refined Pearson correlation is >= 0.98 on every
        clean pair we measured, while a wrong hill (e.g. smooth
        vignette strips correlating at an absurd offset) tops out
        around 0.9 -- so 0.95 accepts every correct refinement and
        sends everything doubtful to the full-resolution fallback,
        which can be slower but never wrong.
    ``min_peak_ratio``
        Minimum coarse first-to-second peak-magnitude ratio; a diffuse
        coarse surface (ratio ~1) is not trusted to have found the
        right hill.  The default 1.0 never rejects on its own.
    ``coarse_peaks``
        How many coarse-surface peaks to reduce and contest.  The
        coarse surface ranks the true peak first for ~90% of pairs but
        can demote it behind fixed-pattern artifacts on feature-poor
        overlaps; contesting the top 8 recovers nearly all of those at
        the cost of a few extra O(overlap) probes (the cheap-first
        probe ordering means extra candidates rarely cost anything),
        and every recovered pair is a full-PCIAM fallback avoided.
    ``search_radius``
        Chebyshev radius of the full-resolution climb around a localised
        candidate; ``None`` derives ``2 * factor`` (covers rounding of
        ±factor/2, ±1 coarse pixel of anti-alias blur, and the
        edge-padding bias of partial blocks).  The climb only helps
        where the CCF surface slopes towards its summit; a
        pixel-granular specimen's does not, which is why hills are
        localised from their coarse samples first.
    ``min_overlap_frac``
        Minimum overlap a refinement probe must cover *in each
        dimension* (as a fraction of that dimension) to be scored at
        all.  A Pearson correlation over a sliver is trivially high --
        a 2-pixel overlap correlates at exactly 1.0, and a 2-row strip
        of a smooth specimen is not much better -- so without a floor
        the confidence gate would bless degenerate near-full-shift
        aliases as "coarse hits".  Probes below the floor score
        ``-inf``; when every candidate is degenerate the pair falls
        back to full PCIAM (a false reject only costs speed, never
        correctness).  The default 5% sits well under any real
        microscope overlap (the paper's scans use ~10%) while rejecting
        the aliases whose strips are a few pixels wide.
    """

    factor: int = 2
    conf_thresh: float = 0.95
    min_peak_ratio: float = 1.0
    coarse_peaks: int = 8
    search_radius: int | None = None
    min_overlap_frac: float = 0.05

    def __post_init__(self) -> None:
        if self.factor < 2:
            raise ValueError(
                f"coarse factor must be >= 2, got {self.factor} "
                "(factor 1 is just the full-resolution path)"
            )
        if self.coarse_peaks < 1:
            raise ValueError(
                f"coarse_peaks must be >= 1, got {self.coarse_peaks}"
            )
        if self.search_radius is not None and self.search_radius < 1:
            raise ValueError(
                f"search_radius must be >= 1, got {self.search_radius}"
            )
        if not 0.0 <= self.min_overlap_frac < 1.0:
            raise ValueError(
                f"min_overlap_frac must be in [0, 1), "
                f"got {self.min_overlap_frac}"
            )

    @property
    def radius(self) -> int:
        """Effective refinement window radius (full-resolution pixels)."""
        if self.search_radius is not None:
            return self.search_radius
        return 2 * self.factor

    @staticmethod
    def from_scale(scale: float) -> "CoarseConfig":
        """Build a config from a downsampling *scale* (0.5 -> factor 2).

        The CLI exposes the feabas-style fractional scale; block-mean
        downsampling needs an integer factor, so the nearest integer
        reciprocal is used (0.5 -> 2, 0.25 -> 4, 0.3 -> 3).
        """
        if not 0.0 < scale <= 0.5:
            raise ValueError(
                f"coarse scale must be in (0, 0.5], got {scale}"
            )
        return CoarseConfig(factor=round(1.0 / scale))

    def to_fingerprint(self) -> dict:
        """JSON-able identity for journal fingerprint binding."""
        return {
            "factor": self.factor,
            "conf_thresh": self.conf_thresh,
            "min_peak_ratio": self.min_peak_ratio,
            "coarse_peaks": self.coarse_peaks,
            "search_radius": self.radius,
            "min_overlap_frac": self.min_overlap_frac,
        }


def coarse_transform_shape(
    full_fft_shape: tuple[int, int], factor: int
) -> tuple[int, int]:
    """Coarse-pass transform shape for a full-resolution transform shape.

    Matches what :func:`~repro.core.downsample.downsample` produces for
    the tile, so the coarse FFT runs un-padded at the downsampled size
    (and every implementation derives the same device-buffer / slab /
    workspace geometry from it).
    """
    return downsampled_shape(full_fft_shape, factor)


def coarse_forward_fft(
    tile: np.ndarray,
    factor: int,
    fft_shape: tuple[int, int] | None = None,
    cache: PlanCache | None = None,
    real: bool = False,
) -> np.ndarray:
    """Coarse-pass spectrum of a tile: block-mean downsample, then FFT.

    ``fft_shape`` is the *full-resolution* transform shape (as passed to
    :func:`~repro.core.pciam.forward_fft`); the coarse transform runs at
    :func:`coarse_transform_shape` of it.  This is the per-tile product
    the implementations compute once and share across the tile's (up to
    four) incident pairs, exactly as they do full-resolution spectra in
    single-pass mode.
    """
    cshape = (
        coarse_transform_shape(tuple(fft_shape), factor)
        if fft_shape is not None
        else None
    )
    return forward_fft(
        downsample(np.asarray(tile), factor), cshape, cache, real=real
    )


def refine_from_coarse_peaks(
    peaks: list[tuple[float, int, int]],
    coarse_fft_shape: tuple[int, int],
    config: CoarseConfig,
    ccf_mode: CcfMode = CcfMode.PAPER4,
    img_i: np.ndarray | None = None,
    img_j: np.ndarray | None = None,
    stats_i: TileStats | None = None,
    stats_j: TileStats | None = None,
    subpixel: bool = False,
) -> tuple[float, int, int, float, float]:
    """Full-resolution refinement of coarse peaks; returns the best probe.

    Every coarse peak's periodic interpretations (the same candidate set
    full PCIAM contests, but on the *coarse* grid) are upscaled by
    ``config.factor`` into candidate hill centres.  A centre within one
    coarse cell (Chebyshev ``factor``) of a hill already listed is a
    second sample of that hill, whose summit then lies *between* the
    two: it votes the side, per axis, on which the hill's sub-factor
    offsets are searched.  Hills are contested smallest overlap first: a
    probe costs O(overlap), and for a grid scan the true alignment *is*
    a small-overlap candidate, so when one probes decisively (above both
    ``config.conf_thresh`` and the impostor ceiling) the contest stops
    before paying for the near-full-overlap aliases at several times the
    price.  Each hill is localised -- its centre, then the voted offsets
    up to ``factor // 2`` -- and ranked by the best of those probes; the
    best hill is then walked uphill from there (deterministic steepest
    ascent: orthogonal neighbours first, diagonals only on an orthogonal
    plateau, bounded to Chebyshev ``config.radius`` from the start,
    probes memoized), and absent a decisive probe a close runner-up is
    climbed too.  Every probe, voted or climbed, passes the same sliver
    floor.  No full-resolution FFT is involved: each probe is
    O(overlap) for the cross term and O(1) for everything else (the
    tile statistics, built here from the pixels when the caller has
    none).

    Returns ``(correlation, tx, ty, tx_f, ty_f)`` of the best probe
    (``tx_f``/``ty_f`` carry the parabolic sub-pixel vertex when
    ``subpixel``, the integers otherwise).
    """
    if stats_i is None:
        stats_i = TileStats(img_i)
    if stats_j is None:
        stats_j = TileStats(img_j)
    memo: dict[tuple[int, int], float] = {}
    h, w = stats_i.shape
    # Probes overlapping fewer rows or columns than this are never
    # scored: Pearson correlation *inflates monotonically* as a strip of
    # smooth content thins (a 2-pixel overlap correlates at exactly 1.0),
    # so slivers would sail through the confidence gate with garbage
    # translations.  The absolute term keeps the whole climb window out
    # of the sliver regime even when the fractional floor rounds to a
    # couple of pixels on small tiles.
    floor = 2 * config.radius + 1
    min_h = max(floor, math.ceil(config.min_overlap_frac * h))
    min_w = max(floor, math.ceil(config.min_overlap_frac * w))

    def probe(tx: int, ty: int) -> float:
        key = (tx, ty)
        c = memo.get(key)
        if c is None:
            if h - abs(ty) >= min_h and w - abs(tx) >= min_w:
                c = ccf_at_stats(stats_i, stats_j, tx, ty)
            else:
                c = -np.inf
            memo[key] = c
        return c

    f = config.factor
    radius = config.radius
    extended = ccf_mode is CcfMode.EXTENDED
    # Hill centre -> [sx, sy], the side (-1, 0, +1 per axis) on which the
    # hill was sampled again: its summit lies between the two samples.
    # Peaks arrive strongest first, so the first vote on an axis stands.
    hills: dict[tuple[int, int], list[int]] = {}
    for _mag, qy, qx in peaks:
        for ctx, cty in peak_candidates(
            qy, qx, coarse_fft_shape, extended=extended
        ):
            cx, cy = ctx * f, cty * f
            for (px, py), side in hills.items():
                if max(abs(cx - px), abs(cy - py)) <= f:
                    side[0] = side[0] or (cx - px) // f
                    side[1] = side[1] or (cy - py) // f
                    break
            else:
                hills[cx, cy] = [0, 0]
    # Contest the candidate hills like full PCIAM contests candidate
    # translations -- cheapest probes first, stopping at a decisive one.
    cands = sorted(
        ((h - abs(cy)) * (w - abs(cx)), cx, cy)
        for cx, cy in hills
        if h - abs(cy) >= min_h and w - abs(cx) >= min_w
    )
    decisive = max(config.conf_thresh, _DECISIVE_CORR)
    centers: list[tuple[float, tuple[int, int]]] = []
    for _area, cx, cy in cands:
        # Localise the hill before ranking it: its centre, then the
        # sub-factor offsets towards each vote (the nearest sample is the
        # strongest, so the summit is at most factor/2 from the centre).
        sx, sy = hills[cx, cy]
        c0, at = -np.inf, (cx, cy)
        for dy, dx in product(
            range(abs(sy) * (f // 2) + 1), range(abs(sx) * (f // 2) + 1)
        ):
            spot = (cx + sx * dx, cy + sy * dy)
            c = probe(*spot)
            if c > c0:
                c0, at = c, spot
            if c >= decisive:
                break
        centers.append((c0, at))
        if c0 >= decisive:
            break
    centers.sort(key=lambda e: (-e[0], e[1]))

    def climb(sx: int, sy: int, c0: float) -> tuple[float, int, int]:
        bx, by, bc = sx, sy, c0
        for _ in range(2 * radius):
            step = None
            sc = bc
            for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                nx, ny = bx + dx, by + dy
                if abs(nx - sx) > radius or abs(ny - sy) > radius:
                    continue
                c = probe(nx, ny)
                if c > sc:
                    sc, step = c, (nx, ny)
            if step is None:
                # Orthogonal plateau: a concave hill peaks here, and a
                # summit already above the decisive bar cannot move by a
                # diagonal pixel of correlation.  Otherwise check the
                # diagonals once before declaring a maximum (ridges at
                # ~45 degrees can hide the true peak there).
                if bc >= decisive:
                    break
                for dx, dy in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                    nx, ny = bx + dx, by + dy
                    if abs(nx - sx) > radius or abs(ny - sy) > radius:
                        continue
                    c = probe(nx, ny)
                    if c > sc:
                        sc, step = c, (nx, ny)
                if step is None:
                    break
            bx, by = step
            bc = sc
        return bc, bx, by

    best = (-np.inf, 0, 0)
    if centers:
        c0, (sx, sy) = centers[0]
        best = max(best, climb(sx, sy, c0))
        # A decisive best centre (already above the gate) cannot be beaten
        # by another hill -- wrong hills top out well below the gate -- so
        # the runner-up climb is only paid when the contest was close.
        if len(centers) > 1 and c0 < config.conf_thresh:
            c1, (sx, sy) = centers[1]
            if c1 >= c0 - _HILL_MARGIN:
                best = max(best, climb(sx, sy, c1))
    corr, tx, ty = float(best[0]), int(best[1]), int(best[2])
    tx_f, ty_f = float(tx), float(ty)
    if subpixel:
        tx_f, ty_f = subpixel_refine_stats(stats_i, stats_j, tx, ty)
    return corr, tx, ty, tx_f, ty_f


def resolve_coarse_peaks(
    peaks: list[tuple[float, int, int]],
    coarse_fft_shape: tuple[int, int],
    config: CoarseConfig,
    ccf_mode: CcfMode = CcfMode.PAPER4,
    img_i: np.ndarray | None = None,
    img_j: np.ndarray | None = None,
    stats_i: TileStats | None = None,
    stats_j: TileStats | None = None,
    subpixel: bool = False,
    fallback=None,
    stats: dict | None = None,
) -> PciamResult:
    """Refine coarse peaks, gate on confidence, fall back when in doubt.

    ``peaks`` are the coarse pass's reduced ``(magnitude, py, px)`` list
    (host- or device-produced -- the GPU implementations call this with
    the output of their ``reduce_max`` kernel).  ``fallback`` is a
    zero-argument callable returning the full-resolution
    :class:`~repro.core.pciam.PciamResult`; it runs only when the gate
    rejects.  ``stats`` (a plain dict) receives the ``coarse_hits`` /
    ``full_fallbacks`` counters.
    """
    peak_ratio = peak_magnitude_ratio([m for m, _, _ in peaks])
    corr, tx, ty, tx_f, ty_f = refine_from_coarse_peaks(
        peaks, coarse_fft_shape, config, ccf_mode,
        img_i=img_i, img_j=img_j, stats_i=stats_i, stats_j=stats_j,
        subpixel=subpixel,
    )
    # Non-finite probe scores (degenerate overlap variance) fail the gate.
    confident = math.isfinite(corr) and corr >= config.conf_thresh and not (
        peak_ratio is not None and peak_ratio < config.min_peak_ratio
    )
    if confident:
        bump(stats, "coarse_hits")
        mag, py, px = peaks[0]
        return PciamResult(
            correlation=corr,
            tx=tx,
            ty=ty,
            peak_value=float(mag),
            peak_index=(int(py), int(px)),
            tx_f=tx_f,
            ty_f=ty_f,
            peak_ratio=peak_ratio,
            provenance=PROVENANCE_COARSE,
        )
    bump(stats, "full_fallbacks")
    if fallback is None:
        raise ValueError(
            "coarse confidence gate rejected the pair but no fallback "
            "was supplied"
        )
    return replace(fallback(), provenance=PROVENANCE_FALLBACK)


def coarse_pciam(
    img_i: np.ndarray,
    img_j: np.ndarray,
    coarse: CoarseConfig,
    cfft_i: np.ndarray | None = None,
    cfft_j: np.ndarray | None = None,
    fft_shape: tuple[int, int] | None = None,
    ccf_mode: CcfMode = CcfMode.PAPER4,
    n_peaks: int = 1,
    real_transforms: bool = False,
    subpixel: bool = False,
    cache: PlanCache | None = None,
    stats_i: TileStats | None = None,
    stats_j: TileStats | None = None,
    workspace=None,
    stats: dict | None = None,
) -> PciamResult:
    """Two-pass drop-in for :func:`~repro.core.pciam.pciam`.

    Same contract and parameters, plus:

    ``coarse``
        The :class:`CoarseConfig` driving the first pass and the gate.
    ``cfft_i`` / ``cfft_j``
        Optional precomputed *coarse* spectra from
        :func:`coarse_forward_fft` with the same ``fft_shape`` /
        ``real_transforms`` -- the per-tile reuse product of coarse
        mode, replacing the full-resolution ``fft_i`` / ``fft_j``.
    ``workspace``
        A pair workspace sized for the **coarse** transform shape (the
        arena in coarse mode is built at
        :func:`coarse_transform_shape`); the fallback path allocates its
        own scratch since the coarse buffers cannot hold a
        full-resolution NCC.
    ``stats``
        Dict receiving ``coarse_hits`` / ``full_fallbacks``.

    The first pass is the front half of PCIAM
    (:func:`~repro.core.pciam.correlation_peaks`) at the coarse shape.
    The fallback recomputes the full-resolution spectra on demand --
    coarse mode deliberately never computes them up front, which is
    where its speedup lives; the occasional rejected pair pays two extra
    FFTs instead of every pair paying them always.
    """
    if img_i.shape != img_j.shape:
        raise ValueError(
            f"pciam requires same-size tiles, got {img_i.shape} vs {img_j.shape}"
        )
    cache = cache if cache is not None else default_cache()
    full_shape = tuple(fft_shape) if fft_shape is not None else img_i.shape
    cshape = coarse_transform_shape(full_shape, coarse.factor)
    if cfft_i is None:
        cfft_i = coarse_forward_fft(
            img_i, coarse.factor, full_shape, cache, real=real_transforms
        )
    if cfft_j is None:
        cfft_j = coarse_forward_fft(
            img_j, coarse.factor, full_shape, cache, real=real_transforms
        )
    # Full-resolution statistics back both the refinement probes and the
    # fallback; build them once here when the caller did not.
    if stats_i is None:
        stats_i = TileStats(img_i)
    if stats_j is None:
        stats_j = TileStats(img_j)
    # Reduce more peaks than the caller asked for: the coarse surface
    # demotes the true peak behind fixed-pattern artifacts on ~10% of
    # pairs, and the full-resolution contest is what sorts them out.
    peaks = correlation_peaks(
        cfft_i, cfft_j, cshape, max(n_peaks, coarse.coarse_peaks),
        real_transforms, cache, workspace,
    )

    def fallback() -> PciamResult:
        return pciam(
            img_i, img_j,
            fft_shape=fft_shape,
            ccf_mode=ccf_mode,
            n_peaks=n_peaks,
            real_transforms=real_transforms,
            subpixel=subpixel,
            cache=cache,
            stats_i=stats_i,
            stats_j=stats_j,
        )

    return resolve_coarse_peaks(
        peaks, cshape, config=coarse, ccf_mode=ccf_mode,
        stats_i=stats_i, stats_j=stats_j, subpixel=subpixel,
        fallback=fallback, stats=stats,
    )
