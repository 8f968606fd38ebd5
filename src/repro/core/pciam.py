"""PCIAM: phase-correlation image alignment for one adjacent pair (Fig. 2).

``pciam(I_i, I_j)`` returns the translation of ``I_j``'s origin in
``I_i``'s coordinate frame together with the winning cross-correlation
factor.  The steps mirror the paper's pseudo-code exactly:

1. forward FFTs of both tiles (cached transforms may be supplied),
2. normalized correlation coefficient,
3. inverse FFT,
4. max-magnitude reduction to a peak index,
5. CCF contest over the peak's periodic interpretations.

Steps 2-4 are :func:`correlation_peaks` and step 5 is :func:`contest`,
each written once: :func:`pciam`, the coarse first pass and its fallback
(:mod:`repro.core.coarse`) and the host half of a virtual-GPU pair
(:meth:`~repro.core.kernel.Phase1Kernel.resolve_peaks`) compose them.

The function accepts precomputed forward transforms because transform reuse
across the four pairs incident to a tile is the core memory/compute
trade-off every implementation in the paper manages.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from repro.core.ncc import normalized_correlation
from repro.core.peak import peak_candidates, peak_magnitude_ratio, top_peaks
from repro.core.tilestats import TileStats, ccf_at_stats, subpixel_refine_stats
from repro.fftlib.plans import (
    PlanCache,
    TransformKind,
    default_cache,
    spectrum_shape,
)
from repro.fftlib.smooth import next_smooth_shape, pad_to_shape


class CcfMode(Enum):
    """Peak-interpretation scheme (see :mod:`repro.core.peak`)."""

    PAPER4 = "paper4"      # the four non-negative combinations of Fig. 2
    EXTENDED = "extended"  # signed aliases (MIST-style), handles ty < 0


@dataclass(frozen=True)
class PciamResult:
    """Outcome of one pairwise alignment.

    ``tx``/``ty`` are the integer translation (the paper's output);
    ``tx_f``/``ty_f`` carry the sub-pixel estimate when requested
    (otherwise they equal the integers).
    """

    correlation: float  # winning CCF in [-1, 1]
    tx: int             # I_j origin x in I_i frame
    ty: int             # I_j origin y in I_i frame
    peak_value: float   # magnitude of the phase-correlation peak
    peak_index: tuple[int, int]  # (py, px) in the transform grid
    tx_f: float = 0.0
    ty_f: float = 0.0
    #: First-to-second peak-magnitude ratio (peak sharpness): a diffuse
    #: correlation surface has a ratio near 1, a decisive one well above
    #: it.  ``None`` when only one peak was reduced (``n_peaks == 1``).
    peak_ratio: float | None = None
    #: How the result was produced.  ``None`` for the single-pass full-
    #: resolution path; the coarse-to-fine path (:mod:`repro.core.coarse`)
    #: stamps ``"coarse"`` (confident first pass + windowed refinement)
    #: or ``"fallback"`` (coarse confidence too low, full PCIAM rerun).
    provenance: str | None = None

    def __iter__(self):
        yield self.correlation
        yield self.tx
        yield self.ty


def bump(stats: dict | None, key: str, n: int = 1) -> None:
    """``stats[key] += n`` on an optional accounting dict."""
    if stats is not None:
        stats[key] = stats.get(key, 0) + n


def forward_fft(
    tile: np.ndarray,
    fft_shape: tuple[int, int] | None = None,
    cache: PlanCache | None = None,
    real: bool = False,
) -> np.ndarray:
    """Forward transform of a tile, optionally zero-padded to ``fft_shape``.

    This is the "FFT" pipeline stage: each tile's transform is computed
    once and shared by its (up to four) incident pairs.

    ``real=True`` selects the real-to-complex transform (the paper's
    second future-work optimization): tiles are real-valued, so the
    half-spectrum of shape ``(h, w // 2 + 1)`` carries all information at
    roughly half the work and memory.  The resulting spectra plug into the
    same NCC (Hermitian symmetry is preserved by the normalization) and
    invert through ``irfft2``.

    Inputs already in the transform dtype/layout are used without copying;
    other dtypes convert in a single pass.
    """
    cache = cache if cache is not None else default_cache()
    a = np.ascontiguousarray(
        tile, dtype=np.float64 if real else np.complex128
    )
    if fft_shape is not None and tuple(fft_shape) != a.shape:
        a = pad_to_shape(a, fft_shape)
    kind = TransformKind.R2C if real else TransformKind.C2C_FORWARD
    return cache.plan(a.shape, kind, allow_padding=False).execute(a)


def forward_fft_batch(
    tiles: list[np.ndarray],
    fft_shape: tuple[int, int] | None = None,
    cache: PlanCache | None = None,
    real: bool = False,
    stats: dict | None = None,
) -> list[np.ndarray]:
    """Forward transforms of ``k`` same-shape tiles in one backend call.

    Batching amortizes per-transform dispatch overhead (plan lookup,
    argument checking, backend setup) across the stack -- the many-small-
    FFT optimization.  Each output slice is bit-identical to
    ``forward_fft(tile, ...)`` of the matching input: the pooled backend
    runs the identical 2-D transform per slice, so results feed every
    downstream consumer unchanged.

    Increments ``stats["fft_batches"]`` / ``stats["fft_batched_tiles"]``
    so callers can verify the batch path actually engaged.
    """
    if not tiles:
        return []
    cache = cache if cache is not None else default_cache()
    if len(tiles) == 1:
        return [forward_fft(tiles[0], fft_shape, cache, real=real)]
    shape = tuple(fft_shape) if fft_shape is not None else tiles[0].shape
    dtype = np.float64 if real else np.complex128
    stack = np.zeros((len(tiles), *shape), dtype=dtype)
    for i, tile in enumerate(tiles):
        a = np.asarray(tile)
        if a.shape != tiles[0].shape:
            raise ValueError(
                f"batch requires same-shape tiles, got {a.shape} "
                f"vs {tiles[0].shape}"
            )
        stack[i, : a.shape[0], : a.shape[1]] = a
    kind = TransformKind.R2C if real else TransformKind.C2C_FORWARD
    plan = cache.plan(stack.shape, kind, allow_padding=False)
    out = plan.execute(stack, overwrite_input=True)
    bump(stats, "fft_batches")
    bump(stats, "fft_batched_tiles", len(tiles))
    # Contiguous per-tile copies: downstream consumers cache these spectra
    # for the tile's lifetime, and holding k views would pin the whole
    # stack (k x spectrum) in memory instead.
    return [np.ascontiguousarray(out[i]) for i in range(len(tiles))]


def smooth_fft_shape(tile_shape: tuple[int, int]) -> tuple[int, int]:
    """The padded transform shape of the paper's future-work optimization."""
    return next_smooth_shape(tile_shape)  # type: ignore[return-value]


def correlation_peaks(
    fft_i: np.ndarray,
    fft_j: np.ndarray,
    shape: tuple[int, int],
    k: int,
    real: bool,
    cache: PlanCache,
    workspace=None,
) -> list[tuple[float, int, int]]:
    """Fig. 2 steps 2-4: NCC, inverse transform, top-``k`` peak reduction.

    ``fft_i`` / ``fft_j`` are forward transforms at the spatial transform
    ``shape`` (half-spectra when ``real``); returns the ``k`` largest
    ``(magnitude, py, px)`` of the inverse NCC surface.  The same front
    half runs at every resolution: full PCIAM calls it at the tile's
    transform shape, the coarse first pass at the downsampled one.

    ``workspace`` is an optional
    :class:`~repro.memmodel.workspace.PairWorkspace` sized for ``shape``
    whose scratch buffers receive the NCC, its magnitude, the inverse and
    the peak magnitudes -- a warm pair allocates nothing array-sized.  It
    is scratch the caller refills every pair, so the inverse transform
    consumes the workspace-held NCC in place (``overwrite_input``); a
    ``C2R`` inverse lands in the spatial buffer, whose magnitude the
    reduction then takes in place.
    """
    expected = spectrum_shape(shape) if real else tuple(shape)
    if fft_i.shape != expected or fft_j.shape != expected:
        raise ValueError(
            f"supplied transforms have shape {fft_i.shape}/{fft_j.shape}, "
            f"expected {expected}"
        )
    ncc_out = mag_out = spatial = None
    if workspace is not None:
        ncc_out, mag_out, spatial = (
            workspace.ncc, workspace.ncc_mag, workspace.spatial
        )
    ncc = normalized_correlation(fft_i, fft_j, out=ncc_out, mag_out=mag_out)
    kind = TransformKind.C2R if real else TransformKind.C2C_INVERSE
    plan = cache.plan(shape, kind, allow_padding=False)
    inv = plan.execute(
        ncc, overwrite_input=workspace is not None,
        out=spatial if real else None,
    )
    return top_peaks(inv, k, mag_out=spatial)


def contest(
    peaks: list[tuple[float, int, int]],
    shape: tuple[int, int],
    ccf_mode: CcfMode,
    stats_i: TileStats,
    stats_j: TileStats,
    subpixel: bool = False,
) -> PciamResult:
    """Fig. 2 step 5: the CCF contest over the peaks' interpretations.

    Every periodic interpretation of every ``(magnitude, py, px)`` peak of
    the transform of ``shape`` is scored once by the O(1)-statistics CCF;
    the highest wins, the first on a tie.  ``subpixel`` adds the parabolic
    vertex of the CCF surface around the integer winner -- fractional
    stage positions (a successor-tool feature; the paper's pipeline
    reports integers).
    """
    extended = ccf_mode is CcfMode.EXTENDED
    seen: set[tuple[int, int]] = set()
    best = (-np.inf, 0, 0)
    for _mag, qy, qx in peaks:
        for tx, ty in peak_candidates(qy, qx, shape, extended=extended):
            if (tx, ty) in seen:
                continue
            seen.add((tx, ty))
            c = ccf_at_stats(stats_i, stats_j, tx, ty)
            if c > best[0]:
                best = (c, tx, ty)
    corr, tx, ty = best
    tx_f, ty_f = float(tx), float(ty)
    if subpixel:
        tx_f, ty_f = subpixel_refine_stats(stats_i, stats_j, int(tx), int(ty))
    peak_val, py, px = peaks[0]
    return PciamResult(
        correlation=float(corr),
        tx=int(tx),
        ty=int(ty),
        peak_value=peak_val,
        peak_index=(py, px),
        tx_f=tx_f,
        ty_f=ty_f,
        peak_ratio=peak_magnitude_ratio([m for m, _, _ in peaks]),
    )


def pciam(
    img_i: np.ndarray,
    img_j: np.ndarray,
    fft_i: np.ndarray | None = None,
    fft_j: np.ndarray | None = None,
    fft_shape: tuple[int, int] | None = None,
    ccf_mode: CcfMode = CcfMode.PAPER4,
    n_peaks: int = 1,
    real_transforms: bool = False,
    subpixel: bool = False,
    cache: PlanCache | None = None,
    stats_i: TileStats | None = None,
    stats_j: TileStats | None = None,
    workspace=None,
) -> PciamResult:
    """Relative displacement of ``img_j`` with respect to ``img_i``.

    Parameters
    ----------
    img_i, img_j:
        Same-shape grayscale tiles (any real dtype).  ``img_j`` is the
        east/south member of the pair under the package-wide convention.
    fft_i, fft_j:
        Optional precomputed forward transforms (from :func:`forward_fft`
        with the same ``fft_shape``); whichever is missing is computed here.
    fft_shape:
        Transform size; ``None`` means the native tile shape.  Pass
        :func:`smooth_fft_shape` of the tile shape to enable the padding
        optimization.
    ccf_mode:
        Peak-interpretation scheme; ``PAPER4`` reproduces Fig. 2 verbatim.
    n_peaks:
        Number of correlation peaks whose interpretations enter the CCF
        contest.  ``1`` is the paper's scheme; the Fiji plugin tests
        several, which is more robust on feature-poor overlaps.
    real_transforms:
        Use real-to-complex transforms (half-spectrum NCC, cached ``C2R``
        inverse plan) -- the paper's future-work optimization.  Results are
        identical to the complex path; work and footprint roughly halve.
        Precomputed ``fft_i``/``fft_j`` must then be half-spectra from
        ``forward_fft(..., real=True)``.
    stats_i, stats_j:
        Optional precomputed :class:`~repro.core.tilestats.TileStats`
        (computed here when omitted).  Like the forward transforms, tile
        statistics are a per-tile product shared by up to four incident
        pairs.
    workspace:
        Optional pair scratch, see :func:`correlation_peaks`; without one
        every pair allocates its own.

    Returns the winning ``(correlation, tx, ty)`` plus peak diagnostics.
    """
    if img_i.shape != img_j.shape:
        raise ValueError(
            f"pciam requires same-size tiles, got {img_i.shape} vs {img_j.shape}"
        )
    cache = cache if cache is not None else default_cache()
    shape = tuple(fft_shape) if fft_shape is not None else img_i.shape
    if fft_i is None:
        fft_i = forward_fft(img_i, shape, cache, real=real_transforms)
    if fft_j is None:
        fft_j = forward_fft(img_j, shape, cache, real=real_transforms)
    peaks = correlation_peaks(
        fft_i, fft_j, shape, n_peaks, real_transforms, cache, workspace
    )
    if stats_i is None:
        stats_i = TileStats(img_i)
    if stats_j is None:
        stats_j = TileStats(img_j)
    return contest(peaks, shape, ccf_mode, stats_i, stats_j, subpixel)
