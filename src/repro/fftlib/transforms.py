"""Convenience transform entry points over the plan cache.

These mirror the call sites in the paper's Fig. 2 pseudo-code
(``FFT_2d`` / ``iFFT_2d``) and default to the process-wide plan cache with
shape-preserving plans, so ``ifft2(fft2(a))`` round-trips exactly.
"""

from __future__ import annotations

import numpy as np

from repro.fftlib.plans import PlanCache, TransformKind, default_cache


def _cache(cache: PlanCache | None) -> PlanCache:
    return cache if cache is not None else default_cache()


def fft2(
    a: np.ndarray,
    cache: PlanCache | None = None,
) -> np.ndarray:
    """Forward 2-D complex transform of ``a`` (shape-preserving)."""
    plan = _cache(cache).plan(a.shape, TransformKind.C2C_FORWARD, allow_padding=False)
    return plan.execute(np.asarray(a, dtype=np.complex128))


def ifft2(
    a: np.ndarray,
    cache: PlanCache | None = None,
) -> np.ndarray:
    """Inverse 2-D complex transform of ``a`` (shape-preserving)."""
    plan = _cache(cache).plan(a.shape, TransformKind.C2C_INVERSE, allow_padding=False)
    return plan.execute(np.asarray(a, dtype=np.complex128))


def rfft2(
    a: np.ndarray,
    cache: PlanCache | None = None,
) -> np.ndarray:
    """Real-to-complex forward transform (the paper's future-work variant).

    Output has the half-spectrum shape ``(h, w // 2 + 1)``; the inverse is
    :func:`irfft2` with the original shape.
    """
    a = np.asarray(a, dtype=np.float64)
    plan = _cache(cache).plan(a.shape, TransformKind.R2C, allow_padding=False)
    return plan.execute(a)


def irfft2(
    a: np.ndarray,
    shape: tuple[int, int],
    cache: PlanCache | None = None,
) -> np.ndarray:
    """Complex-to-real inverse of :func:`rfft2` producing ``shape``.

    C2R plans are keyed by the target *spatial* shape, which the
    half-spectrum alone does not determine (w could be 2*(kw-1) or
    2*(kw-1)+1); the plan carries it.
    """
    plan = _cache(cache).plan(
        tuple(shape), TransformKind.C2R, allow_padding=False
    )
    return plan.execute(np.asarray(a, dtype=np.complex128))
