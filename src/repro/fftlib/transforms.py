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


def batch_rfft2(
    stack: np.ndarray,
    cache: PlanCache | None = None,
) -> np.ndarray:
    """Batched R2C transform of a ``(k, h, w)`` stack of same-shape tiles.

    One backend call transforms every slice over the trailing two axes
    (the standard fix for many-small-FFT workloads: per-transform Python
    and dispatch overhead is paid once per *batch* instead of once per
    tile).  The plan is keyed on the full ``(k, h, w)`` shape, so each
    distinct batch size gets its own cached plan.  Output slices are
    bit-identical to per-tile :func:`rfft2` -- the pooled backend runs
    the same 2-D transform per slice, so batching is purely an overhead
    optimization, never a numerics change.
    """
    stack = np.asarray(stack, dtype=np.float64)
    if stack.ndim != 3:
        raise ValueError(f"expected a (k, h, w) stack, got shape {stack.shape}")
    plan = _cache(cache).plan(
        stack.shape, TransformKind.R2C, allow_padding=False
    )
    return plan.execute(stack)


def batch_irfft2(
    stack: np.ndarray,
    shape: tuple[int, int],
    cache: PlanCache | None = None,
) -> np.ndarray:
    """Batched C2R inverse of :func:`batch_rfft2`.

    ``shape`` is the *spatial* ``(h, w)`` of each output slice; the batch
    size comes from the stack's leading axis.
    """
    stack = np.asarray(stack, dtype=np.complex128)
    if stack.ndim != 3:
        raise ValueError(f"expected a (k, h, kw) stack, got shape {stack.shape}")
    plan = _cache(cache).plan(
        (stack.shape[0], *shape), TransformKind.C2R, allow_padding=False
    )
    return plan.execute(stack)
