"""Smooth-size ("nice" FFT length) utilities.

FFT libraries built on divide-and-conquer (FFTW, cuFFT, pocketfft) are fastest
when every axis length factors into small primes.  The paper notes that its
1392x1040 microscope tiles do *not* have this property and proposes padding
tiles (e.g. to 1536x1536) as a future optimization.  These helpers implement
that optimization.

A length is *smooth* when it is a product of powers of the given radices
(2, 3, 5 and 7 by default, matching the paper's Section III discussion).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

DEFAULT_RADICES: tuple[int, ...] = (2, 3, 5, 7)


def is_smooth(n: int, radices: Sequence[int] = DEFAULT_RADICES) -> bool:
    """Return ``True`` when ``n`` factors entirely into ``radices``.

    ``n`` must be a positive integer; ``1`` is smooth by convention.
    """
    if n < 1:
        raise ValueError(f"length must be positive, got {n}")
    for p in sorted(set(radices)):
        while n % p == 0:
            n //= p
    return n == 1


def next_smooth(n: int, radices: Sequence[int] = DEFAULT_RADICES) -> int:
    """Return the smallest smooth length ``>= n``.

    This is the per-axis padding target of ``pad_to_smooth``.  A simple increasing scan is fine here: smooth numbers are
    dense (gaps are tiny relative to ``n`` for the radix set {2,3,5,7}).
    """
    if n < 1:
        raise ValueError(f"length must be positive, got {n}")
    m = n
    while not is_smooth(m, radices):
        m += 1
    return m


def next_smooth_shape(
    shape: Sequence[int], radices: Sequence[int] = DEFAULT_RADICES
) -> tuple[int, ...]:
    """Per-axis :func:`next_smooth` for a full array shape."""
    return tuple(next_smooth(int(n), radices) for n in shape)


def pad_to_shape(
    a: np.ndarray, shape: Sequence[int], out: np.ndarray | None = None
) -> np.ndarray:
    """Zero-pad 2-D array ``a`` at the bottom/right up to ``shape``.

    When ``out`` is given it is used as the destination workspace (it must
    have the requested shape); this lets callers reuse one padded buffer per
    plan instead of allocating per transform, per the memory-reuse guidance
    the pipeline relies on.
    """
    shape = tuple(int(n) for n in shape)
    if a.ndim != len(shape):
        raise ValueError(f"rank mismatch: array {a.shape} vs target {shape}")
    if any(s < n for s, n in zip(shape, a.shape)):
        raise ValueError(f"target shape {shape} smaller than array {a.shape}")
    if out is None:
        out = np.zeros(shape, dtype=a.dtype)
    else:
        if out.shape != shape:
            raise ValueError(f"workspace shape {out.shape} != target {shape}")
        out[...] = 0
    out[tuple(slice(0, n) for n in a.shape)] = a
    return out
