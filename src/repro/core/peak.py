"""Peak reduction and periodic interpretation (steps 5-6 of Fig. 1).

The inverse transform of the NCC is reduced to its maximum-magnitude
element; its index ``(py, px)`` is ambiguous because Fourier transforms are
periodic: a peak at ``px`` can mean a horizontal translation of ``px`` *or*
``px - W`` (the paper phrases the second case as ``w - x`` with the overlap
measured from the other side).  The paper's implementation tests the four
combinations ``(x | w-x) x (y | h-y)`` -- all as non-negative translations.
An *extended* mode additionally tests the signed aliases
``{px, px-W} x {py, py-H}``, which distinguishes small negative offsets
(e.g. a slightly *upward* drift between horizontal neighbours) that the
4-combination scheme folds onto the wrong sign; this is the refinement the
MIST successor tool adopted.
"""

from __future__ import annotations

import numpy as np


def peak_location(inv_ncc: np.ndarray) -> tuple[float, int, int]:
    """Reduce to the max of ``|NCC^-1|``; returns ``(magnitude, py, px)``.

    Equivalent to the paper's custom max-reduction kernel followed by the
    index-to-coordinates mapping.
    """
    mag = np.abs(inv_ncc)
    flat_idx = int(np.argmax(mag))
    py, px = np.unravel_index(flat_idx, mag.shape)
    return float(mag[py, px]), int(py), int(px)


def top_peaks(
    inv_ncc: np.ndarray, n: int, mag_out: np.ndarray | None = None
) -> list[tuple[float, int, int]]:
    """The ``n`` largest-magnitude elements as ``(magnitude, py, px)``.

    ``n == 1`` reduces to :func:`peak_location` (the paper's scheme); the
    ImageJ/Fiji plugin the paper benchmarks against tests several peaks,
    which is markedly more robust on feature-poor overlaps, so callers may
    ask for more.  Ordered by decreasing magnitude; equal magnitudes by
    increasing flat index, so an all-equal surface yields its first ``n``
    elements.  ``mag_out`` (float64, same shape) receives the magnitude
    scratch so the reduction allocates nothing.

    Callers ask for a handful of peaks from surfaces of ~10^5 elements,
    so the reduction is ``n`` successive ``argmax`` passes (each found
    peak is struck out of the scratch): cheaper than one ``argpartition``
    of the whole surface, and ``argmax`` is what breaks ties low.
    """
    if n < 1:
        raise ValueError(f"need at least one peak, got n={n}")
    mag = np.abs(inv_ncc, out=mag_out)
    flat = mag.reshape(-1)
    out = []
    for _ in range(min(n, flat.size)):
        f = int(flat.argmax())
        py, px = np.unravel_index(f, mag.shape)
        out.append((float(flat[f]), int(py), int(px)))
        flat[f] = -1.0  # magnitudes are >= 0: never picked again
    return out


def peak_magnitude_ratio(magnitudes) -> float | None:
    """First-to-second peak-magnitude ratio, the peak-sharpness score.

    ``magnitudes`` must be ordered decreasing (as :func:`top_peaks`
    returns them).  A decisive correlation surface concentrates energy
    in one peak (ratio well above 1); a diffuse surface -- blank or
    saturated overlap, sparse content -- spreads it (ratio near 1).
    Returns ``None`` when fewer than two peaks were reduced, and
    ``inf`` when the runner-up magnitude is zero.
    """
    if len(magnitudes) < 2:
        return None
    first, second = float(magnitudes[0]), float(magnitudes[1])
    if second <= 0.0:
        return float("inf")
    return first / second


def peak_candidates(
    py: int,
    px: int,
    fft_shape: tuple[int, int],
    extended: bool = False,
) -> list[tuple[int, int]]:
    """Candidate translations ``(tx, ty)`` implied by a peak at ``(py, px)``.

    ``fft_shape`` is the shape ``(H, W)`` of the transform that produced the
    peak (which is the padded shape when padding is in use).

    Paper mode (default) returns the four non-negative combinations
    ``(px | W-px) x (py | H-py)``; extended mode returns the signed aliases,
    up to eight distinct candidates.
    """
    h, w = fft_shape
    if not (0 <= py < h and 0 <= px < w):
        raise ValueError(f"peak ({py},{px}) outside transform shape {fft_shape}")
    if extended:
        xs = {px, px - w}
        ys = {py, py - h}
    else:
        xs = {px, w - px}
        ys = {py, h - py}
    return [(tx, ty) for ty in sorted(ys) for tx in sorted(xs)]
