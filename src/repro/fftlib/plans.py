"""The FFT gateway: every transform of the package, and its ledger.

The paper (Section IV.A) runs FFTW in two phases -- *plan* a problem
once (4 min 20 s of ``patient`` planning for its 1392x1040 tiles), then
*execute* the plan thousands of times.  The patient plan's execution
time lives on in the simulator's cost model
(:attr:`repro.gpu.costs.CpuCostModel.fft_seconds`).  Here every
transform runs on numpy's pocketfft, which builds and caches its own
per-length tables and exposes no plan a caller could hold, so there is
no plan object: :func:`transform` is the only code that names an FFT
library, and :class:`TransformLedger` counts what it runs, per problem.
"""

from __future__ import annotations

import threading
from enum import Enum

import numpy as np
from numpy import fft as _pocketfft


class TransformKind(Enum):
    """The two transform kinds: the paper's second future-work
    optimization (real-to-complex transforms halve both work and
    footprint) is the only scheme -- tiles are real, so the half-spectrum
    carries everything."""

    R2C = "r2c"
    C2R = "c2r"


def require_half_spectrum(real: bool) -> None:
    """Refuse ``real=False``.  The ``real``/``real_transforms`` keywords
    that call this stay only because ``benchmarks/e2e/replay.py`` spells
    them ``True``."""
    if not real:
        raise ValueError("every transform is half-spectrum (R2C/C2R)")


def spectrum_shape(shape: tuple[int, ...]) -> tuple[int, ...]:
    """Half-spectrum shape of a real array of ``shape`` (rfft2 output)."""
    return (*shape[:-1], shape[-1] // 2 + 1)


class TransformLedger:
    """Transforms run in this process, per ``(kind, (h, w))`` problem.

    The first transform of a problem is a *miss* (pocketfft builds its
    tables for the lengths), every later one a *hit*.  A warm worker
    serving its second same-geometry job shows hits and no misses -- the
    amortization the service's persistent pools exist for.  A
    coarse-to-fine run transforms at two resolutions; each shape keeps
    its own row.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counts: dict[tuple[TransformKind, tuple[int, int]], list[int]] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._counts)

    def record(self, kind: TransformKind, shape: tuple[int, int]) -> None:
        with self._lock:
            counts = self._counts.get((kind, shape))
            if counts is None:
                self._counts[(kind, shape)] = [0, 1]
                self.misses += 1
            else:
                counts[0] += 1
                self.hits += 1

    def stats(self) -> dict:
        """JSON-able totals plus ``per_shape`` rows, largest shape first."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "per_shape": [
                    {"shape": list(shape), "kind": kind.value,
                     "hits": hits, "misses": misses}
                    for (kind, shape), (hits, misses) in sorted(
                        self._counts.items(),
                        key=lambda kv: (kv[0][1], kv[0][0].value),
                        reverse=True,
                    )
                ],
            }

    def clear(self) -> None:
        with self._lock:
            self._counts.clear()
            self.hits = self.misses = 0


_ledger = TransformLedger()


def default_cache() -> TransformLedger:
    """The process-wide :class:`TransformLedger` :func:`transform` counts in."""
    return _ledger


def transform(
    kind: TransformKind,
    a: np.ndarray,
    shape: tuple[int, ...],
    overwrite_input: bool = False,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """The one FFT gateway: run ``kind`` over the last two axes of ``a``.

    ``shape`` is the spatial problem shape (its last two entries are read;
    a leading batch axis is untouched).  ``overwrite_input`` lets the
    first pass of a ``C2R`` run in place in ``a``; ``out`` receives the result (the
    real spatial surface for ``C2R``, the half-spectrum for ``R2C``).

    Runs on numpy's C++ pocketfft one axis at a time, in the order
    ``scipy.fft``'s multi-axis transforms use and with the ``1/(h*w)``
    of the inverse applied where they apply it, so every spectrum and
    surface equals ``scipy.fft``'s byte for byte.  Each second pass runs
    in place, so a transform allocates at most its output -- plus, for a
    ``C2R`` that may not clobber its input, one spectrum-sized
    intermediate.
    """
    h, w = shape[-2:]
    _ledger.record(kind, (int(h), int(w)))
    if kind is TransformKind.R2C:
        spec = _pocketfft.rfft(a, axis=-1, out=out)
        return _pocketfft.fft(spec, axis=-2, out=spec)
    # The inverse passes norm="forward" (no scaling of its own) and takes
    # scipy's 1/(h*w) on the real output.
    spec = _pocketfft.ifft(
        a, axis=-2, norm="forward", out=a if overwrite_input else None
    )
    real = _pocketfft.irfft(spec, n=w, axis=-1, norm="forward", out=out)
    real *= 1.0 / (h * w)
    return real
