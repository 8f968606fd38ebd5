"""Per-worker pair workspaces: reusable scratch for the PCIAM hot path.

Each registered pair needs three scratch surfaces:

``ncc``
    The normalized cross-power spectrum (complex128, spectrum-shaped) --
    written through the ``out=`` parameter of
    :func:`repro.core.ncc.normalized_correlation` and then consumed (and
    clobbered, via ``overwrite_input=True``) by the inverse transform; a
    ``C2C`` inverse runs in place in it.
``ncc_mag``
    Magnitude scratch for the NCC normalization (float64, spectrum-shaped).
``spatial``
    The spatial surface (float64, transform-shaped): a ``C2R`` inverse
    lands in it through ``transform(..., out=)``, and the peak reduction
    takes the magnitude of the inverse in it, in place.

Together they are ~7 MB at 696x520 and ~29 MB at the paper's 1392x1040
tile size (half-spectrum transforms).  With a workspace a warm pair
allocates nothing array-sized; without one every pair allocates these
surfaces afresh, and first-touch page faults make that churn a time
cost.  A pair stage allocates one :class:`PairWorkspace` when its first
pair reveals the tile shape (the paper's one-time-allocation rule,
Section IV.B, applied host-side) and every pair it processes reuses the
same memory.  A :class:`WorkspaceArena` allocates a fixed set of them up
front for callers that hand workspaces out and take them back.
"""

from __future__ import annotations

import queue

import numpy as np

from repro.fftlib.plans import spectrum_shape


class PairWorkspace:
    """One pair worker's scratch surfaces for ``fft_shape`` transforms.

    ``real=True`` sizes the complex surfaces for the half-spectrum
    ``(h, w//2+1)``; ``real=False`` for the full complex spectrum.  A
    ``fallback_shape`` (the full-resolution transform shape of a
    coarse-shaped workspace) gives it a :attr:`fallback` of that shape,
    allocated only if a pair falls back.
    """

    __slots__ = ("ncc", "ncc_mag", "spatial", "_fallback")

    def __init__(
        self,
        fft_shape: tuple[int, int],
        real: bool = True,
        fallback_shape: tuple[int, int] | None = None,
    ) -> None:
        fft_shape = tuple(int(n) for n in fft_shape)
        spec = spectrum_shape(fft_shape) if real else fft_shape
        self.ncc = np.empty(spec, dtype=np.complex128)
        self.ncc_mag = np.empty(spec, dtype=np.float64)
        self.spatial = np.empty(fft_shape, dtype=np.float64)
        self._fallback = (
            None if fallback_shape is None else (fallback_shape, real)
        )

    @property
    def nbytes(self) -> int:
        return self.ncc.nbytes + self.ncc_mag.nbytes + self.spatial.nbytes

    @property
    def fallback(self) -> PairWorkspace | None:
        """Full-resolution scratch for the fallbacks of a coarse-shaped
        workspace: allocated on the first one and kept for the rest;
        ``None`` for a workspace without."""
        if isinstance(self._fallback, tuple):
            self._fallback = PairWorkspace(*self._fallback)
        return self._fallback


class WorkspaceArena:
    """``count`` :class:`PairWorkspace` sets, allocated once.

    ``acquire`` hands one out and blocks while all ``count`` are out (a
    worker-count mismatch, so a generous timeout raises ``TimeoutError``
    instead of deadlocking); ``release`` takes it back.
    """

    def __init__(
        self,
        fft_shape: tuple[int, int],
        real: bool = True,
        count: int = 1,
        fallback_shape: tuple[int, int] | None = None,
    ) -> None:
        self.count = int(count)
        self._free: queue.LifoQueue[PairWorkspace] = queue.LifoQueue()
        for _ in range(self.count):
            self._free.put(PairWorkspace(fft_shape, real, fallback_shape))

    def acquire(self, timeout: float | None = 60.0) -> PairWorkspace:
        try:
            return self._free.get(timeout=timeout)
        except queue.Empty:
            raise TimeoutError(
                f"no free workspace after {timeout}s ({self.count} in the arena)"
            ) from None

    def release(self, ws: PairWorkspace) -> None:
        self._free.put(ws)
