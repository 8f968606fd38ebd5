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
    lands in it through ``Plan.execute(out=)``, and the peak reduction
    takes the magnitude of the inverse in it, in place.

Together they are ~7 MB at 696x520 and ~29 MB at the paper's 1392x1040
tile size (half-spectrum transforms).  With a workspace a warm pair
allocates nothing array-sized; without one every pair allocates these
surfaces afresh, and first-touch page faults make that churn a time
cost.  A :class:`WorkspaceArena` allocates the surfaces once per worker
(the paper's one-time-allocation rule, Section IV.B, applied host-side)
from fixed :class:`~repro.memmodel.pool.BufferPool` instances; workers
acquire a :class:`PairWorkspace` for the duration of their run and every
pair they process reuses the same memory.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

import numpy as np

from repro.fftlib.plans import spectrum_shape
from repro.memmodel.pool import BufferPool


class PairWorkspace:
    """One worker's scratch buffers, handed out by :class:`WorkspaceArena`."""

    __slots__ = ("ncc", "ncc_mag", "spatial", "_indices")

    def __init__(
        self,
        ncc: np.ndarray,
        ncc_mag: np.ndarray,
        spatial: np.ndarray,
        indices: tuple[int, int, int],
    ) -> None:
        self.ncc = ncc
        self.ncc_mag = ncc_mag
        self.spatial = spatial
        self._indices = indices

    @property
    def nbytes(self) -> int:
        return self.ncc.nbytes + self.ncc_mag.nbytes + self.spatial.nbytes


class WorkspaceArena:
    """Fixed arena of :class:`PairWorkspace` sets (one per concurrent worker).

    ``real=True`` sizes the complex surfaces for the half-spectrum
    ``(h, w//2+1)``; ``real=False`` for the full complex spectrum.  The
    arena never allocates after construction; ``acquire`` blocks when all
    ``count`` workspaces are out (which would indicate a worker-count
    mismatch, so a generous timeout raises instead of deadlocking).
    """

    def __init__(
        self,
        fft_shape: tuple[int, int],
        real: bool = True,
        count: int = 1,
    ) -> None:
        self.fft_shape = tuple(int(n) for n in fft_shape)
        self.real = real
        self.count = int(count)
        spec = spectrum_shape(self.fft_shape) if real else self.fft_shape
        self.spectrum_shape = spec
        self._ncc = BufferPool(self.count, spec, dtype=np.complex128)
        self._mag = BufferPool(self.count, spec, dtype=np.float64)
        self._spatial = BufferPool(self.count, self.fft_shape, dtype=np.float64)

    @property
    def bytes_per_workspace(self) -> int:
        return (
            self._ncc.array(0).nbytes
            + self._mag.array(0).nbytes
            + self._spatial.array(0).nbytes
        )

    @property
    def total_bytes(self) -> int:
        return self.bytes_per_workspace * self.count

    def acquire(self, timeout: float | None = 60.0) -> PairWorkspace:
        i = self._ncc.acquire(timeout=timeout)
        j = self._mag.acquire(timeout=timeout)
        k = self._spatial.acquire(timeout=timeout)
        return PairWorkspace(
            self._ncc.array(i), self._mag.array(j), self._spatial.array(k),
            (i, j, k),
        )

    def release(self, ws: PairWorkspace) -> None:
        i, j, k = ws._indices
        self._ncc.release(i)
        self._mag.release(j)
        self._spatial.release(k)

    @contextmanager
    def workspace(self, timeout: float | None = 60.0):
        ws = self.acquire(timeout=timeout)
        try:
            yield ws
        finally:
            self.release(ws)

    def stats(self) -> dict:
        """Acquire accounting for metrics/tests (arena never re-allocates)."""
        return {
            "count": self.count,
            "bytes_per_workspace": self.bytes_per_workspace,
            "total_bytes": self.total_bytes,
            "acquires": self._ncc.total_acquires,
            "peak_in_use": self._ncc.peak_in_use,
        }


class ThreadLocalWorkspaces:
    """Hands each calling thread its own workspace from a shared arena.

    Pipelined stages run their pair work on an anonymous worker pool; a
    worker acquires its workspace lazily on first use and keeps it for the
    pipeline's lifetime (size the arena to the worker count).
    ``release_all`` returns every issued workspace once the pipeline has
    drained.
    """

    def __init__(self, arena: WorkspaceArena) -> None:
        self.arena = arena
        self._local = threading.local()
        self._issued: list[PairWorkspace] = []
        self._lock = threading.Lock()

    def get(self) -> PairWorkspace:
        ws = getattr(self._local, "ws", None)
        if ws is None:
            ws = self.arena.acquire()
            self._local.ws = ws
            with self._lock:
                self._issued.append(ws)
        return ws

    def release_all(self) -> None:
        with self._lock:
            for ws in self._issued:
                self.arena.release(ws)
            self._issued.clear()
        self._local = threading.local()
